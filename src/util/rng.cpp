#include "src/util/rng.hpp"

#include <bit>
#include <cmath>

namespace swft {

std::uint64_t Rng::geometric(double p) noexcept {
  if (p <= 0.0) return ~0ULL;  // effectively "never"
  if (p >= 1.0) return 1;
  // Inverse-CDF sampling: ceil(log(1-u)/log(1-p)) >= 1.
  const double u = uniform01();
  const double v = std::log1p(-u) / std::log1p(-p);
  const double n = std::ceil(v);
  if (n < 1.0) return 1;
  // A draw of 2^64 cycles or more does not fit the result (converting it
  // would be undefined): it means "never", like p == 0.
  return n < 0x1p64 ? static_cast<std::uint64_t>(n) : ~0ULL;
}

int Rng::randomSetBit(std::uint64_t mask) noexcept {
  const int n = std::popcount(mask);
  if (n == 0) return -1;
  int k = static_cast<int>(uniform(static_cast<std::uint32_t>(n)));
  while (k-- > 0) mask &= mask - 1;  // drop k lowest set bits
  return std::countr_zero(mask);
}

}  // namespace swft
