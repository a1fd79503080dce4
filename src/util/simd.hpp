// Word-row sweeps shared by the engine's hot loops: active-set and work-set
// walks (find the next/previous nonzero word).
//
// Plain scalar loops: the rows the engine walks are a handful of words long
// (a 64-node network's active set is one word), so the compiler's own
// lowering of these loops is the whole implementation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace swft::simd {

/// Compile-time target ISA the build was compiled for (bench metadata).
[[nodiscard]] constexpr const char* isaName() noexcept {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// First index in [from, n) with w[i] != 0, or n when none.
[[nodiscard]] inline std::size_t findNonZero(const std::uint64_t* w,
                                             std::size_t from,
                                             std::size_t n) noexcept {
  std::size_t i = from;
  while (i < n && w[i] == 0) ++i;
  return i;
}

/// Last index in [0, from] with w[i] != 0, or kNone when none.
[[nodiscard]] inline std::size_t findNonZeroDown(const std::uint64_t* w,
                                                 std::size_t from) noexcept {
  for (std::size_t end = from + 1; end > 0; --end) {
    if (w[end - 1] != 0) return end - 1;
  }
  return kNone;
}

}  // namespace swft::simd
