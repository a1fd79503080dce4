// Deterministic, splittable pseudo-random number generation for simulations.
//
// All stochastic behaviour in the simulator (traffic generation, destination
// selection, virtual-channel choice, fault placement) is driven by streams
// derived from a single root seed, so every experiment is bit-reproducible.
#pragma once

#include <cstdint>

namespace swft {

/// SplitMix64: used to expand seeds into xoshiro state and to derive
/// independent sub-streams (one per node, per sweep point, ...).
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EEDBA5EBA11ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Derive an independent stream; `salt` distinguishes sibling streams.
  [[nodiscard]] Rng split(std::uint64_t salt) const noexcept {
    std::uint64_t mix = s_[0] ^ (s_[1] * 0x9E3779B97F4A7C15ULL) ^ salt;
    return Rng{splitmix64(mix) ^ s_[2]};
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Unbiased via rejection (Lemire's method).
  std::uint32_t uniform(std::uint32_t bound) noexcept {
    auto x = static_cast<std::uint32_t>(next() >> 32);
    auto m = static_cast<std::uint64_t>(x) * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (lo < threshold) {
        x = static_cast<std::uint32_t>(next() >> 32);
        m = static_cast<std::uint64_t>(x) * bound;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// One Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Geometric inter-arrival sample (number of cycles until next arrival,
  /// >= 1) for a Bernoulli-per-cycle approximation of a Poisson process.
  /// ~0 means "never": p <= 0, or a draw too large for 64 bits.
  std::uint64_t geometric(double p) noexcept;

  /// Pick a uniformly random set bit position of a non-zero mask.
  int randomSetBit(std::uint64_t mask) noexcept;

  // Standard-library compatibility (UniformRandomBitGenerator).
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace swft
