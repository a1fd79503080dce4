#include "src/util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace swft {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  const Rng root(7);
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1again = root.split(1);
  int equal12 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto a = s1.next();
    EXPECT_EQ(a, s1again.next());
    equal12 += (a == s2.next());
  }
  EXPECT_LT(equal12, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(99);
  for (std::uint32_t bound : {1u, 2u, 3u, 7u, 100u, 1u << 20}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.uniform(bound), bound);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng r(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliRateMatches) {
  Rng r(17);
  const double p = 0.05;
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.005);
}

TEST(Rng, GeometricMeanIsInverseRate) {
  Rng r(23);
  const double p = 0.01;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(p));
  EXPECT_NEAR(sum / n, 1.0 / p, 5.0);
}

TEST(Rng, GeometricAlwaysAtLeastOne) {
  Rng r(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.geometric(0.9), 1u);
}

TEST(Rng, GeometricEdgeCases) {
  Rng r(31);
  EXPECT_EQ(r.geometric(1.0), 1u);
  EXPECT_EQ(r.geometric(0.0), ~0ULL);
  EXPECT_EQ(r.geometric(-1.0), ~0ULL);
}

// Below about p = 2e-18 a draw can exceed 2^64 cycles; it must read as
// "never", not wrap to a zero gap that would re-fire the PE forever.
TEST(Rng, GeometricBeyondSixtyFourBitsIsNever) {
  Rng r(41);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t gap = r.geometric(1e-300);
    ASSERT_NE(gap, 0u);
    EXPECT_EQ(gap, ~0ULL);
  }
}

TEST(Rng, RandomSetBitPicksOnlySetBits) {
  Rng r(37);
  const std::uint64_t mask = 0b101001010ULL;
  for (int i = 0; i < 500; ++i) {
    const int bit = r.randomSetBit(mask);
    ASSERT_GE(bit, 0);
    EXPECT_TRUE(mask & (1ULL << bit));
  }
}

TEST(Rng, RandomSetBitCoversAllSetBits) {
  Rng r(41);
  const std::uint64_t mask = (1ULL << 3) | (1ULL << 17) | (1ULL << 63);
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) seen.insert(r.randomSetBit(mask));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, RandomSetBitEmptyMask) {
  Rng r(43);
  EXPECT_EQ(r.randomSetBit(0), -1);
}

TEST(Rng, SplitMix64KnownExpansion) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_NE(splitmix64(s1), splitmix64(s2) == 0 ? 1 : splitmix64(s2));
}

}  // namespace
}  // namespace swft
