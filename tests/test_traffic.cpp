#include "src/traffic/patterns.hpp"

#include <gtest/gtest.h>

#include <map>

namespace swft {
namespace {

TEST(Traffic, UniformNeverPicksSelfOrFaulty) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  faults.failNode(10);
  faults.failNode(20);
  const TrafficGenerator gen(TrafficPattern::Uniform, faults);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const NodeId d = gen.pickDestination(5, rng);
    ASSERT_NE(d, 5u);
    ASSERT_FALSE(faults.nodeFaulty(d));
  }
}

TEST(Traffic, UniformCoversAllHealthyDestinations) {
  const TorusTopology topo(4, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Uniform, faults);
  Rng rng(2);
  std::map<NodeId, int> hist;
  for (int i = 0; i < 20000; ++i) ++hist[gen.pickDestination(0, rng)];
  EXPECT_EQ(hist.size(), topo.nodeCount() - 1);
  for (const auto& [node, count] : hist) {
    EXPECT_GT(count, 20000 / 15 / 3) << "roughly uniform across " << node;
  }
}

TEST(Traffic, TransposeRotatesDigits) {
  const TorusTopology topo(8, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Transpose, faults);
  Rng rng(3);
  Coordinates c;
  c.digit.resize(2);
  c[0] = 2;
  c[1] = 5;
  const NodeId src = topo.idOf(c);
  const NodeId dst = gen.pickDestination(src, rng);
  const Coordinates dc = topo.coordsOf(dst);
  EXPECT_EQ(dc[0], 5);
  EXPECT_EQ(dc[1], 2);
}

TEST(Traffic, TransposeFixedPointsReturnInvalid) {
  const TorusTopology topo(8, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Transpose, faults);
  Rng rng(4);
  Coordinates c;
  c.digit.resize(2);
  c[0] = 3;
  c[1] = 3;  // on the diagonal: transpose maps to self
  EXPECT_EQ(gen.pickDestination(topo.idOf(c), rng), kInvalidNode);
}

TEST(Traffic, BitComplementMapsToOppositeCorner) {
  const TorusTopology topo(8, 3);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::BitComplement, faults);
  Rng rng(5);
  const NodeId dst = gen.pickDestination(0, rng);
  const Coordinates dc = topo.coordsOf(dst);
  for (int d = 0; d < 3; ++d) EXPECT_EQ(dc[d], 7);
}

TEST(Traffic, BitComplementToFaultyDestinationSkips) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  Coordinates c;
  c.digit.resize(2);
  c[0] = 7;
  c[1] = 7;
  faults.failNode(topo.idOf(c));
  const TrafficGenerator gen(TrafficPattern::BitComplement, faults);
  Rng rng(6);
  EXPECT_EQ(gen.pickDestination(0, rng), kInvalidNode);
}

TEST(Traffic, HotspotConcentratesRequestedFraction) {
  const TorusTopology topo(8, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Hotspot, faults, 0.3);
  Rng rng(7);
  std::map<NodeId, int> hist;
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++hist[gen.pickDestination(0, rng)];
  // Find the hotspot: the clear modal destination.
  int maxCount = 0;
  for (const auto& [node, count] : hist) maxCount = std::max(maxCount, count);
  EXPECT_NEAR(static_cast<double>(maxCount) / n, 0.3, 0.03);
}

TEST(Traffic, BitReversalReversesAddressBits) {
  const TorusTopology topo(8, 2);  // 64 nodes, 6 address bits
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::BitReversal, faults);
  Rng rng(8);
  // src 0b000001 -> 0b100000; src 0b001101 -> 0b101100.
  EXPECT_EQ(gen.pickDestination(1, rng), 32u);
  EXPECT_EQ(gen.pickDestination(13, rng), 44u);
}

TEST(Traffic, BitReversalPalindromesAndFaultyDestsReturnInvalid) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  faults.failNode(32);  // reversal image of node 1
  const TrafficGenerator gen(TrafficPattern::BitReversal, faults);
  Rng rng(9);
  EXPECT_EQ(gen.pickDestination(0, rng), kInvalidNode);   // 000000 is a palindrome
  EXPECT_EQ(gen.pickDestination(33, rng), kInvalidNode);  // 100001 is a palindrome
  EXPECT_EQ(gen.pickDestination(1, rng), kInvalidNode);   // image faulty
}

TEST(Traffic, BitReversalNonPowerOfTwoFallsBackToDigitReversal) {
  const TorusTopology topo(6, 3);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::BitReversal, faults);
  Rng rng(10);
  Coordinates c;
  c.digit.resize(3);
  c[0] = 1;
  c[1] = 2;
  c[2] = 4;
  const NodeId dst = gen.pickDestination(topo.idOf(c), rng);
  ASSERT_NE(dst, kInvalidNode);
  const Coordinates dc = topo.coordsOf(dst);
  EXPECT_EQ(dc[0], 4);
  EXPECT_EQ(dc[1], 2);
  EXPECT_EQ(dc[2], 1);
}

TEST(Traffic, ShuffleRotatesAddressBitsLeft) {
  const TorusTopology topo(8, 2);  // 6 address bits
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Shuffle, faults);
  Rng rng(11);
  EXPECT_EQ(gen.pickDestination(1, rng), 2u);     // 000001 -> 000010
  EXPECT_EQ(gen.pickDestination(32, rng), 1u);    // 100000 -> 000001
  EXPECT_EQ(gen.pickDestination(33, rng), 3u);    // 100001 -> 000011
  EXPECT_EQ(gen.pickDestination(0, rng), kInvalidNode);   // fixed point
  EXPECT_EQ(gen.pickDestination(63, rng), kInvalidNode);  // fixed point
}

TEST(Traffic, ShuffleNeverPicksSelfOrFaulty) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  faults.failNode(2);
  const TrafficGenerator gen(TrafficPattern::Shuffle, faults);
  Rng rng(12);
  EXPECT_EQ(gen.pickDestination(1, rng), kInvalidNode);  // image 2 is faulty
  for (NodeId src = 0; src < topo.nodeCount(); ++src) {
    const NodeId d = gen.pickDestination(src, rng);
    if (d == kInvalidNode) continue;
    EXPECT_NE(d, src);
    EXPECT_FALSE(faults.nodeFaulty(d));
  }
}

TEST(Traffic, ShuffleCoversAllNonFixedSources) {
  // The shuffle permutation is a bijection; over all sources the destination
  // multiset must equal the non-palindromic address set exactly once each.
  const TorusTopology topo(4, 2);  // 16 nodes, 4 bits
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Shuffle, faults);
  Rng rng(13);
  std::map<NodeId, int> hist;
  for (NodeId src = 0; src < topo.nodeCount(); ++src) {
    const NodeId d = gen.pickDestination(src, rng);
    if (d != kInvalidNode) ++hist[d];
  }
  for (const auto& [node, count] : hist) EXPECT_EQ(count, 1) << node;
}

TEST(Traffic, TornadoOffsetsEveryDigitByHalfRing) {
  const TorusTopology topo(8, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Tornado, faults);
  Rng rng(14);
  Coordinates c;
  c.digit.resize(2);
  c[0] = 2;
  c[1] = 6;
  const NodeId dst = gen.pickDestination(topo.idOf(c), rng);
  ASSERT_NE(dst, kInvalidNode);
  const Coordinates dc = topo.coordsOf(dst);
  EXPECT_EQ(dc[0], 5);  // +ceil(8/2)-1 = +3 mod 8
  EXPECT_EQ(dc[1], 1);
}

TEST(Traffic, TornadoExcludesSelfAndFaulty) {
  // k=2: the tornado offset is 0, so every source maps to itself -> invalid.
  const TorusTopology tiny(2, 2);
  const FaultSet tinyFaults(tiny);
  const TrafficGenerator degenerate(TrafficPattern::Tornado, tinyFaults);
  Rng rng(15);
  for (NodeId src = 0; src < tiny.nodeCount(); ++src) {
    EXPECT_EQ(degenerate.pickDestination(src, rng), kInvalidNode);
  }

  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  Coordinates c;
  c.digit.resize(2);
  c[0] = 3;
  c[1] = 3;
  faults.failNode(topo.idOf(c));
  const TrafficGenerator gen(TrafficPattern::Tornado, faults);
  c[0] = 0;
  c[1] = 0;
  EXPECT_EQ(gen.pickDestination(topo.idOf(c), rng), kInvalidNode);  // image (3,3) faulty
}

TEST(Traffic, TornadoDestinationDistributionIsAPermutation) {
  const TorusTopology topo(8, 2);
  const FaultSet faults(topo);
  const TrafficGenerator gen(TrafficPattern::Tornado, faults);
  Rng rng(16);
  std::map<NodeId, int> hist;
  for (NodeId src = 0; src < topo.nodeCount(); ++src) {
    const NodeId d = gen.pickDestination(src, rng);
    ASSERT_NE(d, kInvalidNode);  // offset 3 never maps to self for k=8
    ++hist[d];
  }
  EXPECT_EQ(hist.size(), topo.nodeCount());
  for (const auto& [node, count] : hist) EXPECT_EQ(count, 1) << node;
}

TEST(Traffic, PatternNames) {
  EXPECT_EQ(trafficPatternName(TrafficPattern::Uniform), "uniform");
  EXPECT_EQ(trafficPatternName(TrafficPattern::Transpose), "transpose");
  EXPECT_EQ(trafficPatternName(TrafficPattern::BitComplement), "bitcomp");
  EXPECT_EQ(trafficPatternName(TrafficPattern::BitReversal), "bitrev");
  EXPECT_EQ(trafficPatternName(TrafficPattern::Shuffle), "shuffle");
  EXPECT_EQ(trafficPatternName(TrafficPattern::Tornado), "tornado");
  EXPECT_EQ(trafficPatternName(TrafficPattern::Hotspot), "hotspot");
}

TEST(Traffic, ParseIsInverseOfName) {
  for (const TrafficPattern p : kAllTrafficPatterns) {
    const auto parsed = parseTrafficPattern(trafficPatternName(p));
    ASSERT_TRUE(parsed.has_value()) << trafficPatternName(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(parseTrafficPattern("bitcomp"), TrafficPattern::BitComplement);
  EXPECT_FALSE(parseTrafficPattern("bit-complement").has_value());
  EXPECT_FALSE(parseTrafficPattern("worst").has_value());
  EXPECT_FALSE(parseTrafficPattern("").has_value());
}

}  // namespace
}  // namespace swft
