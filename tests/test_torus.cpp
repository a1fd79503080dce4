#include "src/topology/torus.hpp"

#include <gtest/gtest.h>

#include "tests/naming.hpp"

namespace swft {
namespace {

TEST(Ports, EncodingRoundTrip) {
  for (int dim = 0; dim < kMaxDims; ++dim) {
    for (Dir dir : {Dir::Pos, Dir::Neg}) {
      const int port = portOf(dim, dir);
      EXPECT_EQ(dimOfPort(port), dim);
      EXPECT_EQ(dirOfPort(port), dir);
    }
  }
}

TEST(Ports, OppositeInverts) {
  EXPECT_EQ(opposite(Dir::Pos), Dir::Neg);
  EXPECT_EQ(opposite(Dir::Neg), Dir::Pos);
  EXPECT_EQ(dirStep(Dir::Pos), 1);
  EXPECT_EQ(dirStep(Dir::Neg), -1);
}

struct KnParam {
  int k;
  int n;
};

class TorusParam : public ::testing::TestWithParam<KnParam> {
 protected:
  TorusTopology topo() const { return TorusTopology(GetParam().k, GetParam().n); }
};

TEST_P(TorusParam, NeighborsAreSymmetric) {
  const TorusTopology t = topo();
  for (NodeId id = 0; id < t.nodeCount(); ++id) {
    for (int port = 0; port < t.networkPorts(); ++port) {
      const NodeId nb = t.neighbor(id, port);
      const int back = portOf(dimOfPort(port), opposite(dirOfPort(port)));
      EXPECT_EQ(t.neighbor(nb, back), id);
    }
  }
}

TEST_P(TorusParam, NeighborsDifferInExactlyOneDigit) {
  const TorusTopology t = topo();
  for (NodeId id = 0; id < t.nodeCount(); ++id) {
    const Coordinates c = t.coordsOf(id);
    for (int port = 0; port < t.networkPorts(); ++port) {
      const Coordinates nc = t.coordsOf(t.neighbor(id, port));
      int diffs = 0;
      for (int d = 0; d < t.dims(); ++d) diffs += (c[d] != nc[d]);
      if (t.radix() == 2) {
        EXPECT_LE(diffs, 1);  // k=2: +1 and -1 coincide
      } else {
        EXPECT_EQ(diffs, 1);
      }
    }
  }
}

TEST_P(TorusParam, EveryRingClosesAfterKHops) {
  const TorusTopology t = topo();
  for (int dim = 0; dim < t.dims(); ++dim) {
    NodeId at = 0;
    int wrapsSeen = 0;
    for (int hop = 0; hop < t.radix(); ++hop) {
      wrapsSeen += t.isWrapLink(at, dim, Dir::Pos);
      at = t.neighbor(at, dim, Dir::Pos);
    }
    EXPECT_EQ(at, 0u);
    EXPECT_EQ(wrapsSeen, 1);  // exactly one wrap link per directed ring orbit
  }
}

TEST_P(TorusParam, MinimalOffsetIsMinimalAndConsistent) {
  const TorusTopology t = topo();
  const int k = t.radix();
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      const int off = t.minimalOffset(static_cast<std::int16_t>(a),
                                      static_cast<std::int16_t>(b));
      EXPECT_LE(std::abs(off), k / 2);
      EXPECT_EQ((a + off % k + k) % k, b);
      // Ring distance in the minimal direction equals |offset|.
      const Dir dir = off >= 0 ? Dir::Pos : Dir::Neg;
      EXPECT_EQ(t.ringDistance(static_cast<std::int16_t>(a), static_cast<std::int16_t>(b), dir),
                std::abs(off));
    }
  }
}

TEST_P(TorusParam, RingDistanceSumsToK) {
  const TorusTopology t = topo();
  const int k = t.radix();
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      if (a == b) continue;
      const auto sa = static_cast<std::int16_t>(a);
      const auto sb = static_cast<std::int16_t>(b);
      EXPECT_EQ(t.ringDistance(sa, sb, Dir::Pos) + t.ringDistance(sa, sb, Dir::Neg), k);
    }
  }
}

TEST_P(TorusParam, DistanceIsAMetric) {
  const TorusTopology t = topo();
  const NodeId n = t.nodeCount();
  const NodeId stride = n > 64 ? n / 37 + 1 : 1;  // sample large networks
  for (NodeId a = 0; a < n; a += stride) {
    EXPECT_EQ(t.distance(a, a), 0);
    for (NodeId b = 0; b < n; b += stride) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      // One-hop neighbours are at distance exactly 1 (k > 2).
    }
    for (int port = 0; port < t.networkPorts() && t.radix() > 2; ++port) {
      EXPECT_EQ(t.distance(a, t.neighbor(a, port)), 1);
    }
  }
}

TEST_P(TorusParam, DiameterIsNTimesHalfK) {
  const TorusTopology t = topo();
  int maxDist = 0;
  const NodeId n = t.nodeCount();
  const NodeId stride = n > 512 ? 7 : 1;
  for (NodeId a = 0; a < n; a += stride)
    for (NodeId b = 0; b < n; b += stride) maxDist = std::max(maxDist, t.distance(a, b));
  EXPECT_LE(maxDist, t.dims() * (t.radix() / 2));
  if (stride == 1) {
    EXPECT_EQ(maxDist, t.dims() * (t.radix() / 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, TorusParam,
                         ::testing::Values(KnParam{3, 2}, KnParam{4, 2}, KnParam{5, 2},
                                           KnParam{8, 2}, KnParam{4, 3}, KnParam{8, 3},
                                           KnParam{16, 2}, KnParam{3, 4}, KnParam{2, 3},
                                           KnParam{4, 4}),
                         [](const auto& info) {
                           return knName(info.param.k, info.param.n);
                         });

TEST(Torus, WrapLinkPositions8ary) {
  const TorusTopology t(8, 2);
  const NodeId node70 = t.idOf([&] {
    Coordinates c;
    c.digit.resize(2);
    c[0] = 7;
    c[1] = 0;
    return c;
  }());
  EXPECT_TRUE(t.isWrapLink(node70, 0, Dir::Pos));
  EXPECT_FALSE(t.isWrapLink(node70, 0, Dir::Neg));
  EXPECT_TRUE(t.isWrapLink(0, 0, Dir::Neg));
  EXPECT_FALSE(t.isWrapLink(0, 0, Dir::Pos));
  EXPECT_TRUE(t.isWrapLink(0, 1, Dir::Neg));
}

// The engine derives the wrap bit from the id order of a link's two ends
// (stepWraps); it must agree with the coordinate-based rule on every link,
// including k = 2, where both directions reach the same neighbour.
TEST(Torus, IdOrderWrapRuleMatchesCoordinates) {
  for (const int k : {2, 3, 5, 8}) {
    for (int n = 1; n <= 4; ++n) {
      const TorusTopology t(k, n);
      int wraps = 0;
      for (NodeId id = 0; id < t.nodeCount(); ++id) {
        for (int port = 0; port < t.networkPorts(); ++port) {
          const bool coords = t.isWrapLink(id, dimOfPort(port), dirOfPort(port));
          ASSERT_EQ(stepWraps(dirOfPort(port), id, t.neighbor(id, port)), coords)
              << knName(k, n) << " node " << id << " port " << port;
          wraps += coords ? 1 : 0;
        }
      }
      // One wrap link per ring direction: 2n directions x k^(n-1) rings.
      EXPECT_EQ(wraps, 2 * static_cast<int>(t.nodeCount()) / k * n) << knName(k, n);
    }
  }
}

TEST(Torus, LocalPortLayout) {
  const TorusTopology t(8, 3);
  EXPECT_EQ(t.networkPorts(), 6);
  EXPECT_EQ(t.localPort(), 6);
  EXPECT_EQ(t.totalPorts(), 7);
}

}  // namespace
}  // namespace swft
