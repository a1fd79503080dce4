#include "src/fault/regions.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/fault/connectivity.hpp"

namespace swft {
namespace {

RegionSpec makeSpec(RegionShape shape, int e0, int e1, const TorusTopology& topo) {
  RegionSpec s;
  s.shape = shape;
  s.extent0 = e0;
  s.extent1 = e1;
  s.anchor.digit.resize(static_cast<std::size_t>(topo.dims()));
  for (int d = 0; d < topo.dims(); ++d) s.anchor[d] = 1;
  return s;
}

struct ShapeCase {
  RegionShape shape;
  int e0, e1;
  int expectedCells;
};

class RegionCardinality : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(RegionCardinality, CellCountMatchesFormula) {
  const TorusTopology topo(16, 2);
  const auto p = GetParam();
  const auto cells = regionCells(makeSpec(p.shape, p.e0, p.e1, topo));
  EXPECT_EQ(static_cast<int>(cells.size()), p.expectedCells);
  // Cells are unique.
  const std::set<std::pair<int, int>> uniq(cells.begin(), cells.end());
  EXPECT_EQ(uniq.size(), cells.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RegionCardinality,
    ::testing::Values(ShapeCase{RegionShape::I, 1, 4, 4},        // column of 4
                      ShapeCase{RegionShape::I, 1, 1, 1},        // single node
                      ShapeCase{RegionShape::II, 1, 3, 6},       // two columns of 3
                      ShapeCase{RegionShape::Rect, 4, 5, 20},    // Fig. 5 block
                      ShapeCase{RegionShape::Rect, 1, 1, 1},
                      ShapeCase{RegionShape::Rect, 3, 3, 9},
                      ShapeCase{RegionShape::L, 5, 5, 9},        // Fig. 5 L
                      ShapeCase{RegionShape::L, 2, 2, 3},
                      ShapeCase{RegionShape::U, 4, 3, 8},        // Fig. 5 U
                      ShapeCase{RegionShape::U, 3, 2, 5},
                      ShapeCase{RegionShape::Plus, 5, 5, 16},    // Fig. 5 plus
                      ShapeCase{RegionShape::Plus, 4, 4, 12},
                      ShapeCase{RegionShape::T, 5, 5, 10},       // Fig. 5 T
                      ShapeCase{RegionShape::T, 3, 2, 5},
                      ShapeCase{RegionShape::H, 4, 5, 12},       // legs 2*5 + bar 2
                      ShapeCase{RegionShape::H, 3, 3, 7}),
    [](const auto& info) {
      return std::string(regionShapeName(info.param.shape)) + "_" +
             std::to_string(info.param.e0) + "x" + std::to_string(info.param.e1);
    });

TEST(Regions, ConvexityClassification) {
  EXPECT_TRUE(regionIsConvex(RegionShape::I));
  EXPECT_TRUE(regionIsConvex(RegionShape::II));
  EXPECT_TRUE(regionIsConvex(RegionShape::Rect));
  EXPECT_FALSE(regionIsConvex(RegionShape::L));
  EXPECT_FALSE(regionIsConvex(RegionShape::U));
  EXPECT_FALSE(regionIsConvex(RegionShape::Plus));
  EXPECT_FALSE(regionIsConvex(RegionShape::T));
  EXPECT_FALSE(regionIsConvex(RegionShape::H));
}

TEST(Regions, Fig5BuildersHaveExactPaperCardinalities) {
  const TorusTopology topo(8, 2);
  EXPECT_EQ(regionNodes(topo, fig5Rect20(topo)).size(), 20u);
  EXPECT_EQ(regionNodes(topo, fig5T10(topo)).size(), 10u);
  EXPECT_EQ(regionNodes(topo, fig5Plus16(topo)).size(), 16u);
  EXPECT_EQ(regionNodes(topo, fig5L9(topo)).size(), 9u);
  EXPECT_EQ(regionNodes(topo, fig5U8(topo)).size(), 8u);
}

TEST(Regions, Fig5RegionsKeepTheNetworkConnected) {
  const TorusTopology topo(8, 2);
  for (const RegionSpec& spec : {fig5Rect20(topo), fig5T10(topo), fig5Plus16(topo),
                                 fig5L9(topo), fig5U8(topo)}) {
    FaultSet faults(topo);
    applyRegion(faults, spec);
    EXPECT_TRUE(healthyNetworkConnected(faults))
        << "shape " << regionShapeName(spec.shape);
  }
}

TEST(Regions, PlacementWrapsAroundTorusEdges) {
  const TorusTopology topo(8, 2);
  RegionSpec s = makeSpec(RegionShape::Rect, 3, 3, topo);
  s.anchor[0] = 6;  // 3-wide block anchored at column 6 wraps to column 0
  s.anchor[1] = 7;
  const auto nodes = regionNodes(topo, s);
  EXPECT_EQ(nodes.size(), 9u);
  bool sawColumnZero = false;
  for (NodeId id : nodes) sawColumnZero |= (topo.coordsOf(id)[0] == 0);
  EXPECT_TRUE(sawColumnZero);
}

TEST(Regions, PlaneSelectionIn3D) {
  const TorusTopology topo(4, 3);
  RegionSpec s = makeSpec(RegionShape::Rect, 2, 2, topo);
  s.dim0 = 1;
  s.dim1 = 2;
  const auto nodes = regionNodes(topo, s);
  EXPECT_EQ(nodes.size(), 4u);
  for (NodeId id : nodes) {
    EXPECT_EQ(topo.coordsOf(id)[0], 1) << "off-plane digit must stay at the anchor";
  }
}

TEST(Regions, RejectsBadSpecs) {
  const TorusTopology topo(8, 2);
  RegionSpec s = makeSpec(RegionShape::Rect, 2, 2, topo);
  s.dim1 = 0;  // same as dim0
  EXPECT_THROW(regionNodes(topo, s), std::invalid_argument);
  RegionSpec s2 = makeSpec(RegionShape::Rect, 0, 2, topo);
  EXPECT_THROW(regionCells(s2), std::invalid_argument);
  RegionSpec s3 = makeSpec(RegionShape::Plus, 1, 1, topo);
  EXPECT_THROW(regionCells(s3), std::invalid_argument);
}

TEST(Regions, ApplyRegionFailsExactlyTheRegionNodes) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  const RegionSpec spec = fig5U8(topo);
  const auto nodes = applyRegion(faults, spec);
  EXPECT_EQ(faults.faultyNodeCount(), 8);
  for (NodeId id : nodes) EXPECT_TRUE(faults.nodeFaulty(id));
}

TEST(RandomFaults, RespectsCountAndConnectivity) {
  const TorusTopology topo(8, 2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FaultSet faults(topo);
    Rng rng(seed);
    const auto placed = applyRandomNodeFaults(faults, 5, rng);
    EXPECT_EQ(placed.size(), 5u);
    EXPECT_EQ(faults.faultyNodeCount(), 5);
    EXPECT_TRUE(healthyNetworkConnected(faults));
  }
}

TEST(RandomFaults, ZeroCountIsNoop) {
  const TorusTopology topo(4, 2);
  FaultSet faults(topo);
  Rng rng(1);
  EXPECT_TRUE(applyRandomNodeFaults(faults, 0, rng).empty());
  EXPECT_EQ(faults.faultyNodeCount(), 0);
}

TEST(RandomFaults, RejectsImpossibleCounts) {
  const TorusTopology topo(4, 2);
  FaultSet faults(topo);
  Rng rng(1);
  EXPECT_THROW(applyRandomNodeFaults(faults, -1, rng), std::invalid_argument);
  EXPECT_THROW(applyRandomNodeFaults(faults, 16, rng), std::invalid_argument);
}

TEST(RandomFaults, RejectsCountsThatExhaustTheHealthyNodes) {
  // 12 of 16 nodes already failed by a region: four more random faults would
  // leave none healthy, and the draw could never finish.
  const TorusTopology topo(4, 2);
  FaultSet faults(topo);
  (void)applyRegion(faults, makeSpec(RegionShape::Rect, 4, 3, topo));
  ASSERT_EQ(faults.faultyNodeCount(), 12);
  Rng rng(1);
  EXPECT_THROW(applyRandomNodeFaults(faults, 4, rng), std::runtime_error);
  EXPECT_THROW(applyRandomNodeFaults(faults, 9, rng), std::runtime_error);
}

TEST(Regions, RejectsOutOfTorusAnchorOffThePlane) {
  const TorusTopology topo(4, 3);
  RegionSpec s = makeSpec(RegionShape::U, 2, 2, topo);
  s.anchor[2] = 40;
  EXPECT_THROW(regionNodes(topo, s), std::invalid_argument);
  s.anchor[2] = 3;
  s.anchor[0] = 9;  // in-plane digits wrap
  EXPECT_NO_THROW(regionNodes(topo, s));
}

TEST(RandomFaults, StacksOnExistingFaultsWithoutOverlap) {
  const TorusTopology topo(8, 2);
  FaultSet faults(topo);
  faults.failNode(0);
  Rng rng(3);
  const auto placed = applyRandomNodeFaults(faults, 4, rng);
  EXPECT_EQ(faults.faultyNodeCount(), 5);
  for (NodeId id : placed) EXPECT_NE(id, 0u);
}

}  // namespace
}  // namespace swft
