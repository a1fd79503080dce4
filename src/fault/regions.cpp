#include "src/fault/regions.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "src/fault/connectivity.hpp"

namespace swft {

std::string_view regionShapeName(RegionShape s) noexcept {
  switch (s) {
    case RegionShape::I: return "I";
    case RegionShape::II: return "II";
    case RegionShape::Rect: return "rect";
    case RegionShape::L: return "L";
    case RegionShape::U: return "U";
    case RegionShape::Plus: return "plus";
    case RegionShape::T: return "T";
    case RegionShape::H: return "H";
  }
  return "?";
}

bool regionIsConvex(RegionShape s) noexcept {
  switch (s) {
    case RegionShape::I:
    case RegionShape::II:
    case RegionShape::Rect:
      return true;
    default:
      return false;
  }
}

std::vector<std::pair<int, int>> regionCells(const RegionSpec& spec) {
  const int w = spec.extent0;
  const int h = spec.extent1;
  if (w < 1 || h < 1) throw std::invalid_argument("regionCells: extents must be >= 1");
  std::set<std::pair<int, int>> cells;
  auto add = [&cells](int x, int y) { cells.emplace(x, y); };

  switch (spec.shape) {
    case RegionShape::I:
      for (int y = 0; y < h; ++y) add(0, y);
      break;
    case RegionShape::II:
      // Two parallel columns with a healthy column between them.
      for (int y = 0; y < h; ++y) {
        add(0, y);
        add(2, y);
      }
      break;
    case RegionShape::Rect:
      for (int x = 0; x < w; ++x)
        for (int y = 0; y < h; ++y) add(x, y);
      break;
    case RegionShape::L:
      // Vertical leg on the left plus horizontal leg along the bottom.
      for (int y = 0; y < h; ++y) add(0, y);
      for (int x = 0; x < w; ++x) add(x, 0);
      break;
    case RegionShape::U:
      // Base along the bottom, arms on both ends pointing up.
      for (int x = 0; x < w; ++x) add(x, 0);
      for (int y = 1; y < h; ++y) {
        add(0, y);
        add(w - 1, y);
      }
      break;
    case RegionShape::Plus: {
      // Two-cell-thick horizontal and vertical bars crossing in the middle.
      if (w < 2 || h < 2) throw std::invalid_argument("plus region needs extents >= 2");
      const int cy = h / 2;
      const int cx = w / 2;
      for (int x = 0; x < w; ++x) {
        add(x, cy - 1);
        add(x, cy);
      }
      for (int y = 0; y < h; ++y) {
        add(cx - 1, y);
        add(cx, y);
      }
      break;
    }
    case RegionShape::T:
      // Horizontal bar along the top plus a stem hanging from its centre.
      for (int x = 0; x < w; ++x) add(x, h);
      for (int y = 0; y < h; ++y) add(w / 2, y);
      break;
    case RegionShape::H:
      // Two vertical legs joined by a crossbar at mid height.
      for (int y = 0; y < h; ++y) {
        add(0, y);
        add(w - 1, y);
      }
      for (int x = 1; x < w - 1; ++x) add(x, h / 2);
      break;
  }
  return {cells.begin(), cells.end()};
}

std::vector<NodeId> regionNodes(const TorusTopology& topo, const RegionSpec& spec) {
  if (spec.dim0 == spec.dim1 || spec.dim0 >= topo.dims() || spec.dim1 >= topo.dims()) {
    throw std::invalid_argument("regionNodes: bad plane dimensions");
  }
  if (spec.anchor.dims() != topo.dims()) {
    throw std::invalid_argument("regionNodes: anchor dimensionality mismatch");
  }
  // In-plane digits wrap around the torus below; the others are used as-is.
  for (int d = 0; d < topo.dims(); ++d) {
    if (d != spec.dim0 && d != spec.dim1 &&
        (spec.anchor[d] < 0 || spec.anchor[d] >= topo.radix())) {
      throw std::invalid_argument("regionNodes: anchor digit outside [0, k)");
    }
  }
  std::vector<NodeId> out;
  for (const auto& [x, y] : regionCells(spec)) {
    Coordinates c = spec.anchor;
    c[spec.dim0] = topo.space().wrap(c[spec.dim0] + x);
    c[spec.dim1] = topo.space().wrap(c[spec.dim1] + y);
    out.push_back(topo.idOf(c));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> applyRegion(FaultSet& faults, const RegionSpec& spec) {
  auto nodes = regionNodes(faults.topology(), spec);
  for (NodeId id : nodes) faults.failNode(id);
  return nodes;
}

namespace {
Coordinates centeredAnchor(const TorusTopology& topo, int spanX, int spanY) {
  Coordinates c;
  c.digit.resize(static_cast<std::size_t>(topo.dims()));
  for (int d = 0; d < topo.dims(); ++d) c[d] = static_cast<std::int16_t>(topo.radix() / 2);
  c[0] = static_cast<std::int16_t>((topo.radix() - spanX) / 2);
  c[1] = static_cast<std::int16_t>((topo.radix() - spanY) / 2);
  return c;
}
}  // namespace

RegionSpec fig5Rect20(const TorusTopology& topo) {
  RegionSpec s;
  s.shape = RegionShape::Rect;
  s.extent0 = 4;
  s.extent1 = 5;  // 4x5 = 20 nodes
  s.anchor = centeredAnchor(topo, 4, 5);
  return s;
}

RegionSpec fig5T10(const TorusTopology& topo) {
  RegionSpec s;
  s.shape = RegionShape::T;
  s.extent0 = 5;
  s.extent1 = 5;  // bar 5 + stem 5 = 10 nodes
  s.anchor = centeredAnchor(topo, 5, 6);
  return s;
}

RegionSpec fig5Plus16(const TorusTopology& topo) {
  RegionSpec s;
  s.shape = RegionShape::Plus;
  s.extent0 = 5;
  s.extent1 = 5;  // 2*5 + 2*5 - 4 = 16 nodes
  s.anchor = centeredAnchor(topo, 5, 5);
  return s;
}

RegionSpec fig5L9(const TorusTopology& topo) {
  RegionSpec s;
  s.shape = RegionShape::L;
  s.extent0 = 5;
  s.extent1 = 5;  // 5 + 5 - 1 = 9 nodes
  s.anchor = centeredAnchor(topo, 5, 5);
  return s;
}

RegionSpec fig5U8(const TorusTopology& topo) {
  RegionSpec s;
  s.shape = RegionShape::U;
  s.extent0 = 4;
  s.extent1 = 3;  // 4 + 2*2 = 8 nodes
  s.anchor = centeredAnchor(topo, 4, 3);
  return s;
}

std::vector<NodeId> applyRandomNodeFaults(FaultSet& faults, int count, Rng& rng,
                                          int maxAttempts) {
  const TorusTopology& topo = faults.topology();
  if (count == 0) return {};
  if (count < 0 || static_cast<NodeId>(count) >= topo.nodeCount()) {
    throw std::invalid_argument("applyRandomNodeFaults: bad count");
  }
  // Faults already in place (regions) may leave fewer healthy nodes than
  // the draw below needs; it would never finish.
  if (count >= static_cast<int>(topo.nodeCount()) - faults.faultyNodeCount()) {
    throw std::runtime_error("applyRandomNodeFaults: " + std::to_string(count) +
                             " random faults would leave no healthy node");
  }
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    // Draw a candidate set, then validate connectivity on a scratch fault set.
    FaultSet trial(topo);
    std::vector<NodeId> chosen;
    chosen.reserve(static_cast<std::size_t>(count));
    while (static_cast<int>(chosen.size()) < count) {
      const NodeId id = rng.uniform(topo.nodeCount());
      if (faults.nodeFaulty(id) || trial.nodeFaulty(id)) continue;
      trial.failNode(id);
      chosen.push_back(id);
    }
    // Also respect pre-existing faults when validating.
    for (NodeId id : faults.faultyNodes()) trial.failNode(id);
    if (!healthyNetworkConnected(trial)) continue;
    for (NodeId id : chosen) faults.failNode(id);
    return chosen;
  }
  throw std::runtime_error("applyRandomNodeFaults: no connected placement found");
}

}  // namespace swft
