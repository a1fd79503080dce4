#include "src/sim/router_arena.hpp"

#include <sstream>
#include <stdexcept>

namespace swft {

RouterArena::RouterArena(int nodes, int totalPorts, int networkPorts, int vcs,
                         int bufferDepth)
    : nodes_(nodes),
      totalPorts_(totalPorts),
      networkPorts_(networkPorts),
      vcs_(vcs),
      depth_(bufferDepth),
      unitsPerRouter_(totalPorts * vcs) {
  if (bufferDepth < 1 || bufferDepth > FlitFifo::kMaxDepth) {
    throw std::invalid_argument("RouterArena: buffer depth out of range");
  }
  if (vcs < 1 || vcs > 16) {
    throw std::invalid_argument("RouterArena: VC count out of range");
  }
  const auto stride =
      std::bit_ceil(static_cast<unsigned>(bufferDepth));  // power-of-two ring
  strideLog2_ = std::countr_zero(stride);
  strideMask_ = static_cast<int>(stride) - 1;
  occWords_ = (unitsPerRouter_ + 63) / 64;

  const std::size_t units =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(unitsPerRouter_);
  const std::size_t slots = units << strideLog2_;
  // Filled from one value: resize() would run Flit's and UnitMeta's member
  // initialisers one element at a time.
  flit_.assign(slots, Flit{});
  // One extra always-empty row of V units past the real ones: the credit
  // sink. The engine points the ejection port's "downstream" units here so a
  // credit probe of any port alike reads a never-full size.
  meta_.assign(units + static_cast<std::size_t>(vcs), UnitMeta{});
  route_.resize(units, 0);
  routedMask_.resize(static_cast<std::size_t>(nodes) *
                         static_cast<std::size_t>(occWords_),
                     0);
  parked_.resize(routedMask_.size(), 0);
  freeVc_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(networkPorts),
                 static_cast<std::uint16_t>((1u << vcs) - 1));
  cursor_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(totalPorts),
                 0);
  occ_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(occWords_), 0);
  active_.resize((static_cast<std::size_t>(nodes) + 63) / 64, 0);
}

std::string RouterArena::auditMasks(std::uint64_t lastCycle) const {
  std::ostringstream os;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_); ++id) {
    for (int local = 0; local < unitsPerRouter_; ++local) {
      const int g = base(id) + local;
      const std::size_t w = maskIndex(id, local);
      const std::uint64_t bit = 1ULL << (local & 63);
      const bool occupied = (occ_[w] & bit) != 0;
      // Ages below 2^31 are the only legal ones (class comment); a stamp
      // ahead of lastCycle wraps to an age at or above that.
      if (occupied && static_cast<std::uint32_t>(lastCycle) - meta_[g].lastPush >=
                          (std::uint32_t{1} << 31)) {
        os << "stamp from the future at node " << id << " local " << local
           << ": lastPush=" << meta_[g].lastPush << " last executed cycle "
           << lastCycle;
        return os.str();
      }
      const bool routed = wordRouted(route_[g]);
      if (((routedMask_[w] & bit) != 0) != routed) {
        os << "routed-mask mismatch at node " << id << " local " << local
           << ": routeWord=" << route_[g];
        return os.str();
      }
      if ((parked_[w] & bit) != 0 && (!occupied || routed || !front(g).isHeader())) {
        os << "parked unit at node " << id << " local " << local
           << " is not an occupied unrouted header: size=" << meta_[g].size
           << " routeWord=" << route_[g];
        return os.str();
      }
    }
  }
  return {};
}

void RouterArena::renormaliseStamps(std::uint64_t now) noexcept {
  const auto floor = static_cast<std::uint32_t>(now) - kMaxStampAge;
  for (UnitMeta& m : meta_) {
    if (static_cast<std::uint32_t>(now) - m.lastPush > kMaxStampAge) m.lastPush = floor;
  }
}

}  // namespace swft
