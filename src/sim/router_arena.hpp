// Contiguous router storage: every input unit of every router in one
// network-owned arena, struct-of-arrays.
//
// The seed engine kept a `std::vector<RouterState>` where each router owned
// its own `std::vector<InputUnit>` — two pointer indirections and a ~272-byte
// stride on every buffer access, including the credit check that `stepRouter`
// performs on *downstream* routers for every link traversal. The arena
// flattens all of it: flit rings, arrival stamps, ring heads/sizes, per-unit
// routing state, free output VCs, round-robin cursors and occupancy bitsets
// live in parallel arrays indexed by a global unit id
//
//   globalUnit = node * unitsPerRouter + port * vcs + vc
//
// so the credit-check fields (`full()` == one byte compare against the shared
// depth, `frontArrivedIn()`) are dense and prefetch-friendly. The arena also
// maintains the network-level active set (one bit per router with any
// occupied input unit) that the event-sparse engine walks with countr_zero;
// push/pop keep the per-router occupancy words, the occupied-unit count and
// the active bit consistent so the engine cannot desynchronise them.
//
// Link qualification reads this state directly (link_qual.hpp): a routed
// unit's front may cross its link when it arrived before the executing cycle
// and the downstream unit it feeds is not full — two scalar reads per
// candidate, the rule of paper assumptions (f)/(g). The only derived mask
// kept beside the route words is routedMask_ (bit per routed unit), written
// exactly where route words are written and cleared; the output port a
// routed unit requests is read from its route word.
//
// Each unit keeps one arrival stamp, `lastPush`: the low 32 bits of the
// cycle of its latest push. That is all the link pass needs. At most one
// flit enters a unit per cycle and arrivals within a unit strictly
// increase, so only the latest push can have arrived in the current cycle:
// the front arrived in cycle `now` exactly when it is the unit's only flit
// and lastPush == uint32_t(now) (frontArrivedIn). The router decision time
// Td asks a different question — how long ago did this header arrive — and
// reads the full-width Message::headerArrival instead. renormaliseStamps,
// run every kMaxStampAge cycles, clamps each stamp older than 2^30 to
// exactly age 2^30, so no stamp's age ever reaches 2^31 and the equality
// never holds by wrap-around.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/router/flit.hpp"
#include "src/topology/coordinates.hpp"

namespace swft {

class RouterArena {
 public:
  RouterArena(int nodes, int totalPorts, int networkPorts, int vcs, int bufferDepth);

  /// renormaliseStamps, which Network::endCycle runs every kMaxStampAge
  /// cycles, clamps stamp ages to this bound.
  static constexpr std::uint32_t kMaxStampAge = std::uint32_t{1} << 30;

  // --- geometry -------------------------------------------------------------
  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  [[nodiscard]] int totalPorts() const noexcept { return totalPorts_; }
  [[nodiscard]] int networkPorts() const noexcept { return networkPorts_; }
  [[nodiscard]] int vcs() const noexcept { return vcs_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] int unitsPerRouter() const noexcept { return unitsPerRouter_; }
  [[nodiscard]] int base(NodeId id) const noexcept {
    return static_cast<int>(id) * unitsPerRouter_;
  }
  [[nodiscard]] int unitIndex(NodeId id, int port, int vc) const noexcept {
    return base(id) + port * vcs_ + vc;
  }

  // --- flit buffers (by global unit index) ----------------------------------
  [[nodiscard]] bool empty(int u) const noexcept { return meta_[u].size == 0; }
  [[nodiscard]] bool full(int u) const noexcept { return meta_[u].size == depth_; }
  [[nodiscard]] int size(int u) const noexcept { return meta_[u].size; }
  [[nodiscard]] const Flit& front(int u) const noexcept {
    return flit_[slot(u, meta_[u].head)];
  }
  /// True iff the front flit arrived in cycle `now` (see the class
  /// comment). The stamp sits beside the ring head/size, so the link pass's
  /// freshness check and the push/pop updates hit the same packed record.
  [[nodiscard]] bool frontArrivedIn(int u, std::uint64_t now) const noexcept {
    const UnitMeta& m = meta_[u];
    return (m.size == 1) & (m.lastPush == static_cast<std::uint32_t>(now));
  }
  /// Low 32 bits of the cycle of the unit's latest push (validation).
  [[nodiscard]] std::uint32_t lastPush(int u) const noexcept { return meta_[u].lastPush; }
  /// i-th buffered flit from the front (introspection/validation).
  [[nodiscard]] const Flit& flitAt(int u, int i) const noexcept {
    return flit_[slot(u, (meta_[u].head + i) & strideMask_)];
  }

  [[nodiscard]] const std::uint32_t* routeRow(int u) const noexcept {
    return route_.data() + u;
  }
  /// Base of the always-empty credit row appended past the real units (see
  /// ctor): size(creditSinkBase() + vc) never reports a full buffer.
  [[nodiscard]] int creditSinkBase() const noexcept {
    return nodes_ * unitsPerRouter_;
  }

  /// Push/pop take the owning router id so the occupancy transition needs
  /// no division; callers always know it (asserted in debug builds).
  ///
  /// push/pop are deliberately branch-poor. At the saturation knee buffer
  /// sizes oscillate around 0..2, so the was-empty / became-empty
  /// transitions are data-dependent coin flips a predictor cannot learn;
  /// every update that depends on them is a mask or a conditional move, not
  /// a branch. The remaining branches are rare and cheap to predict
  /// (whole-router active transitions).
  void push(NodeId node, int u, Flit f, std::uint64_t arrivalCycle) noexcept {
    assert(u >= base(node) && u < base(node) + unitsPerRouter_);
    UnitMeta& m = meta_[u];
    const std::uint16_t was = m.size;
    const int s = slot(u, (m.head + was) & strideMask_);
    flit_[s] = f;
    m.lastPush = static_cast<std::uint32_t>(arrivalCycle);
    m.size = static_cast<std::uint16_t>(was + 1);
    const int local = u - base(node);
    const std::uint64_t bit = 1ULL << (local & 63);
    std::uint64_t& ow = occ_[maskIndex(node, local)];
    const std::uint64_t before = ow;
    ow = before | bit;  // idempotent when already occupied
    // Active transition iff the whole row was zero. The unit's own word
    // screens out almost every push with one already-loaded compare; the
    // remaining words (none for <= 64-unit routers) hide behind the
    // well-predicted rare branch.
    if (before == 0 && rowOtherWordsZero(node, local)) {
      active_[static_cast<std::size_t>(node) >> 6] |= (1ULL << (node & 63));
    }
  }

  Flit pop(NodeId node, int u) noexcept {
    assert(u >= base(node) && u < base(node) + unitsPerRouter_);
    UnitMeta& m = meta_[u];
    const Flit f = flit_[slot(u, m.head)];
    m.head = static_cast<std::uint16_t>((m.head + 1) & strideMask_);
    const std::uint16_t left = static_cast<std::uint16_t>(m.size - 1);
    m.size = left;
    const int local = u - base(node);
    const std::uint64_t fbit = 1ULL << (local & 63);
    const bool emptied = left == 0;
    std::uint64_t& ow = occ_[maskIndex(node, local)];
    const std::uint64_t after =
        ow & ~(fbit & (0 - static_cast<std::uint64_t>(emptied)));
    ow = after;
    // Active transition iff the whole row just became zero (the clear above
    // is a no-op unless `emptied`); same screening as push.
    if (after == 0 && emptied && rowOtherWordsZero(node, local)) {
      active_[static_cast<std::size_t>(node) >> 6] &= ~(1ULL << (node & 63));
    }
    return f;
  }

  // --- per-unit routing state -----------------------------------------------
  // Packed into one word per unit (bit 0: routed, bits 8..15: outPort,
  // bits 16..23: outVc) so the switch-allocation path pays one load, not
  // three. An allocation also sets the unit's routed bit, which the route
  // phase and the link pass scan; `allocateRoute` and `releaseRoute` are the
  // only mutators, keeping word and mask in sync.
  [[nodiscard]] std::uint32_t routeWord(int u) const noexcept { return route_[u]; }
  [[nodiscard]] static bool wordRouted(std::uint32_t w) noexcept { return (w & 1u) != 0; }
  [[nodiscard]] static int wordOutPort(std::uint32_t w) noexcept {
    return static_cast<int>((w >> 8) & 0xFFu);
  }
  [[nodiscard]] static int wordOutVc(std::uint32_t w) noexcept {
    return static_cast<int>((w >> 16) & 0xFFu);
  }
  [[nodiscard]] bool routed(int u) const noexcept { return wordRouted(route_[u]); }
  [[nodiscard]] std::uint8_t outPort(int u) const noexcept {
    return static_cast<std::uint8_t>(wordOutPort(route_[u]));
  }
  [[nodiscard]] std::uint8_t outVc(int u) const noexcept {
    return static_cast<std::uint8_t>(wordOutVc(route_[u]));
  }

  /// The head message of unit `localUnit` at router `node` holds output
  /// (port, vc) from now until `releaseRoute` (tail departure).
  void allocateRoute(NodeId node, int localUnit, int port, int vc) noexcept {
    route_[base(node) + localUnit] = 1u | (static_cast<std::uint32_t>(port) << 8) |
                                     (static_cast<std::uint32_t>(vc) << 16);
    routedMask_[maskIndex(node, localUnit)] |= 1ULL << (localUnit & 63);
  }
  void releaseRoute(NodeId node, int localUnit) noexcept {
    route_[base(node) + localUnit] &= ~1u;
    routedMask_[maskIndex(node, localUnit)] &= ~(1ULL << (localUnit & 63));
  }

  /// Bit per unit: currently routed (holds an output allocation).
  [[nodiscard]] const std::uint64_t* routedWords(NodeId id) const noexcept {
    return routedMask_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(occWords_);
  }

  /// Recompute the routed mask from the route words, check that every
  /// parked unit is occupied, unrouted and fronted by a header, and check
  /// every occupied unit's stamp against `lastCycle`, the last executed
  /// cycle (now() - 1 between cycles, 0 before the first): a flit that
  /// arrived later would qualify a cycle early or never. Returns "" or a description
  /// of the first divergence.
  [[nodiscard]] std::string auditMasks(std::uint64_t lastCycle) const;

  /// Clamp every unit's stamp older than kMaxStampAge, as of cycle
  /// `now`, to exactly that age (see the class comment). Engines call it
  /// every kMaxStampAge cycles; it changes no comparison result.
  void renormaliseStamps(std::uint64_t now) noexcept;

  // --- parked headers -------------------------------------------------------
  /// Bit per unit: an unrouted header whose last VC allocation found no free
  /// output VC. Its retry would fail again until one of the router's output
  /// VCs is released (route computation is pure and a failed allocation
  /// draws no RNG), so the route phase skips it; releaseVc wakes the whole
  /// router.
  [[nodiscard]] const std::uint64_t* parkedWords(NodeId id) const noexcept {
    return parked_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(occWords_);
  }
  void park(NodeId node, int localUnit) noexcept {
    parked_[maskIndex(node, localUnit)] |= 1ULL << (localUnit & 63);
  }

  // --- output VCs (network ports only) -------------------------------------
  /// A header took output VC `vc` of network port `port` of router `id`; it
  /// holds it until its tail departs (releaseVc).
  void claimVc(NodeId id, int port, int vc) noexcept {
    std::uint16_t& m = freeVc_[freeVcIndex(id, port)];
    m = static_cast<std::uint16_t>(m & ~(1u << vc));
  }
  /// The holder's tail departed. A release is the only event that can turn
  /// a failed VC allocation into a success, so it wakes every parked header
  /// of the router.
  void releaseVc(NodeId id, int port, int vc) noexcept {
    freeVc_[freeVcIndex(id, port)] |= static_cast<std::uint16_t>(1u << vc);
    std::uint64_t* row = parked_.data() + static_cast<std::size_t>(id) *
                                              static_cast<std::size_t>(occWords_);
    for (int w = 0; w < occWords_; ++w) row[w] = 0;
  }
  /// Bit per VC of output port `port`: set iff the VC is not claimed, so the
  /// VC-allocation scan ANDs one word instead of probing the VCs one by one.
  /// validateInvariants checks it against the route words: a VC is claimed
  /// iff exactly one routed unit of the router holds it.
  [[nodiscard]] std::uint16_t freeVcMask(NodeId id, int port) const noexcept {
    return freeVc_[freeVcIndex(id, port)];
  }

  // --- round-robin switch-arbitration cursors -------------------------------
  [[nodiscard]] std::uint16_t cursor(NodeId id, int port) const noexcept {
    return cursor_[static_cast<std::size_t>(id) * static_cast<std::size_t>(totalPorts_) +
                   static_cast<std::size_t>(port)];
  }
  void setCursor(NodeId id, int port, std::uint16_t c) noexcept {
    cursor_[static_cast<std::size_t>(id) * static_cast<std::size_t>(totalPorts_) +
            static_cast<std::size_t>(port)] = c;
  }

  // --- occupancy ------------------------------------------------------------
  [[nodiscard]] int occWordsPerRouter() const noexcept { return occWords_; }
  [[nodiscard]] const std::uint64_t* occWords(NodeId id) const noexcept {
    return occ_.data() + static_cast<std::size_t>(id) * static_cast<std::size_t>(occWords_);
  }
  [[nodiscard]] int occupiedUnits(NodeId id) const noexcept {
    int n = 0;
    const std::uint64_t* row = occWords(id);
    for (int w = 0; w < occWords_; ++w) n += std::popcount(row[w]);
    return n;
  }
  [[nodiscard]] bool anyOccupied(NodeId id) const noexcept {
    const std::uint64_t* row = occWords(id);
    for (int w = 0; w < occWords_; ++w) {
      if (row[w] != 0) return true;
    }
    return false;
  }

  /// Network-level active set: bit `id` set iff router `id` has any occupied
  /// input unit. Updated by push/pop; the sparse engine walks it live.
  [[nodiscard]] const std::vector<std::uint64_t>& activeWords() const noexcept {
    return active_;
  }

 private:
  [[nodiscard]] int slot(int u, int ringPos) const noexcept {
    return (u << strideLog2_) + ringPos;
  }
  [[nodiscard]] std::size_t freeVcIndex(NodeId id, int port) const noexcept {
    return static_cast<std::size_t>(id) * static_cast<std::size_t>(networkPorts_) +
           static_cast<std::size_t>(port);
  }
  [[nodiscard]] std::size_t maskIndex(NodeId node, int localUnit) const noexcept {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(occWords_) +
           static_cast<std::size_t>(localUnit >> 6);
  }
  /// True when every occupancy word of `node`'s row except localUnit's own
  /// is zero. Trivially true for single-word routers; only reached on the
  /// rare all-but-this-word-empty paths of push/pop.
  [[nodiscard]] bool rowOtherWordsZero(NodeId node, int localUnit) const noexcept {
    const std::uint64_t* row =
        occ_.data() + static_cast<std::size_t>(node) * static_cast<std::size_t>(occWords_);
    const int own = localUnit >> 6;
    for (int w = 0; w < occWords_; ++w) {
      if (w != own && row[w] != 0) return false;
    }
    return true;
  }

  int nodes_;
  int totalPorts_;
  int networkPorts_;
  int vcs_;
  int depth_;
  int unitsPerRouter_;
  int strideLog2_;   // ring stride = bit_ceil(depth); slots per unit
  int strideMask_;
  int occWords_;     // occupancy words per router

  // Flit rings: slot = (unit << strideLog2) + ringPos.
  std::vector<Flit> flit_;
  // Hot per-unit ring metadata, packed so one cache access serves a whole
  // push or pop (a flit move reads and writes every field; keeping them in
  // parallel arrays cost a separate line touch each). 8-byte stride. The
  // credit sink (vcs entries past the real units, see ctor) rides along
  // with permanently-zero sizes.
  struct UnitMeta {
    std::uint32_t lastPush = 0;  // low 32 bits of the latest push's cycle
    std::uint16_t head = 0;
    std::uint16_t size = 0;
  };
  static_assert(sizeof(UnitMeta) == 8);
  std::vector<UnitMeta> meta_;

  std::vector<std::uint32_t> route_;
  std::vector<std::uint64_t> routedMask_;  // node x occWords
  std::vector<std::uint64_t> parked_;      // node x occWords

  std::vector<std::uint16_t> freeVc_;  // per (node, port): bit vc = unclaimed
  std::vector<std::uint16_t> cursor_;

  std::vector<std::uint64_t> occ_;
  std::vector<std::uint64_t> active_;
};

}  // namespace swft
