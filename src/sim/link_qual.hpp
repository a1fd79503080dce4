// The link pass of the sparse engine's router step (engine.cpp): which
// routed units may cross their link this cycle, and which of them wins each
// output port.
//
// A routed unit's front crosses its link this cycle when it arrived in an
// earlier cycle and the downstream VC buffer it feeds has a free slot (paper
// §5.1 assumptions (f)/(g)):
//
//   !frontArrivedIn(u, cycle)  &&  size(downBase[outPort(u)] + outVc(u)) != depth
//
// Two scalar reads per candidate, straight from arena state. (Only a unit's
// latest push can have arrived this cycle, so the front is fresh exactly
// when it is the unit's only flit and its push stamp equals the cycle; see
// router_arena.hpp.) The ejection port's downstream is the arena's always-empty
// credit sink, so an ejection candidate passes the credit read without a
// locality branch. The same pass serves every router width: a router with
// more than 64 input units keeps one qualified-candidate word per port per
// occupancy word.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "src/sim/router_arena.hpp"

namespace swft {

/// Capacity of the `okp` array qualifyLinkCandidates fills: a router has at
/// most 2 kMaxDims + 1 ports and, at RouterArena's 16-VC limit, that many
/// ports x 16 units spread over ceil(units / 64) occupancy words.
inline constexpr int kMaxLinkPorts = 2 * kMaxDims + 1;
inline constexpr int kOkpCapacity = kMaxLinkPorts * ((kMaxLinkPorts * 16 + 63) / 64);

/// One pass over router `id`'s live candidates (occupied and routed units).
/// `downBase[p]` is the arena index of the first downstream unit reached
/// through port p (the credit sink for the ejection port). The qualified
/// candidates of port p in occupancy word w land in okp[w * ports + p], bit
/// (unit & 63); every one of the occWordsPerRouter() x `ports` entries is
/// assigned, so callers need no zeroing prelude. The returned mask has bit
/// `port` set iff the port has at least one qualified candidate.
[[gnu::always_inline]] inline std::uint64_t qualifyLinkCandidates(
    const RouterArena& a, NodeId id, const std::int32_t* downBase,
    std::uint64_t cycle, std::uint64_t* okp, int ports) {
  const int occW = a.occWordsPerRouter();
  assert(ports <= kMaxLinkPorts && occW * ports <= kOkpCapacity);
  for (int i = 0; i < occW * ports; ++i) okp[i] = 0;
  const int routerBase = a.base(id);
  const std::uint32_t* rw = a.routeRow(routerBase);
  const std::uint64_t* occ = a.occWords(id);
  const std::uint64_t* routed = a.routedWords(id);
  const int depth = a.depth();
  std::uint64_t pm = 0;
  for (int w = 0; w < occW; ++w) {
    // Unit b of word w is unit w * 64 + b of the router.
    const int wordBase = routerBase + w * 64;
    const std::uint32_t* wordRoutes = rw + w * 64;
    std::uint64_t* row = okp + w * ports;
    std::uint64_t live = occ[w] & routed[w];
    while (live != 0) {
      const int b = std::countr_zero(live);
      live &= live - 1;
      const std::uint32_t r = wordRoutes[b];
      const int port = RouterArena::wordOutPort(r);
      const auto arrived =
          static_cast<std::uint64_t>(!a.frontArrivedIn(wordBase + b, cycle));
      const auto credit = static_cast<std::uint64_t>(
          a.size(downBase[port] + RouterArena::wordOutVc(r)) != depth);
      const std::uint64_t q = arrived & credit;
      row[port] |= q << b;
      pm |= q << port;
    }
  }
  return pm;
}

/// The first set bit at or after `cursor`, in circular order over the
/// `occW`-word bitset whose word w is `bits[w * stride]` — one port's column
/// of the okp array, so `circularFirst(okp + port, ports, occW, cursor)` is
/// the port's round-robin winner: the min-key candidate of the dense
/// reference's scan. The bitset must not be empty (callers pass only ports
/// whose bit qualifyLinkCandidates returned).
[[gnu::always_inline]] inline int circularFirst(const std::uint64_t* bits, int stride,
                                                int occW, int cursor) {
  if (occW == 1) [[likely]] {  // every router of up to 64 units
    // rotr moves bit u to (u - cursor) mod 64, so the lowest rotated bit is
    // the first one at or after the cursor, wrapping.
    assert(bits[0] != 0);
    return (cursor + std::countr_zero(std::rotr(bits[0], cursor))) & 63;
  }
  const int cw = cursor >> 6;
  const std::uint64_t head = bits[cw * stride] & (~0ULL << (cursor & 63));
  if (head != 0) return cw * 64 + std::countr_zero(head);
  for (int k = 1; k < occW; ++k) {
    const int w = cw + k < occW ? cw + k : cw + k - occW;
    const std::uint64_t m = bits[w * stride];
    if (m != 0) return w * 64 + std::countr_zero(m);
  }
  // Only the cursor word's wrapped tail, below the cursor, is left.
  assert(bits[cw * stride] != 0);
  return cw * 64 + std::countr_zero(bits[cw * stride]);
}

}  // namespace swft
