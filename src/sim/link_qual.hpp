// The link-candidate qualification of the sparse engine's router step
// (engine.cpp).
//
// A routed unit's front crosses its link this cycle when it arrived in an
// earlier cycle and the downstream VC buffer it feeds has a free slot (paper
// §5.1 assumptions (f)/(g)):
//
//   frontAge(u, cycle) != 0  &&  size(downBase[outPort(u)] + outVc(u)) != depth
//
// Two scalar reads per candidate, straight from arena state. (A nonzero
// 32-bit stamp age means "arrived before cycle"; router_arena.hpp keeps
// ages exact.) The ejection port's downstream is the arena's always-empty
// credit sink, so an ejection candidate passes the credit read without a
// locality branch.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "src/sim/router_arena.hpp"

namespace swft {

/// One pass over router `id`'s live candidates (occupied and routed units)
/// for single-occupancy-word routers. `downBase[p]` is the arena index of
/// the first downstream unit reached through port p (the credit sink for
/// the ejection port). Qualified candidate bits land in okp[port] (all
/// `ports` rows assigned — callers need no zeroing prelude), and the
/// returned mask has bit `port` set iff the port has at least one qualified
/// candidate.
[[gnu::always_inline]] inline std::uint64_t qualifyLinkCandidates(
    const RouterArena& a, NodeId id, const std::int32_t* downBase,
    std::uint64_t cycle, std::uint64_t* okp, int ports) {
  assert(a.occWordsPerRouter() == 1);
  for (int p = 0; p < ports; ++p) okp[p] = 0;
  const int routerBase = a.base(id);
  const std::uint32_t* rw = a.routeRow(routerBase);
  const int depth = a.depth();
  std::uint64_t pm = 0;
  std::uint64_t live = a.occWords(id)[0] & a.routedWords(id)[0];
  while (live != 0) {
    const int u = std::countr_zero(live);
    live &= live - 1;
    const std::uint32_t r = rw[u];
    const int port = RouterArena::wordOutPort(r);
    const auto arrived =
        static_cast<std::uint64_t>(a.frontAge(routerBase + u, cycle) != 0);
    const auto credit = static_cast<std::uint64_t>(
        a.size(downBase[port] + RouterArena::wordOutVc(r)) != depth);
    const std::uint64_t q = arrived & credit;
    okp[port] |= q << u;
    pm |= q << port;
  }
  return pm;
}

/// The same predicate for one output port of a multi-word router (more than
/// 64 input units): the first of the port's requesters in circular
/// round-robin order from the port cursor whose front arrived before `cycle`
/// and whose downstream unit (`downBase + outVc`) is not full, or -1 when
/// none does.
[[gnu::always_inline]] inline int firstLinkWinner(const RouterArena& a, NodeId id,
                                                  int port, std::int32_t downBase,
                                                  std::uint64_t cycle) {
  const int occW = a.occWordsPerRouter();
  const int depth = a.depth();
  const int routerBase = a.base(id);
  const std::uint32_t* rw = a.routeRow(routerBase);
  const std::uint64_t* req = a.portMembers(id, port);
  const std::uint64_t* occ = a.occWords(id);
  const int cur = a.cursor(id, port);
  const int cw = cur >> 6;
  const int cb = cur & 63;
  for (int k = 0; k <= occW; ++k) {
    int w = cw + k;
    if (w >= occW) w -= occW;
    std::uint64_t m = req[w] & occ[w];
    if (k == 0) {
      m &= ~0ULL << cb;
    } else if (k == occW) {
      m &= (cb == 0) ? 0 : ((1ULL << cb) - 1);  // wrapped tail of cursor word
    }
    while (m != 0) {
      const int u = w * 64 + std::countr_zero(m);
      m &= m - 1;
      if (a.frontAge(routerBase + u, cycle) != 0 &&
          a.size(downBase + RouterArena::wordOutVc(rw[u])) != depth) {
        return u;
      }
    }
  }
  return -1;
}

}  // namespace swft
