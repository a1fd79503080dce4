// The link-candidate qualification pass shared by the sparse engine's
// batched link traversal (engine.cpp, PR 5) and the sparse-mt engine's
// parallel candidate-card precomputation (engine_mt.cpp).
//
// Since the arena keeps freshness, downstream credit and port membership as
// incrementally-maintained bitmaps (router_arena.hpp, DESIGN.md §8), the
// pass is pure word arithmetic — no per-candidate loop, no credit callable:
//
//   ok          = fresh & downOk            (fresh ⊆ occ, downOk ⊆ routed,
//                                            so no extra live AND is needed)
//   okp[port]   = ok & portMembers[port]    (one sweep over the contiguous
//                                            per-port membership rows)
//   blocked     = fresh & routed & ~downOk  (optional: candidates stalled
//                                            only on credit)
//
// The mt engine consumes `blocked` at P1: its baton re-checks exactly those
// bits against virtual credits (size_ + sizeDelta_), keeping the callable
// form off the fast path. A card candidate's credit can only *improve*
// before its router's baton turn (pops by earlier routers free slots; the
// only pusher into its downstream unit is this router itself, by output-VC
// ownership), so qualified-at-snapshot candidates never need re-checking —
// see DESIGN.md §6.
//
// The pass *assigns* okp[0..ports) — callers need no zeroing prelude.
// occW == 1 configurations only (the generic multi-word path ANDs the same
// rows word-by-word in the engines).
#pragma once

#include <cassert>
#include <cstdint>

#include "src/sim/router_arena.hpp"
#include "src/util/simd.hpp"

namespace swft {

/// One pass over router `id`'s qualification bitmaps: qualified candidate
/// bits land in okp[port] (all `ports` rows assigned), and the returned mask
/// has bit `port` set iff the port has at least one qualified candidate.
/// When `blockedOut` is non-null it receives the fresh-but-credit-starved
/// candidate bits. The ejection port's downstream is the arena's credit
/// sink, whose creditOk_ bits are pinned set, so no candidate needs a
/// locality branch.
[[gnu::always_inline]] inline std::uint64_t qualifyLinkCandidates(
    const RouterArena& a, NodeId id, std::uint64_t* okp, int ports,
    std::uint64_t* blockedOut = nullptr) {
  assert(a.occWordsPerRouter() == 1);
  const std::uint64_t fresh = a.freshWords(id)[0];
  const std::uint64_t downOk = a.downOkWords(id)[0];
  const std::uint64_t ok = fresh & downOk;
  if (blockedOut != nullptr) {
    *blockedOut = fresh & a.routedWords(id)[0] & ~downOk;
  }
  return simd::qualifyPorts(ok, a.portMembers(id, 0), okp, ports);
}

}  // namespace swft
