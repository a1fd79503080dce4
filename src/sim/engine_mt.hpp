// Domain-decomposed multithreaded sparse engine (EngineKind::SparseMt).
//
// The torus is partitioned into `simThreads` contiguous node-id domains, one
// persistent worker per domain, and every cycle runs three barrier-separated
// phases (DESIGN.md §6):
//
//   P1 (parallel)  — per-domain *precomputation*. Route cards: for every
//                    occupied, unrouted header front visible at the start of
//                    the cycle, the pure routing function runs and the
//                    decision is stored on a per-router "card". Link cards:
//                    the link-qualification pass (link_qual.hpp) reads each
//                    live unit's front stamp and downstream buffer size in
//                    the start-of-cycle arena, storing per-port
//                    qualified-candidate masks plus the credit-blocked set.
//                    No RNG, no mutation.
//   P2 (ordered)   — the serial "baton": generation, injection, and the
//                    router walk in the exact dense-sweep order. Every RNG
//                    consumer (injection VC rotation, VC allocation,
//                    software replanning) draws at its dense position. The
//                    link pass *validates* the P1 card instead of re-running
//                    it: snapshot-qualified candidates stand as-is (their
//                    credit can only have improved — see the monotonicity
//                    argument in stepRouterMt), snapshot-blocked candidates
//                    re-check against *virtual* buffer sizes (arena size +
//                    pending delta), and only units the card does not cover
//                    (routed this very cycle, or on an uncarded router)
//                    re-qualify from scratch. Winner pops/pushes are
//                    recorded as per-domain commands; per-hop stat updates
//                    and trace events are buffered instead of applied.
//   P3 (parallel)  — per-domain command apply: each domain pops then pushes
//                    its own routers' units and applies its buffered hop
//                    updates (order-insensitive increments on distinct
//                    messages). The main thread flushes the staged trace
//                    events FIFO into the recorder. The only state shared
//                    across a domain boundary is the packed network-level
//                    active bitmap, updated via std::atomic_ref (RouterArena
//                    pushMt/popMt).
//
// The phase split never changes *which* decision is made or *when* a draw
// happens — only where the work runs — so SimResults are bit-identical to
// the dense and sparse engines at every thread count (enforced by
// tests/test_engine_equivalence.cpp, test_engine_mt.cpp and the fuzz
// harness).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/router/flit.hpp"
#include "src/routing/types.hpp"
#include "src/sim/trace.hpp"
#include "src/topology/coordinates.hpp"

namespace swft {

class Network;

/// First node of domain `d` when `nodes` routers are split across `domains`
/// contiguous node-id ranges, balanced to within one node. Domain d covers
/// [mtDomainStart(nodes, domains, d), mtDomainStart(nodes, domains, d + 1)).
[[nodiscard]] constexpr NodeId mtDomainStart(int nodes, int domains, int d) noexcept {
  return static_cast<NodeId>(static_cast<std::int64_t>(nodes) * d / domains);
}

/// Effective domain count for a requested `sim_threads` on `nodes` routers:
/// at least one, at most one per router (every domain must be non-empty).
[[nodiscard]] constexpr int mtEffectiveDomains(int nodes, int simThreads) noexcept {
  return simThreads < 1 ? 1 : (simThreads > nodes ? nodes : simThreads);
}

class MtEngine {
 public:
  MtEngine(Network& net, int simThreads);
  ~MtEngine();
  MtEngine(const MtEngine&) = delete;
  MtEngine& operator=(const MtEngine&) = delete;

  /// One simulation cycle (called from Network::advanceCycle; the cycle
  /// counter increment and the deadlock watchdog are Network::endCycle).
  void advanceCycle();

  [[nodiscard]] int domains() const noexcept { return domains_; }

 private:
  // A precomputed route decision for one occupied, unrouted header front.
  struct PaCand {
    std::int32_t unit;  // global arena unit index
    MsgId msg;
    RouteDecision dec;
  };
  // Deferred arena mutations, queued by the baton, applied in P3 by the
  // domain owning `node` (all pops of a domain apply before its pushes).
  struct PopCmd {
    NodeId node;
    std::int32_t unit;
  };
  struct PushCmd {
    NodeId node;
    std::int32_t unit;
    Flit flit;
  };
  // A header that logically became a unit's front *during* the baton (fresh
  // injection, or a deferred cross-router push into an empty unit): the
  // dense sweep would route it when it reaches the router, so the walk
  // merges these into the router's card span, ascending by unit.
  struct FoldIn {
    std::int32_t unit;
    MsgId msg;
    std::int32_t next;  // intrusive per-router list (foldHead_)
  };
  // A header link traversal whose Message-side bookkeeping (++hops, wrap
  // marking) is deferred to P3. Safe to apply from any thread: a message
  // crosses at most one link per cycle (its header occupies exactly one
  // front), so the records in one cycle target pairwise-distinct messages.
  struct HopRec {
    MsgId msg;
    std::uint8_t dim;
    bool wrapped;
  };
  // A fully precomputed fast-path link commit. Every field is derived in P1
  // from state frozen through P2: the winner's front flit (its unit is
  // popped only at this very commit), its route word (outVc / downstream
  // unit — routed units keep their route until the tail release at their
  // own turn), the downstream arena size (pops and network pushes are
  // deferred to P3), and the wake target (full-at-P1 is the wake
  // precondition, and sizes are frozen). The baton's fast path applies only
  // the serially-ordered effects — sizeDelta_, wake stamps, the
  // virtual-emptiness fold-in probe, cursor writes, tail release — and
  // confirms the span for P3 to pop/push/hop-apply from directly.
  struct CommitRec {
    Flit flit;                // front of `g` at P1
    std::int32_t g;           // popped unit (global index)
    std::int32_t du;          // downstream unit (global index)
    NodeId down;              // downstream router
    std::int32_t wakeNbr;     // upstream feeder to stamp on pop, -1 if none
    std::uint16_t sizeP1du;   // arena size of `du` at P1 (frozen through P2)
    std::uint8_t port;        // output port
    std::uint8_t nextCur;     // round-robin cursor value after this winner
    std::uint8_t winnerIdx;   // in-router unit index of the winner
    std::uint8_t outVc;       // allocated output VC (for the tail release)
    std::uint8_t dim;         // dimension of `port` (wrap marking)
    std::uint8_t flags;       // kCr* bits below
  };
  static constexpr std::uint8_t kCrHeader = 1;    // flit.isHeader()
  static constexpr std::uint8_t kCrTail = 2;      // flit.isTail()
  static constexpr std::uint8_t kCrWrap = 4;      // link wraps `dim`
  static constexpr std::uint8_t kCrInjUnit = 8;   // winner is an injection unit
  static constexpr std::uint8_t kCrCross = 16;    // `down` is in another domain
  static constexpr std::uint8_t kCrEagerHop = 32; // baton applied hops eagerly
  // A baton-confirmed run of CommitRecs (one fast-path router's winners) for
  // P3 to apply: `head` indexes the router's domain's commitStage_ vector.
  struct ConfirmedSpan {
    std::uint32_t head;
    NodeId node;
    std::uint16_t count;
  };

  void workerLoop(int d);
  void launchPhase();
  void awaitWorkers();

  void buildCards(int d);      // P1 for one domain: route cards
  void buildLinkCards(int d);  // P1 for one domain: link + commit cards
  void baton();                // P2, main thread only
  void applyCommands(int d);   // P3 for one domain
  void resetSizeDeltas();      // zero sizeDelta_ via the cycle's commands

  void stepRouterMt(NodeId id);
  void commitLinkMt(NodeId id, int port, int winnerIdx);
  void ejectFlitMt(NodeId id, int unitIdx);
  void deferPush(NodeId node, std::int32_t unit, Flit f);
  void wakeUpstream(NodeId id, int unitIdx);
  void addFoldIn(NodeId node, std::int32_t unit, MsgId msg);
  [[nodiscard]] bool creditAvailable(std::int32_t downUnit) const noexcept;

  Network& net_;
  int domains_;
  std::vector<NodeId> domStart_;          // domains_ + 1 fenceposts
  std::vector<std::uint16_t> domainOf_;   // node -> owning domain

  // P1 output: per-domain card vectors. The per-router spans into them live
  // in the shared per-router metadata block (kMCard / kMCardCyc below).
  std::vector<std::vector<PaCand>> cards_;

  // P1 card output. Per router, one cache-line-aligned 8-word metadata
  // block (lqMeta_, the 64-byte-aligned view of lqMetaStore_) holding both
  // the route-card span and — for occW == 1 configurations (lqEnabled_) —
  // the link-card words, so a baton turn probes a single line. The link
  // slow path additionally reads this router's row of per-port
  // qualified-candidate masks (lqOk_, stride lqPorts_), and may mutate it
  // in place — rows are rebuilt next P1.
  // Block layout:
  //   [kMCyc]     cycle + 1 validity stamp (same trick as cardCycle_)
  //   [kMWake]    cycle + 1 if a baton pop freed credit one of this
  //               router's blocked candidates might wait on (wakeUpstream;
  //               written and read by the baton thread only)
  //   [kMLive]    live mask at P1 — exactly qualified ∪ blocked, because
  //               the freshness test is vacuous at P1, so the baton's
  //               uncovered-units fixup mask is one AND-NOT away
  //   [kMBlocked] live candidates the snapshot rejected *only* for credit
  //               (the baton re-checks exactly these, and only when woken)
  //   [kMPm]      ports-with-candidates mask
  //   [kMWin]     precomputed winners: kMPm in bits 0..8, then the rotated
  //               round-robin winner unit of port p in bits 9+6p..14+6p
  //               (cursors mutate only at the owning router's baton turn,
  //               so P1 sees exactly the value the turn will use). Only
  //               written when lqWinPack_ — the layout fits 9 ports, i.e.
  //               tori up to 4 dimensions; beyond that the baton falls back
  //               to scanning the card rows.
  //   [kMCard]    route-card span: head index into the owning domain's
  //               cards_ vector in bits 16.., entry count in bits 0..15
  //   [kMCardCyc] cycle + 1 validity stamp for kMCard
  static constexpr int kMCyc = 0, kMWake = 1, kMLive = 2, kMBlocked = 3,
                       kMPm = 4, kMWin = 5, kMCard = 6, kMCardCyc = 7,
                       kMStride = 8;
  bool lqEnabled_ = false;
  bool lqWinPack_ = false;
  int lqPorts_ = 0;
  int injUnitFloor_ = 0;             // networkPorts * vcs, hoisted
  std::vector<std::uint8_t> portOfUnit_;  // unit-in-router -> input port
  std::vector<std::uint64_t> lqOk_;
  std::vector<std::uint64_t> lqMetaStore_;
  std::uint64_t* lqMeta_ = nullptr;

  // P1 staged commits (lqWinPack_ only): per-domain CommitRec vectors, the
  // per-router span word (head << 16 | count, valid under the same kMCyc
  // stamp as the link card), and the baton's per-domain confirmed lists.
  // Only fast-path turns confirm their span; a woken or widened router falls
  // back to commitLinkMt and its staged recs go unused.
  std::vector<std::vector<CommitRec>> commitStage_;
  std::vector<std::uint64_t> commitSpan_;
  std::vector<std::vector<ConfirmedSpan>> confirmed_;

  // Baton output: per-domain command queues and the per-unit size delta the
  // virtual credit checks read (pending pushes minus pending pops).
  std::vector<std::vector<PopCmd>> pops_;
  std::vector<std::vector<PushCmd>> pushes_;
  std::vector<std::int16_t> sizeDelta_;

  // Baton output, deferred sinks: per-domain hop records applied by the
  // domain's P3 worker, and the trace staging buffer the main thread
  // flushes (FIFO, so the recorder sees the exact dense emission order)
  // while P3 runs. Installed as Network::traceSink_ for the whole run —
  // every mt trace emission happens on the baton thread.
  std::vector<std::vector<HopRec>> hopDeferred_;
  TraceBuffer traceStage_;

  // The baton's view of the router active set: the arena bitmap copied
  // after injection, with bits OR-ed in as deferred pushes activate empty
  // routers mid-walk (matching the dense visit-iff-later-in-sweep rule).
  std::vector<std::uint64_t> batonActive_;
  std::vector<FoldIn> folds_;
  std::vector<std::int32_t> foldHead_;   // node -> first fold index, -1 none
  std::vector<NodeId> foldTouched_;      // for O(touched) reset
  std::vector<std::pair<NodeId, std::int32_t>> injFolds_;

  // Barrier state: `epoch_` counts launched phases (odd = P1, even = P3);
  // workers spin (with yield) until it advances, run their slice, and bump
  // `arrived_`. T == 1 runs everything inline with no workers.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> arrived_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace swft
