// The sparse-mt cycle: parallel route precomputation (P1), the ordered
// serial baton (P2), parallel per-domain command apply (P3). See
// engine_mt.hpp and DESIGN.md §6 for the phase contract and the equivalence
// argument; the baton's router step mirrors Network::stepRouter
// (engine.cpp) with pops/pushes deferred and credit checks virtualised.
#include "src/sim/engine_mt.hpp"

#include <bit>
#include <cassert>

#include "src/sim/link_qual.hpp"
#include "src/sim/network.hpp"

// Per-phase wall-clock breakdown is a *runtime* option now (`phase_timers=1`,
// `swft_bench --phase-timers`): every engine thread owns one PhaseBreakdown
// shard in Network::phaseShards_ (slot = domain index, the baton thread is
// slot 0) and charges it through a PhaseClock, a no-op when the flag is off.
// Workers only ever write their own slot; the engine's barriers order those
// writes against the main thread's reads. The old SWFT_PHASE_TIMERS
// compile-time define is gone.

namespace swft {

namespace {

// Spin with a yield fallback: on machines with fewer cores than domains
// (including the single-core CI runner) the yield lets the scheduler run
// whichever thread holds the next phase.
inline void spinPause(int& spins) {
  if (++spins > 64) std::this_thread::yield();
}

}  // namespace

MtEngine::MtEngine(Network& net, int simThreads)
    : net_(net),
      domains_(mtEffectiveDomains(net.arena_.nodes(), simThreads)) {
  const int nodes = net_.arena_.nodes();
  domStart_.resize(static_cast<std::size_t>(domains_) + 1);
  for (int d = 0; d <= domains_; ++d) domStart_[d] = mtDomainStart(nodes, domains_, d);
  domainOf_.resize(static_cast<std::size_t>(nodes));
  for (int d = 0; d < domains_; ++d) {
    for (NodeId id = domStart_[d]; id < domStart_[d + 1]; ++id) {
      domainOf_[id] = static_cast<std::uint16_t>(d);
    }
  }
  cards_.resize(static_cast<std::size_t>(domains_));
  pops_.resize(static_cast<std::size_t>(domains_));
  pushes_.resize(static_cast<std::size_t>(domains_));
  sizeDelta_.resize(
      static_cast<std::size_t>(net_.arena_.creditSinkBase() + net_.arena_.vcs()), 0);
  foldHead_.resize(static_cast<std::size_t>(nodes), -1);
  hopDeferred_.resize(static_cast<std::size_t>(domains_));
  // One 64-byte-aligned 8-word metadata block per router (route-card span
  // always; link-card words when enabled), so a baton turn probes a single
  // cache line.
  lqMetaStore_.resize(static_cast<std::size_t>(nodes) * kMStride + kMStride, 0);
  const auto addr = reinterpret_cast<std::uintptr_t>(lqMetaStore_.data());
  lqMeta_ = lqMetaStore_.data() + ((64 - addr % 64) % 64) / sizeof(std::uint64_t);
  // Link cards exist only for the single-occupancy-word configurations the
  // batched pass covers; the generic multi-word path re-qualifies in the
  // baton as before.
  injUnitFloor_ = net_.networkPorts_ * net_.cfg_.vcs;
  portOfUnit_.resize(static_cast<std::size_t>(net_.arena_.unitsPerRouter()));
  for (int u = 0; u < net_.arena_.unitsPerRouter(); ++u) {
    portOfUnit_[static_cast<std::size_t>(u)] =
        static_cast<std::uint8_t>(u / net_.cfg_.vcs);
  }
  lqEnabled_ = net_.arena_.occWordsPerRouter() == 1;
  if (lqEnabled_) {
    lqPorts_ = net_.arena_.totalPorts();
    lqWinPack_ = lqPorts_ <= 9;  // 9 pm bits + 9 * 6 winner bits = 63
    lqOk_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(lqPorts_), 0);
  }
  commitStage_.resize(static_cast<std::size_t>(domains_));
  confirmed_.resize(static_cast<std::size_t>(domains_));
  if (lqWinPack_) commitSpan_.resize(static_cast<std::size_t>(nodes), 0);
  // One timer slot per domain (slot 0 = the baton thread). Must be sized
  // before the workers spawn — it is never resized mid-run.
  if (net_.cfg_.phaseTimers) {
    net_.phaseShards_.resize(static_cast<std::size_t>(domains_));
  }
  // All mt trace emission happens on the baton thread; stage it there and
  // flush into the recorder while P3 runs (advanceCycle).
  net_.traceSink_ = &traceStage_;
  workers_.reserve(static_cast<std::size_t>(domains_ - 1));
  for (int d = 1; d < domains_; ++d) {
    workers_.emplace_back([this, d] { workerLoop(d); });
  }
}

MtEngine::~MtEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  net_.traceSink_ = nullptr;
}

void MtEngine::workerLoop(int d) {
  std::uint64_t next = 1;
  PhaseClock clock(net_.phaseShard(static_cast<std::size_t>(d)));
  for (;;) {
    clock.reset();
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) < next) spinPause(spins);
    clock.mark(PhaseBreakdown::kBarrier);
    if (stop_.load(std::memory_order_relaxed)) return;
    if ((next & 1) != 0) {
      buildCards(d);
      clock.mark(PhaseBreakdown::kCards);
      buildLinkCards(d);
      clock.mark(PhaseBreakdown::kLinkQual);
    } else {
      applyCommands(d);
      clock.mark(PhaseBreakdown::kCommit);
    }
    arrived_.fetch_add(1, std::memory_order_release);
    ++next;
  }
}

void MtEngine::launchPhase() { epoch_.fetch_add(1, std::memory_order_release); }

void MtEngine::awaitWorkers() {
  const int expected = static_cast<int>(workers_.size());
  int spins = 0;
  while (arrived_.load(std::memory_order_acquire) != expected) spinPause(spins);
  arrived_.store(0, std::memory_order_relaxed);
}

void MtEngine::resetSizeDeltas() {
  for (const auto& q : pops_)
    for (const PopCmd& c : q) sizeDelta_[c.unit] = 0;
  for (const auto& q : pushes_)
    for (const PushCmd& c : q) sizeDelta_[c.unit] = 0;
  for (std::size_t d = 0; d < confirmed_.size(); ++d) {
    const std::vector<CommitRec>& stage = commitStage_[d];
    for (const ConfirmedSpan& s : confirmed_[d]) {
      const CommitRec* r = stage.data() + s.head;
      for (int i = 0; i < s.count; ++i) {
        sizeDelta_[r[i].g] = 0;
        sizeDelta_[r[i].du] = 0;
      }
    }
  }
}

void MtEngine::advanceCycle() {
  for (auto& q : pops_) q.clear();
  for (auto& q : pushes_) q.clear();
  for (auto& q : confirmed_) q.clear();
  PhaseClock clock(net_.phaseShard(0));

  if (workers_.empty()) {
    buildCards(0);
    clock.mark(PhaseBreakdown::kCards);
    buildLinkCards(0);
    clock.mark(PhaseBreakdown::kLinkQual);
    baton();  // charges kGen/kInj/kWalk on slot 0 itself
    clock.reset();
    resetSizeDeltas();
    applyCommands(0);
    if (net_.trace_ != nullptr) traceStage_.flushTo(*net_.trace_);
    clock.mark(PhaseBreakdown::kCommit);
    return;
  }

  launchPhase();  // P1
  buildCards(0);
  clock.mark(PhaseBreakdown::kCards);
  buildLinkCards(0);
  clock.mark(PhaseBreakdown::kLinkQual);
  awaitWorkers();
  clock.mark(PhaseBreakdown::kBarrier);

  baton();  // P2; charges kGen/kInj/kWalk on slot 0 itself
  clock.reset();

  launchPhase();  // P3
  // Reset the deltas while the workers commit: P3 never reads them, and the
  // command lists and confirmed stages are read-only on both sides.
  // Double-zeroing a unit that was both popped and pushed is harmless.
  resetSizeDeltas();
  applyCommands(0);
  // Flush the staged trace events while the workers are still committing:
  // the recorder's hash-map inserts overlap P3 instead of stretching the
  // serial baton. Only this thread ever touches the stage or the recorder.
  if (net_.trace_ != nullptr) traceStage_.flushTo(*net_.trace_);
  clock.mark(PhaseBreakdown::kCommit);
  awaitWorkers();
  clock.mark(PhaseBreakdown::kBarrier);
}

void MtEngine::buildCards(int d) {
  Network& n = net_;
  const RouterArena& a = n.arena_;
  std::vector<PaCand>& cand = cards_[d];
  cand.clear();
  const std::uint64_t cycle = n.cycle_;
  const auto td = static_cast<std::uint64_t>(n.cfg_.routerDecisionTime);
  const NodeId lo = domStart_[d];
  const NodeId hi = domStart_[d + 1];
  const std::vector<std::uint64_t>& active = a.activeWords();
  const int occW = a.occWordsPerRouter();

  const std::size_t wLo = static_cast<std::size_t>(lo) >> 6;
  const std::size_t wHi = (static_cast<std::size_t>(hi) + 63) >> 6;
  for (std::size_t w = wLo; w < wHi; ++w) {
    std::uint64_t bits = active[w];
    if (w == wLo && (lo & 63) != 0) bits &= ~0ULL << (lo & 63);
    if (w == wHi - 1 && (hi & 63) != 0) bits &= (1ULL << (hi & 63)) - 1;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      const int routerBase = a.base(id);
      const std::uint64_t* occ = a.occWords(id);
      const std::uint64_t* routedW = a.routedWords(id);
      const std::size_t begin = cand.size();
      for (int ow = 0; ow < occW; ++ow) {
        std::uint64_t units = occ[ow] & ~routedW[ow];
        while (units != 0) {
          const int unitIdx = ow * 64 + std::countr_zero(units);
          units &= units - 1;
          const int g = routerBase + unitIdx;
          const Flit& front = a.front(g);
          if (!front.isHeader()) continue;
          if (td != 0 && a.frontArrival(g) + td > cycle) continue;
          cand.push_back({static_cast<std::int32_t>(g), front.msg,
                          n.computeRoute(n.pool_.get(front.msg), id)});
        }
      }
      if (cand.size() != begin) {
        std::uint64_t* meta =
            lqMeta_ + static_cast<std::size_t>(id) * kMStride;
        meta[kMCard] =
            (static_cast<std::uint64_t>(begin) << 16) | (cand.size() - begin);
        meta[kMCardCyc] = cycle + 1;
      }
    }
  }
}

void MtEngine::buildLinkCards(int d) {
  if (!lqEnabled_) return;
  Network& n = net_;
  const RouterArena& a = n.arena_;
  const std::uint64_t cycle = n.cycle_;
  const auto fullDepth = static_cast<std::uint16_t>(a.depth());
  const int unitCount = a.unitsPerRouter();
  const int localPort = n.networkPorts_;
  const NodeId lo = domStart_[d];
  const NodeId hi = domStart_[d + 1];
  const std::vector<std::uint64_t>& active = a.activeWords();
  std::vector<CommitRec>& stage = commitStage_[d];
  stage.clear();

  const std::size_t wLo = static_cast<std::size_t>(lo) >> 6;
  const std::size_t wHi = (static_cast<std::size_t>(hi) + 63) >> 6;
  for (std::size_t w = wLo; w < wHi; ++w) {
    std::uint64_t bits = active[w];
    if (w == wLo && (lo & 63) != 0) bits &= ~0ULL << (lo & 63);
    if (w == wHi - 1 && (hi & 63) != 0) bits &= (1ULL << (hi & 63)) - 1;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      const std::uint64_t live = a.occWords(id)[0] & a.routedWords(id)[0];
      if (live == 0) continue;
      const int routerBase = a.base(id);
      std::uint64_t* okp = lqOk_.data() +
                           static_cast<std::size_t>(id) *
                               static_cast<std::size_t>(lqPorts_);
      // P1 runs against the post-commit arena with every sizeDelta_ zero, so
      // the arena *is* the snapshot: every front arrived in an earlier cycle
      // (the arrival read is vacuous here), and the arena sizes are the
      // downstream credit. The blocked word is exactly the credit-starved
      // candidate set, which the baton re-checks against virtual credits.
      std::uint64_t* meta = lqMeta_ + static_cast<std::size_t>(id) * kMStride;
      std::uint64_t blocked = 0;
      const std::uint64_t pm = qualifyLinkCandidates(
          a, id, n.cachedDownBaseRow(id), cycle, okp, lqPorts_, &blocked);
      // Resolve each port's round-robin winner now: the cursor is only
      // written at the owning router's baton turn, so the value P1 reads is
      // the value the turn would read, and qualified candidates never drop
      // out mid-baton (credit is monotone). The baton takes these winners
      // verbatim unless a wake or a newly-routed unit widens the field.
      if (lqWinPack_) {
        std::uint64_t pw = pm & 0x1ffULL;
        const auto head = static_cast<std::uint64_t>(stage.size());
        std::uint64_t m = pm;
        while (m != 0) {
          const int p = std::countr_zero(m);
          m &= m - 1;
          const int cur = a.cursor(id, p);
          const std::uint64_t rot = std::rotr(okp[p], cur);
          const int win = (cur + std::countr_zero(rot)) & 63;
          pw |= static_cast<std::uint64_t>(win) << (9 + 6 * p);
          if (p == localPort) continue;  // ejections stay fully on the baton
          // Stage the winner's whole commit (see CommitRec): every input is
          // frozen through P2 — the front until this very pop, the route
          // word until this very tail release, downstream sizes until P3.
          // Header-only fields (the downstream size probe is the one random
          // load here) stay zero for body/tail flits.
          const int g = routerBase + win;
          const Flit f = a.front(g);
          const std::uint8_t ov = a.outVc(g);
          const std::int32_t du = n.cachedDownBase(id, p) + ov;
          const NodeId down = n.cachedNeighbor(id, p);
          std::uint8_t flags = 0;
          std::uint16_t sizeP1du = 0;
          std::uint8_t dim = 0;
          if (f.isHeader()) {
            flags |= kCrHeader;
            if (n.cachedWrap(id, p)) flags |= kCrWrap;
            sizeP1du = static_cast<std::uint16_t>(a.size(du));
            dim = static_cast<std::uint8_t>(dimOfPort(p));
          }
          if (f.isTail()) flags |= kCrTail;
          if (win >= injUnitFloor_) flags |= kCrInjUnit;
          if (domainOf_[down] != d) flags |= kCrCross;
          std::int32_t wakeNbr = -1;
          if (win < injUnitFloor_ && a.size(g) == fullDepth) {
            wakeNbr = static_cast<std::int32_t>(
                n.cachedNeighbor(id, portOfUnit_[static_cast<std::size_t>(win)]));
          }
          stage.push_back({f, static_cast<std::int32_t>(g), du, down, wakeNbr,
                           sizeP1du, static_cast<std::uint8_t>(p),
                           static_cast<std::uint8_t>(win + 1 == unitCount ? 0 : win + 1),
                           static_cast<std::uint8_t>(win), ov, dim, flags});
        }
        meta[kMWin] = pw;
        commitSpan_[id] = (head << 16) | (stage.size() - head);
      }
      meta[kMLive] = live;
      meta[kMBlocked] = blocked;
      meta[kMPm] = pm;
      meta[kMCyc] = cycle + 1;
    }
  }
}

void MtEngine::baton() {
  Network& n = net_;
  const std::uint64_t cycle = n.cycle_;
  PhaseClock clock(n.phaseShard(0));

  // Generation: identical to the sparse engine (calendar order is ascending
  // node id, the dense position of every generation-side draw).
  for (NodeId id : n.calendar_.takeDue(cycle)) {
    n.stepGeneration(id);
    const std::uint64_t next = n.nodes_[id].nextGenCycle;
    if (next != ~std::uint64_t{0}) n.calendar_.schedule(id, next);
  }
  clock.mark(PhaseBreakdown::kGen);

  // Injection: identical to the sparse engine, with the fold-in sink
  // attached so freshly injected headers reach the router walk below.
  // Injection pushes stay eager — injection units are never the downstream
  // end of a network link, so no deferred push can race them.
  injFolds_.clear();
  n.injFoldSink_ = &injFolds_;
  for (std::size_t w = 0; w < n.nodeWork_.size(); ++w) {
    std::uint64_t bits = n.nodeWork_[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      if (n.stepInjection(id)) n.nodeWork_[w] &= ~(1ULL << b);
    }
  }
  n.injFoldSink_ = nullptr;
  clock.mark(PhaseBreakdown::kInj);

  // The walk's active view: the arena bitmap after injection, extended
  // mid-walk as deferred pushes activate empty routers (addFoldIn).
  const std::vector<std::uint64_t>& active = n.arena_.activeWords();
  batonActive_.assign(active.begin(), active.end());
  for (const auto& [id, unit] : injFolds_) {
    addFoldIn(id, unit, n.arena_.front(unit).msg);
  }

  // Router walk in the alternating sweep direction, re-reading the current
  // word after every step so routers activated mid-walk are visited if and
  // only if they lie later in sweep order — exactly the dense rule.
  const bool forward = (cycle & 1) == 0;
  if (forward) {
    for (std::size_t w = 0; w < batonActive_.size(); ++w) {
      std::uint64_t bits = batonActive_[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        stepRouterMt(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = (b == 63) ? 0 : (batonActive_[w] & (~0ULL << (b + 1)));
      }
    }
  } else {
    for (std::size_t w = batonActive_.size(); w-- > 0;) {
      std::uint64_t bits = batonActive_[w];
      while (bits) {
        const int b = 63 - std::countl_zero(bits);
        stepRouterMt(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = batonActive_[w] & ((1ULL << b) - 1);
      }
    }
  }

  // Reset the per-router fold lists (O(touched)).
  for (NodeId id : foldTouched_) foldHead_[id] = -1;
  foldTouched_.clear();
  folds_.clear();
  clock.mark(PhaseBreakdown::kWalk);
}

void MtEngine::applyCommands(int d) {
  RouterArena& a = net_.arena_;
  const std::uint64_t cycle = net_.cycle_;
  const std::vector<CommitRec>& stage = commitStage_[d];
  // All pops before all pushes: a winner's pop may be what frees the slot a
  // same-cycle push into the same unit needs (the virtual size already
  // proved the combined result fits).
  for (const PopCmd& c : pops_[d]) (void)a.popMt(c.node, c.unit, cycle);
  for (const ConfirmedSpan& s : confirmed_[d]) {
    const CommitRec* r = stage.data() + s.head;
    for (int i = 0; i < s.count; ++i) (void)a.popMt(s.node, r[i].g, cycle);
  }
  for (const PushCmd& c : pushes_[d]) a.pushMt(c.node, c.unit, c.flit, cycle);
  for (const ConfirmedSpan& s : confirmed_[d]) {
    const CommitRec* r = stage.data() + s.head;
    for (int i = 0; i < s.count; ++i) {
      // Cross-domain pushes were re-queued on the owner's pushes_ by the
      // baton; everything else lands on this domain's own routers.
      if ((r[i].flags & kCrCross) == 0) {
        a.pushMt(r[i].down, r[i].du, r[i].flit, cycle);
      }
      // Staged hop bookkeeping, unless the baton applied it eagerly for a
      // virtually-empty downstream (kCrEagerHop). Distinct messages per
      // record, same argument as hopDeferred_ below.
      if ((r[i].flags & (kCrHeader | kCrEagerHop)) == kCrHeader) {
        Message& msg = net_.pool_.get(r[i].flit.msg);
        ++msg.hops;
        if ((r[i].flags & kCrWrap) != 0) msg.setWrapped(r[i].dim);
      }
    }
  }
  // Deferred hop bookkeeping: each record targets a distinct Message (one
  // link crossing per message per cycle), so the per-domain applies commute
  // and nothing reads hops/wrapped until after the P3 barrier.
  for (const HopRec& h : hopDeferred_[d]) {
    Message& msg = net_.pool_.get(h.msg);
    ++msg.hops;
    if (h.wrapped) msg.setWrapped(h.dim);
  }
  hopDeferred_[d].clear();
}

bool MtEngine::creditAvailable(std::int32_t downUnit) const noexcept {
  return net_.arena_.size(downUnit) + sizeDelta_[downUnit] != net_.arena_.depth();
}

void MtEngine::wakeUpstream(NodeId id, int unitIdx) {
  // A snapshot-blocked candidate can unblock mid-baton only if the router
  // owning its full downstream unit pops that unit first (arena sizes are
  // frozen during P2, and the only pusher into the unit is the candidate's
  // own router, which has not taken its turn yet). Stamp the upstream
  // feeder of the popped unit so only woken routers re-check their blocked
  // set; a wake landing on an already-visited or inactive router is
  // harmless — the stamp expires with the cycle.
  if (!lqEnabled_) return;
  if (unitIdx >= injUnitFloor_) return;  // injection units feed no link
  const int port = portOfUnit_[static_cast<std::size_t>(unitIdx)];
  // Only a pop out of a *snapshot-full* unit can unblock anyone (sizes are
  // frozen until P3, so a unit not full at P1 is not full at any turn).
  const int g = net_.arena_.base(id) + unitIdx;
  if (net_.arena_.size(g) != net_.arena_.depth()) return;
  lqMeta_[static_cast<std::size_t>(net_.cachedNeighbor(id, port)) * kMStride +
          kMWake] = net_.cycle_ + 1;
}

void MtEngine::addFoldIn(NodeId node, std::int32_t unit, MsgId msg) {
  if (foldHead_[node] < 0) foldTouched_.push_back(node);
  folds_.push_back({unit, msg, foldHead_[node]});
  foldHead_[node] = static_cast<std::int32_t>(folds_.size()) - 1;
  batonActive_[static_cast<std::size_t>(node) >> 6] |= 1ULL << (node & 63);
}

void MtEngine::deferPush(NodeId node, std::int32_t unit, Flit f) {
  // A header landing in a *virtually* empty unit becomes the unit's front:
  // fold it into the downstream router's candidate set (body/tail flits
  // never route, and a non-empty unit's front is unchanged by the push).
  if (f.isHeader() &&
      net_.arena_.size(unit) + sizeDelta_[unit] == 0) {
    addFoldIn(node, unit, f.msg);
  }
  pushes_[domainOf_[node]].push_back({node, unit, f});
  ++sizeDelta_[unit];
}

void MtEngine::stepRouterMt(NodeId id) {
  Network& n = net_;
  RouterArena& a = n.arena_;
  const std::uint64_t cycle = n.cycle_;
  const int localPort = n.networkPorts_;
  const auto td = static_cast<std::uint64_t>(n.cfg_.routerDecisionTime);
  const int routerBase = a.base(id);
  const int occW = a.occWordsPerRouter();
  const std::uint64_t* occ = a.occWords(id);
  const std::uint64_t* routedW = a.routedWords(id);
  const std::uint64_t* meta = lqMeta_ + static_cast<std::size_t>(id) * kMStride;

  // Phase A: the precomputed card span merged with this cycle's fold-ins,
  // ascending by unit — exactly the dense occupied-unrouted-header scan.
  // Card units are untouched since P1 (pops happen only at the owning
  // router's turn, which is now), so applying the stored decision here is
  // the dense computation moved earlier, not a stale one.
  {
    constexpr int kMaxFolds = 2 * kMaxDims + 2;  // one per input port + injection
    struct FoldRef {
      std::int32_t unit;
      MsgId msg;
    };
    FoldRef foldArr[kMaxFolds];
    int nf = 0;
    for (std::int32_t i = foldHead_[id]; i >= 0; i = folds_[i].next) {
      assert(nf < kMaxFolds);
      foldArr[nf++] = {folds_[i].unit, folds_[i].msg};
    }
    for (int i = 1; i < nf; ++i) {  // intrusive list is LIFO; restore ascending
      const FoldRef key = foldArr[i];
      int j = i - 1;
      for (; j >= 0 && foldArr[j].unit > key.unit; --j) foldArr[j + 1] = foldArr[j];
      foldArr[j + 1] = key;
    }
    const PaCand* c = nullptr;
    const PaCand* cEnd = nullptr;
    if (meta[kMCardCyc] == cycle + 1) {
      const std::vector<PaCand>& vec = cards_[domainOf_[id]];
      c = vec.data() + (meta[kMCard] >> 16);
      cEnd = c + (meta[kMCard] & 0xffffULL);
    }
    int fi = 0;
    while (c != cEnd || fi != nf) {
      if (fi != nf && (c == cEnd || foldArr[fi].unit < c->unit)) {
        const FoldRef f = foldArr[fi++];
        // Fold-in fronts arrived this very cycle: with Td > 0 they are not
        // yet eligible (the dense engine skips them the same way).
        if (td != 0) continue;
        n.applyRouteDecision(id, f.unit - routerBase, f.msg,
                             n.computeRoute(n.pool_.get(f.msg), id));
      } else {
        n.applyRouteDecision(id, c->unit - routerBase, c->msg, c->dec);
        ++c;
      }
    }
  }

  // Phase B: the batched link pass, mirroring Network::stepRouter with the
  // qualification *validated* from the P1 link card instead of re-run, and
  // with winner pops/pushes deferred to P3.
  //
  // The card stays valid because nothing a baton does before this router's
  // own turn can change its candidates: fronts and route words of its units
  // mutate only at its own turn (pops, releaseRoute), pushes never change a
  // non-empty unit's front, and a candidate's downstream credit can only
  // *improve* — the sole pusher into its downstream unit is this router
  // itself (output-VC ownership pins the unit's incoming link to this
  // router's port), while earlier routers' pops free slots. Hence:
  // snapshot-qualified candidates stand as-is; snapshot-blocked ones (which
  // failed only the credit probe — freshness is vacuous at P1) re-check
  // credit against the virtual sizes (arena + pending delta); and only
  // units the card does not cover — routed in Phase A just now, or on a
  // router that had no live unit at P1 — qualify from scratch. Deferred
  // pushes never create a same-cycle candidate (their occupancy bit is
  // still clear), and eager injection pushes carry this cycle's arrival
  // stamp, failing freshness exactly as in the dense engine.
  const std::uint32_t* rw = a.routeRow(routerBase);

  if (occW == 1) {
    std::uint64_t okpLocal[64];
    std::uint64_t* okp;
    std::uint64_t pm = 0;
    std::uint64_t covered = 0;
    const int unitCount = a.unitsPerRouter();
    if (meta[kMCyc] == cycle + 1) {
      covered = meta[kMLive];
      const bool woken = meta[kMWake] == cycle + 1;
      if (lqWinPack_ && !woken && ((occ[0] & routedW[0]) & ~covered) == 0) {
        // Fast path: nothing changed since P1 — no pop woke this router
        // (every snapshot-blocked candidate's downstream is still exactly
        // full, see wakeUpstream) and no unit joined the field (Phase A
        // routed nothing new, no push landed on a front). The qualified
        // set, the winners, and their staged commits are the card's
        // verbatim; apply only the serially-ordered effects here and leave
        // the pops/pushes/hop records for P3 to take from the stage.
        const std::uint64_t span = commitSpan_[id];
        const int cnt = static_cast<int>(span & 0xffff);
        CommitRec* rec = commitStage_[domainOf_[id]].data() + (span >> 16);
        for (int i = 0; i < cnt; ++i) {
          CommitRec& r = rec[i];
          a.setCursor(id, r.port, r.nextCur);
          --sizeDelta_[r.g];
          if (r.wakeNbr >= 0) {
            lqMeta_[static_cast<std::size_t>(r.wakeNbr) * kMStride + kMWake] =
                cycle + 1;
          }
          if ((r.flags & kCrInjUnit) != 0) n.markNodeWork(id);
          if ((r.flags & kCrHeader) != 0) {
            if (r.sizeP1du + sizeDelta_[r.du] == 0) {
              // Virtually empty downstream: the header becomes its front and
              // may route later this baton — hops/wrap cannot be deferred.
              Message& msg = n.pool_.get(r.flit.msg);
              ++msg.hops;
              if ((r.flags & kCrWrap) != 0) msg.setWrapped(r.dim);
              addFoldIn(r.down, r.du, r.flit.msg);
              r.flags |= kCrEagerHop;
            }
            if (n.trace_ != nullptr) {
              n.emitTrace({TraceEvent::Kind::Hop, cycle, id, r.port,
                           n.pool_.get(r.flit.msg).seq});
            }
          }
          if ((r.flags & kCrCross) != 0) {
            // Cross-domain push: P3 applies a unit's pops and pushes on its
            // owner's worker, so route it through the classic queue.
            pushes_[domainOf_[r.down]].push_back({r.down, r.du, r.flit});
          }
          ++sizeDelta_[r.du];
          if ((r.flags & kCrTail) != 0) {
            a.releaseRoute(id, r.winnerIdx);
            a.setOutOwner(id, r.port, r.outVc, -1);
          }
        }
        if (cnt != 0) {
          n.lastMovementCycle_ = cycle;
          confirmed_[domainOf_[id]].push_back(
              {static_cast<std::uint32_t>(span >> 16), id,
               static_cast<std::uint16_t>(cnt)});
        }
        const std::uint64_t pw = meta[kMWin];
        if (((pw >> localPort) & 1) != 0) {
          const int winnerIdx =
              static_cast<int>((pw >> (9 + 6 * localPort)) & 63ULL);
          a.setCursor(id, localPort,
                      static_cast<std::uint16_t>(
                          winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
          ejectFlitMt(id, winnerIdx);
        }
        return;
      }
      // Slow path: consume the P1 card in place — it is rebuilt from
      // scratch next P1, and nothing else reads it after this router's
      // turn, so the fixup bits below may be OR-ed straight into its rows.
      // kMLive is the covered set in one load (qualified ∪ blocked =
      // live-at-P1).
      okp = lqOk_.data() +
            static_cast<std::size_t>(id) * static_cast<std::size_t>(lqPorts_);
      pm = meta[kMPm];
      // Unwoken routers skip the re-check wholesale: every blocked unit's
      // downstream is still exactly full (see wakeUpstream).
      std::uint64_t retry = woken ? meta[kMBlocked] : 0;
      while (retry != 0) {
        const int u = std::countr_zero(retry);
        retry &= retry - 1;
        const std::uint32_t r = rw[u];
        const int port = RouterArena::wordOutPort(r);
        const std::int32_t du =
            n.cachedDownBase(id, port) + RouterArena::wordOutVc(r);
        const auto q = static_cast<std::uint64_t>(creditAvailable(du));
        okp[port] |= q << u;
        pm |= q << port;
      }
    } else {
      okp = okpLocal;
      for (int p = 0; p <= localPort; ++p) okp[p] = 0;
    }
    std::uint64_t fix = (occ[0] & routedW[0]) & ~covered;
    while (fix != 0) {
      const int u = std::countr_zero(fix);
      fix &= fix - 1;
      const std::uint32_t r = rw[u];
      const int port = RouterArena::wordOutPort(r);
      const std::int32_t du =
          n.cachedDownBase(id, port) + RouterArena::wordOutVc(r);
      const auto q = static_cast<std::uint64_t>(
          (a.frontArrival(routerBase + u) < cycle) & creditAvailable(du));
      okp[port] |= q << u;
      pm |= q << port;
    }
    while (pm != 0) {
      const int port = std::countr_zero(pm);
      pm &= pm - 1;
      const int cur = a.cursor(id, port);
      const std::uint64_t rot = std::rotr(okp[port], cur);
      const int winnerIdx = (cur + std::countr_zero(rot)) & 63;
      if (port == localPort) {
        a.setCursor(id, port,
                    static_cast<std::uint16_t>(
                        winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
        ejectFlitMt(id, winnerIdx);
      } else {
        commitLinkMt(id, port, winnerIdx);
      }
    }
    return;
  }

  // Generic multi-word path (> 64 input units per router): the shared
  // predicate, with credit read from the virtual sizes.
  const int unitCount = a.unitsPerRouter();
  for (int port = 0; port <= localPort; ++port) {
    const int winnerIdx =
        firstLinkWinner(a, id, port, n.cachedDownBase(id, port), cycle,
                        [this](int du) { return creditAvailable(du); });
    if (winnerIdx < 0) continue;
    if (port == localPort) {
      a.setCursor(id, port,
                  static_cast<std::uint16_t>(
                      winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
      ejectFlitMt(id, winnerIdx);
    } else {
      commitLinkMt(id, port, winnerIdx);
    }
  }
}

void MtEngine::commitLinkMt(NodeId id, int port, int winnerIdx) {
  Network& n = net_;
  RouterArena& a = n.arena_;
  const int unitCount = a.unitsPerRouter();
  a.setCursor(id, port,
              static_cast<std::uint16_t>(
                  winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
  const int g = a.base(id) + winnerIdx;
  const int outVc = a.outVc(g);
  const Flit flit = a.front(g);
  pops_[domainOf_[id]].push_back({id, static_cast<std::int32_t>(g)});
  --sizeDelta_[g];
  wakeUpstream(id, winnerIdx);
  n.lastMovementCycle_ = n.cycle_;
  if (winnerIdx >= injUnitFloor_) n.markNodeWork(id);

  const NodeId down = n.cachedNeighbor(id, port);
  const std::int32_t du = n.cachedDownBase(id, port) + outVc;
  if (flit.isHeader()) {
    const bool wrap = n.cachedWrap(id, port);
    const auto dim = static_cast<std::uint8_t>(dimOfPort(port));
    if (a.size(du) + sizeDelta_[du] == 0) {
      // The header becomes the downstream unit's front (deferPush will
      // register the fold-in): the downstream router may route it later
      // this same baton, and routing reads msg.wrapped — so this one
      // Message update cannot be deferred.
      Message& msg = n.pool_.get(flit.msg);
      ++msg.hops;
      if (wrap) msg.setWrapped(dim);
    } else {
      // Common case: the downstream unit already holds flits, so nothing
      // reads this message's hop state before P3 applies the record (a
      // message's tail can never eject in the same cycle its header still
      // crosses a link, and next cycle's P1 route pass runs after P3).
      hopDeferred_[domainOf_[id]].push_back({flit.msg, dim, wrap});
    }
    if (n.trace_ != nullptr) {
      n.emitTrace({TraceEvent::Kind::Hop, n.cycle_, id,
                   static_cast<std::uint8_t>(port), n.pool_.get(flit.msg).seq});
    }
  }
  deferPush(down, du, flit);

  if (flit.isTail()) {
    a.releaseRoute(id, winnerIdx);
    a.setOutOwner(id, port, outVc, -1);
  }
}

void MtEngine::ejectFlitMt(NodeId id, int unitIdx) {
  Network& n = net_;
  RouterArena& a = n.arena_;
  const int g = a.base(id) + unitIdx;
  const Flit flit = a.front(g);
  pops_[domainOf_[id]].push_back({id, static_cast<std::int32_t>(g)});
  --sizeDelta_[g];
  wakeUpstream(id, unitIdx);
  n.lastMovementCycle_ = n.cycle_;
  if (unitIdx >= injUnitFloor_) n.markNodeWork(id);

#ifndef NDEBUG
  ++n.pool_.get(flit.msg).flitsEjected;
#endif
  if (flit.isTail()) {
    a.releaseRoute(id, unitIdx);
    // finalizeEjected runs eagerly on the baton: delivery statistics (the
    // order-sensitive double accumulations) and the software layer's
    // replanning RNG draw happen at the exact dense-sweep position.
    n.finalizeEjected(id, flit.msg);
  }
}

}  // namespace swft
