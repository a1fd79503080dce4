// The per-cycle wormhole pipeline: generation/injection, route computation +
// virtual-channel allocation, switch allocation + link traversal, ejection.
//
// Timing model (paper assumptions (f), (g)): routing decisions take Td
// cycles (0 in all paper experiments); a flit crosses one link per cycle
// when the downstream buffer has a free slot. A flit that arrived in cycle t
// becomes eligible to depart in cycle t+1, which yields exactly one
// cycle/hop end to end.
//
// This file is the event-sparse production engine: the generation heap
// yields only due PEs, the nodeWork_ bitset yields only PEs with
// queued/streaming messages, and the arena's active set yields only routers
// with any occupied input unit. The dense reference engine (the seed
// implementation) lives in engine_dense.cpp.
//
// The sparse walks visit exactly the nodes whose step functions would do
// observable work, in exactly the order the dense sweep visits them — so the
// two engines draw the same RNG sequences and produce bit-identical results
// (enforced by tests/test_engine_equivalence.cpp). Invariant for future
// edits: activity tracking may skip provably-dead work, never reorder or
// change live work.
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/sim/engine_mt.hpp"
#include "src/sim/link_qual.hpp"
#include "src/sim/network.hpp"
#include "src/util/simd.hpp"

namespace swft {

void Network::advanceCycle() {
  if (cfg_.engine == EngineKind::SparseMt) {
    mt_->advanceCycle();
  } else {
    advanceCycleSparse();
  }
}

void Network::endCycle() noexcept {
  ++cycle_;
  // Keep the arena's 32-bit push stamps from wrapping round to look fresh
  // (router_arena.hpp).
  if ((cycle_ & (RouterArena::kMaxStampAge - 1)) == 0) {
    arena_.renormaliseStamps(cycle_);
  }

  // Deadlock watchdog (invariant: must never fire; see tests).
  if (inFlight() > 0 && cycle_ - lastMovementCycle_ > cfg_.deadlockWindow) {
    deadlockSuspected_ = true;
  }
}

void Network::advanceCycleSparse() {
  PhaseClock clock(phaseShard(0));
  // Phase 1a: generation, due PEs only. The heap orders (cycle, id) pairs,
  // so this cycle's due PEs pop ascending by id — the order the dense sweep
  // would reach them — and the global generation sequence numbers match.
  // A re-pushed PE is due strictly later, so it cannot pop again here.
  // Generation touches no injection state of *other* nodes, so running all
  // generations before all injections is observationally identical to the
  // dense gen/inj interleave.
  assert(genHeap_.empty() || genHeap_.top().first >= cycle_);
  while (!genHeap_.empty() && genHeap_.top().first == cycle_) {
    const NodeId id = genHeap_.top().second;
    genHeap_.pop();
    stepGeneration(id);
    const std::uint64_t next = nodes_[id].nextGenCycle;
    if (next != ~std::uint64_t{0}) genHeap_.emplace(next, id);
  }

  clock.mark(PhaseBreakdown::kGen);
  // Phase 1b: injection, only PEs with queued or streaming work, ascending.
  // stepInjection on a workless node is a no-op with no RNG draws, so the
  // conservative bitset (cleared lazily here) cannot change results. A PE
  // streaming into a full injection buffer keeps its bit: its retry draws
  // no RNG and changes no state, exactly like the dense sweep's.
  // (stepInjection never marks work on other nodes, so the skip over zero
  // words cannot miss a bit set mid-walk.)
  for (std::size_t w = simd::findNonZero(nodeWork_.data(), 0, nodeWork_.size());
       w < nodeWork_.size();
       w = simd::findNonZero(nodeWork_.data(), w + 1, nodeWork_.size())) {
    std::uint64_t bits = nodeWork_[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      stepInjection(id);
      if (nodeIdle(id)) nodeWork_[w] &= ~(1ULL << b);
    }
  }

  clock.mark(PhaseBreakdown::kInj);
  // Phase 2+3: walk the live active set in the alternating sweep direction.
  // stepRouter can activate a *downstream* router mid-sweep (a flit pushed
  // into a previously-empty buffer); the dense sweep visits such a router
  // if and only if it lies later in sweep order, so the walk re-reads the
  // current word after every step instead of iterating a stale snapshot.
  // The scan to the next nonzero word is safe for the same reason the
  // per-word re-read is: a mid-sweep activation the dense sweep would visit
  // lies *later* in sweep order than the router that caused it, i.e. at or
  // after the scan position; a word skipped as zero can only have gained
  // bits the dense sweep would also skip this cycle.
  const std::vector<std::uint64_t>& active = arena_.activeWords();
  const bool forward = (cycle_ & 1) == 0;
  if (forward) {
    for (std::size_t w = simd::findNonZero(active.data(), 0, active.size());
         w < active.size();
         w = simd::findNonZero(active.data(), w + 1, active.size())) {
      std::uint64_t bits = active[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        stepRouter(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = (b == 63) ? 0 : (active[w] & (~0ULL << (b + 1)));
      }
    }
  } else {
    for (std::size_t w = simd::findNonZeroDown(active.data(), active.size() - 1);
         w != simd::kNone;
         w = (w == 0) ? simd::kNone : simd::findNonZeroDown(active.data(), w - 1)) {
      std::uint64_t bits = active[w];
      while (bits) {
        const int b = 63 - std::countl_zero(bits);
        stepRouter(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = active[w] & ((1ULL << b) - 1);
      }
    }
  }
  clock.mark(PhaseBreakdown::kWalk);
}

std::uint32_t Network::queueMessage(NodeId src, NodeId dest, int length,
                                    RoutingMode mode) {
  if (genSeq_ == kMaxMessages) {
    throw std::runtime_error("Network: more than " + std::to_string(kMaxMessages) +
                             " messages generated in one run (message sequence "
                             "numbers are 32 bits; the limit is 2^32-1)");
  }
  const std::uint32_t seq = genSeq_++;
  nodes_[src].sourceQueue.push_back(
      QueuedMessage{cycle_, dest, seq, static_cast<std::uint16_t>(length), mode});
  markNodeWork(src);
  ++generatedTotal_;
  return seq;
}

MsgId Network::takeQueuedMessage(NodeId id) {
  RingQueue<QueuedMessage>& queue = nodes_[id].sourceQueue;
  const QueuedMessage q = queue.front();
  queue.pop_front();
  const MsgId msgId = pool_.allocate();
  Message& m = pool_.get(msgId);
  m.src = id;
  m.finalDest = q.dest;
  m.curTarget = q.dest;
  m.seq = q.seq;
  m.genCycle = q.genCycle;
  m.length = q.length;
  m.mode = q.mode;
  return msgId;
}

void Network::stepGeneration(NodeId id) {
  NodeState& node = nodes_[id];
  while (node.nextGenCycle <= cycle_) {
    const NodeId dest = traffic_.pickDestination(id, node.rng);
    node.nextGenCycle += node.rng.geometric(cfg_.injectionRate);
    if (dest == kInvalidNode) continue;  // permutation maps to self/faulty
    queueMessage(id, dest, cfg_.messageLength, cfg_.routing);
    if (!windowOpen_ && genSeq_ >= cfg_.warmupMessages) {
      windowOpen_ = true;
      windowStartCycle_ = cycle_;
    }
  }
}

void Network::stepInjection(NodeId id) {
  NodeState& node = nodes_[id];
  const int injPort = topo_.localPort();

  // Pick the next message to stream: absorbed messages have priority over
  // new messages (paper §4, starvation prevention). Peek, don't pop — if
  // every injection VC turns out to be busy the message must stay exactly
  // where it is, keeping its readyCycle and its absorbed-over-new priority.
  // A new message gets its pool slot only once a VC is chosen.
  if (node.streaming == kInvalidMsg) {
    const bool fromSwQueue =
        !node.swQueue.empty() && node.swQueue.front().readyCycle <= cycle_;
    if (!fromSwQueue && node.sourceQueue.empty()) return;
    // Choose an injection VC whose buffer is empty; rotate the start index
    // (one RNG draw, unsigned arithmetic) to spread successive messages
    // over the V injection buffers.
    const auto start = static_cast<std::uint32_t>(engineRng_.next() >> 32);
    int chosenVc = -1;
    for (int i = 0; i < cfg_.vcs; ++i) {
      const int vc = static_cast<int>((start + static_cast<std::uint32_t>(i)) %
                                      static_cast<std::uint32_t>(cfg_.vcs));
      const int g = arena_.unitIndex(id, injPort, vc);
      if (arena_.empty(g) && !arena_.routed(g)) {
        chosenVc = vc;
        break;
      }
    }
    if (chosenVc < 0) return;  // all injection buffers busy: retry next cycle
    MsgId next;
    if (fromSwQueue) {
      next = node.swQueue.front().msg;
      node.swQueue.pop_front();
    } else {
      next = takeQueuedMessage(id);
    }
    node.streaming = next;
    node.streamVc = chosenVc;
    node.nextFlit = 0;
    Message& m = pool_.get(next);
    m.resetTransit();  // fresh network segment: wrap classes reset
    m.flitsEjected = 0;
    m.headerArrival = cycle_;  // the chosen unit is empty: the header goes in now
    node.streamLen = m.length;  // flit kinds need no pool access per flit
  }

  // Stream one flit per cycle (injection channel bandwidth, assumption (g)).
  // The flit kind is flitKindAt over the cached stream length, so body/tail
  // flits touch no pool state at all.
  const int unitIdx = arena_.unitIndex(id, injPort, node.streamVc);
  if (arena_.full(unitIdx)) return;
  const int idx = node.nextFlit;
  Flit f;
  f.msg = node.streaming;
  f.kind = flitKindAt(idx, node.streamLen);
  arena_.push(id, unitIdx, f, cycle_);
  lastMovementCycle_ = cycle_;
  if (trace_ != nullptr && idx == 0) {
    const Message& m = pool_.get(node.streaming);
    trace_->record({m.absorptions > 0 ? TraceEvent::Kind::Reinject
                                      : TraceEvent::Kind::Inject,
                    cycle_, id, 0, m.seq});
  }
  ++node.nextFlit;
  if (f.isTail()) {
    node.streaming = kInvalidMsg;
    node.streamVc = -1;
  }
}

void Network::routeHeader(NodeId id, int unitIdx) {
  const int g = arena_.base(id) + unitIdx;
  const MsgId msgId = arena_.front(g).msg;
  // Under sparse-mt the parallel step may already hold this decision.
  if (mt_ != nullptr) {
    if (const MtEngine::RouteCard* card = mt_->takeCard(id, g, cycle_)) {
      assert(card->msg == msgId && "route card for a different front message");
      applyRouteDecision(id, unitIdx, msgId, card->dec);
      return;
    }
  }
  applyRouteDecision(id, unitIdx, msgId, computeRoute(pool_.get(msgId), id));
}

RouteDecision Network::computeRoute(const Message& msg, NodeId id) const {
  // Pure: routing functions take the message and network state by const
  // reference and draw no RNG, which is what lets the sparse-mt engine
  // precompute decisions in its parallel phase (DESIGN.md §6).
  if (msg.curTarget == id) return RouteDecision::deliver();
  if (msg.mode == RoutingMode::Adaptive) return duato_.route(msg, id, faults_, part_);
  return ecube_.route(msg, id, faults_, part_);
}

void Network::applyRouteDecision(NodeId id, int unitIdx, MsgId msgId,
                                 const RouteDecision& decision) {
  switch (decision.kind) {
    case RouteDecision::Kind::Deliver:
      arena_.allocateRoute(id, unitIdx, topo_.localPort(), 0);
      return;
    case RouteDecision::Kind::Absorb: {
      // The required outgoing channel leads to a fault: eject here and hand
      // the message to the messaging layer (assumption (i)).
      Message& msg = pool_.get(msgId);
      msg.blockedValid = true;
      msg.blockedDim = decision.blockedDim;
      msg.blockedDirStep = decision.blockedDirStep;
      arena_.allocateRoute(id, unitIdx, topo_.localPort(), 0);
      return;
    }
    case RouteDecision::Kind::Forward:
      break;
  }

  // Virtual-channel allocation: collect free output VCs over all candidates
  // and pick one at random (assumption (e): "chooses randomly one of the
  // available virtual channels ... that brings it closer to its destination").
  // The per-port free-VC bitmask (bit set = VC unclaimed) makes that one AND
  // per candidate instead of per-VC owner probes; bit iteration visits VCs
  // in ascending order, matching the dense reference's scan (and hence its
  // RNG draw) exactly.
  InlineVector<std::uint16_t, 128> free;  // encoded port * 16 + vc
  for (const RouteCandidate& cand : decision.candidates) {
    std::uint32_t avail = cand.vcs & arena_.freeVcMask(id, cand.outPort);
    while (avail != 0 && free.size() < free.capacity()) {
      const int vc = std::countr_zero(avail);
      avail &= avail - 1;
      free.push_back(static_cast<std::uint16_t>(cand.outPort * 16 + vc));
    }
    if (free.size() == free.capacity()) break;
  }
  // All admissible VCs busy: park the header. Its retry would compute the
  // same route (computeRoute is pure) and fail again, drawing no RNG, until
  // one of this router's output VCs is released — which wakes it.
  if (free.empty()) {
    arena_.park(id, unitIdx);
    return;
  }
  const std::uint16_t pick =
      free[engineRng_.uniform(static_cast<std::uint32_t>(free.size()))];
  const int outPort = pick / 16;
  const int outVc = pick % 16;
  arena_.allocateRoute(id, unitIdx, outPort, outVc);
  arena_.claimVc(id, outPort, outVc);
}

void Network::stepRouter(NodeId id) {
  const int localPort = networkPorts_;
  const auto td = static_cast<std::uint32_t>(cfg_.routerDecisionTime);
  const int routerBase = arena_.base(id);
  const int occW = arena_.occWordsPerRouter();
  const std::uint64_t* occ = arena_.occWords(id);

  // Phase A: route computation + VC allocation for occupied unrouted heads,
  // in ascending unit order. This is the only RNG-drawing part of a router
  // step, so the order must match the dense reference scan exactly. Parked
  // headers are skipped: their retry is dead work (applyRouteDecision).
  const std::uint64_t* routedW = arena_.routedWords(id);
  const std::uint64_t* parkedW = arena_.parkedWords(id);
  for (int w = 0; w < occW; ++w) {
    std::uint64_t bits = occ[w] & ~routedW[w] & ~parkedW[w];
    while (bits) {
      const int unitIdx = w * 64 + std::countr_zero(bits);
      bits &= bits - 1;
      const int g = routerBase + unitIdx;
      if (!arena_.front(g).isHeader()) continue;
      if (td != 0 && cycle_ - pool_.get(arena_.front(g).msg).headerArrival < td) {
        continue;  // Td model
      }
      routeHeader(id, unitIdx);
    }
  }

  // Phase B: the batched link pass. One pass per output link, ascending port
  // order with the ejection port last: qualification (link_qual.hpp) reads
  // each live candidate's freshness and downstream size and buckets the
  // qualified ones per output port, then each live port's first qualified
  // candidate in circular round-robin order from the port cursor — exactly
  // the min-key winner of the dense reference's full scan — commits.
  //
  // Reading every qualification from pre-commit state is legal because
  // links of one router cannot interfere: a commit on port p pops a unit
  // that requests only p (route words are per-unit), pushes into
  // neighbor(id, p)'s input port p^1 while port q's credit line lives at
  // neighbor(id, q)'s input port q^1 (distinct unless p == q, even when both
  // ports reach the same neighbor on a radix-2 ring), and cursors are
  // per-port. Hence every eligibility probe reads exactly the state the
  // dense engine's select-all-then-commit pass would read. The ejection port
  // commits last so software-layer RNG draws (absorption replanning) stay
  // in the dense engine's position in the stream.
  const int ports = localPort + 1;
  std::uint64_t okp[kOkpCapacity];
  std::uint64_t pm =
      qualifyLinkCandidates(arena_, id, cachedDownBaseRow(id), cycle_, okp, ports);
  const int unitCount = arena_.unitsPerRouter();
  while (pm != 0) {
    const int port = std::countr_zero(pm);
    pm &= pm - 1;
    const int winnerIdx = circularFirst(okp + port, ports, occW, arena_.cursor(id, port));
    if (port == localPort) {
      arena_.setCursor(id, port,
                       static_cast<std::uint16_t>(
                           winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
      ejectFlit(id, winnerIdx);
    } else {
      commitLink(id, port, winnerIdx);
    }
  }
}

inline void Network::commitLink(NodeId id, int port, int winnerIdx) {
  const int unitCount = arena_.unitsPerRouter();
  arena_.setCursor(id, port,
                   static_cast<std::uint16_t>(
                       winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
  const int g = arena_.base(id) + winnerIdx;
  const int outVc = arena_.outVc(g);
  const Flit flit = arena_.pop(id, g);
  lastMovementCycle_ = cycle_;
  const NodeId down = cachedNeighbor(id, port);

  // Only headers touch Message state on a link traversal: body/tail flits
  // skip the (random-access) pool load entirely.
  if (flit.isHeader()) {
    Message& msg = pool_.get(flit.msg);
    ++msg.hops;
    msg.headerArrival = cycle_;
    if (stepWraps(dirOfPort(port), id, down)) msg.setWrapped(dimOfPort(port));
    if (trace_ != nullptr) {
      trace_->record({TraceEvent::Kind::Hop, cycle_, id,
                      static_cast<std::uint8_t>(port), msg.seq});
    }
  }
  arena_.push(down, cachedDownBase(id, port) + outVc, flit, cycle_);

  if (flit.isTail()) {
    arena_.releaseRoute(id, winnerIdx);
    arena_.releaseVc(id, port, outVc);
  }
}

inline void Network::ejectFlit(NodeId id, int unitIdx) {
  const int g = arena_.base(id) + unitIdx;
  const Flit flit = arena_.pop(id, g);
  lastMovementCycle_ = cycle_;

#ifndef NDEBUG
  // flitsEjected feeds only the partial-ejection assert in finalizeEjected;
  // body/tail ejections need no pool access in release builds.
  ++pool_.get(flit.msg).flitsEjected;
#endif
  if (flit.isTail()) {
    arena_.releaseRoute(id, unitIdx);
    finalizeEjected(id, flit.msg);
  }
}

void Network::finalizeEjected(NodeId id, MsgId msgId) {
  Message& msg = pool_.get(msgId);
  assert(msg.flitsEjected == msg.length && "partial message ejected");

  const bool software = msg.blockedValid || (msg.absorbAtTarget && msg.curTarget == id);
  if (trace_ != nullptr) {
    trace_->record({software ? TraceEvent::Kind::Absorb : TraceEvent::Kind::Deliver,
                    cycle_, id, 0, msg.seq});
  }
  if (!software) {
    // Final delivery: the last data flit reached the destination PE.
    assert(id == msg.finalDest);
    ++deliveredTotal_;
    if (windowOpen_) ++deliveredInWindow_;
    if (msg.seq >= cfg_.warmupMessages) {
      ++deliveredMeasured_;
      latency_.add(static_cast<double>(cycle_ - msg.genCycle));
      hops_.add(static_cast<double>(msg.hops));
    }
    pool_.release(msgId);
    return;
  }

  // Software absorption: the messaging layer rewrites the header and queues
  // the message for re-injection after Δ cycles (assumption (i)).
  if (msg.absorptions == 0) ++absorbedMessages_;
  software_.planReroute(msg, id, engineRng_);
  scheduleReinjection(id, msgId);
}

void Network::scheduleReinjection(NodeId id, MsgId msgId) {
  nodes_[id].swQueue.push_back(
      PendingReinjection{msgId, cycle_ + static_cast<std::uint64_t>(cfg_.reinjectDelay)});
  markNodeWork(id);
}

}  // namespace swft
