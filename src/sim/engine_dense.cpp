// The dense reference engine: the seed implementation, kept verbatim.
//
// This is the "old path" of the engine-equivalence contract — the seed
// per-cycle pipeline over per-router `RouterState` storage, sweeping every
// node every cycle. It exists for two reasons: the equivalence suite proves
// the event-sparse engine (engine.cpp) bit-identical against it, and the
// kernel_microbench harness uses it as the measured "before" side of the
// perf baseline. Do not optimise this file; it is the yardstick. The only
// deliberate divergences from the seed are the two ISSUE-2 injection fixes
// (peek-don't-pop requeue, single unsigned VC-rotation draw), which both
// engines must share to stay bit-identical.
#include "src/sim/engine_dense.hpp"

#include <bit>
#include <cassert>

namespace swft {

DenseReference::DenseReference(const SimConfig& cfg)
    : net_([single = cfg]() mutable {  // no idle sparse-mt workers
        single.engine = EngineKind::Sparse;
        return single;
      }()),
      routers_(net_.topo_.nodeCount(), RouterState(net_.topo_.totalPorts(),
                                                   net_.topo_.networkPorts(), cfg.vcs,
                                                   cfg.bufferDepth)) {}

void DenseReference::advanceCycleDense() {
  // Phase 1: PEs generate traffic and stream flits into injection VCs.
  for (NodeId id = 0; id < net_.topo_.nodeCount(); ++id) {
    net_.stepGeneration(id);
    stepInjectionDense(id);
  }

  // Phase 2+3 per router. Alternate the sweep direction each cycle so the
  // single-pass commit semantics do not systematically favour low ids.
  const bool forward = (net_.cycle_ & 1) == 0;
  const auto n = static_cast<std::int64_t>(net_.topo_.nodeCount());
  for (std::int64_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(forward ? i : n - 1 - i);
    if (!routers_[id].anyOccupied()) continue;
    stepRouterDense(id);
  }
}

void DenseReference::stepInjectionDense(NodeId id) {
  NodeState& node = net_.nodes_[id];
  RouterState& router = routers_[id];
  const int injPort = net_.topo_.localPort();

  // Pick the next message to stream: absorbed messages have priority over
  // new messages (paper §4, starvation prevention). Peek, don't pop — on a
  // busy-VC retreat the message must keep its queue position and readyCycle.
  if (node.streaming == kInvalidMsg) {
    MsgId next = kInvalidMsg;
    bool fromSwQueue = false;
    if (!node.swQueue.empty() && node.swQueue.front().readyCycle <= net_.cycle_) {
      next = node.swQueue.front().msg;
      fromSwQueue = true;
    } else if (!node.sourceQueue.empty()) {
      next = node.sourceQueue.front();
    }
    if (next == kInvalidMsg) return;
    // Choose an injection VC whose buffer is empty; rotate the start index
    // to spread successive messages over the V injection buffers.
    const auto start = static_cast<std::uint32_t>(net_.engineRng_.next() >> 32);
    int chosenVc = -1;
    for (int i = 0; i < net_.cfg_.vcs; ++i) {
      const int vc = static_cast<int>((start + static_cast<std::uint32_t>(i)) %
                                      static_cast<std::uint32_t>(net_.cfg_.vcs));
      if (router.unit(injPort, vc).buf.empty() && !router.unit(injPort, vc).routed) {
        chosenVc = vc;
        break;
      }
    }
    if (chosenVc < 0) return;  // all injection buffers busy: retry next cycle
    if (fromSwQueue) {
      node.swQueue.pop_front();
    } else {
      node.sourceQueue.pop_front();
    }
    node.streaming = next;
    node.streamVc = chosenVc;
    node.nextFlit = 0;
    Message& m = net_.pool_.get(next);
    m.resetTransit();  // fresh network segment: wrap classes reset
    m.flitsEjected = 0;
    if (m.firstInjectCycle == ~std::uint64_t{0}) m.firstInjectCycle = net_.cycle_;
  }

  // Stream one flit per cycle (injection channel bandwidth, assumption (g)).
  Message& m = net_.pool_.get(node.streaming);
  const int unitIdx = router.unitIndex(injPort, node.streamVc);
  InputUnit& unit = router.unit(unitIdx);
  if (unit.buf.full()) return;
  Flit f;
  f.msg = node.streaming;
  f.kind = m.flitKindAt(node.nextFlit);
  const bool wasEmpty = unit.buf.empty();
  unit.buf.push(f, net_.cycle_);
  if (wasEmpty) router.markOccupied(unitIdx);
  net_.lastMovementCycle_ = net_.cycle_;
  if (net_.trace_ != nullptr && node.nextFlit == 0) {
    net_.trace_->record({m.absorptions > 0 ? TraceEvent::Kind::Reinject
                                           : TraceEvent::Kind::Inject,
                         net_.cycle_, id, 0, m.seq});
  }
  ++node.nextFlit;
  if (f.isTail()) {
    node.streaming = kInvalidMsg;
    node.streamVc = -1;
  }
}

void DenseReference::routeHeaderDense(NodeId id, int unitIdx) {
  RouterState& router = routers_[id];
  InputUnit& unit = router.unit(unitIdx);
  Message& msg = net_.pool_.get(unit.buf.front().msg);

  RouteDecision decision;
  if (msg.curTarget == id) {
    decision = RouteDecision::deliver();
  } else if (msg.mode == RoutingMode::Adaptive) {
    decision = net_.duato_.route(msg, id, net_.faults_, net_.part_);
  } else {
    decision = net_.ecube_.route(msg, id, net_.faults_, net_.part_);
  }

  switch (decision.kind) {
    case RouteDecision::Kind::Deliver:
      unit.routed = true;
      unit.outPort = static_cast<std::uint8_t>(net_.topo_.localPort());
      return;
    case RouteDecision::Kind::Absorb:
      // The required outgoing channel leads to a fault: eject here and hand
      // the message to the messaging layer (assumption (i)).
      msg.blockedValid = true;
      msg.blockedDim = decision.blockedDim;
      msg.blockedDirStep = decision.blockedDirStep;
      unit.routed = true;
      unit.outPort = static_cast<std::uint8_t>(net_.topo_.localPort());
      return;
    case RouteDecision::Kind::Forward:
      break;
  }

  // Virtual-channel allocation: collect free output VCs over all candidates
  // and pick one at random (assumption (e): "chooses randomly one of the
  // available virtual channels ... that brings it closer to its destination").
  InlineVector<std::uint16_t, 128> free;  // encoded port * 16 + vc
  for (const RouteCandidate& cand : decision.candidates) {
    if (free.size() == free.capacity()) break;
    for (int vc = 0; vc < net_.cfg_.vcs; ++vc) {
      if (!(cand.vcs & (1u << vc))) continue;
      if (router.outOwner(cand.outPort, vc) >= 0) continue;
      free.push_back(static_cast<std::uint16_t>(cand.outPort * 16 + vc));
      if (free.size() == free.capacity()) break;
    }
  }
  if (free.empty()) return;  // all admissible VCs busy: retry next cycle
  const std::uint16_t pick =
      free[net_.engineRng_.uniform(static_cast<std::uint32_t>(free.size()))];
  const int outPort = pick / 16;
  const int outVc = pick % 16;
  unit.routed = true;
  unit.outPort = static_cast<std::uint8_t>(outPort);
  unit.outVc = static_cast<std::uint8_t>(outVc);
  router.setOutOwner(outPort, outVc, static_cast<std::int16_t>(unitIdx));
}

void DenseReference::stepRouterDense(NodeId id) {
  RouterState& router = routers_[id];
  const int ports = net_.topo_.totalPorts();
  const int localPort = net_.topo_.localPort();
  const auto td = static_cast<std::uint64_t>(net_.cfg_.routerDecisionTime);

  // Single pass over occupied units: route-compute unrouted headers, then
  // record switch requests; per output port keep the round-robin-best
  // eligible requester. (portOf(dim, opposite(dir)) == port ^ 1.)
  InlineVector<std::int16_t, 2 * kMaxDims + 1> winner;
  InlineVector<std::int16_t, 2 * kMaxDims + 1> winnerKey;
  winner.resize(static_cast<std::size_t>(ports), -1);
  winnerKey.resize(static_cast<std::size_t>(ports), std::int16_t{0x7FFF});

  const auto& occ = router.occupancy();
  const int unitCount = router.unitCount();
  for (int w = 0; w < RouterState::kOccWords; ++w) {
    std::uint64_t bits = occ[w];
    while (bits) {
      const int unitIdx = w * 64 + std::countr_zero(bits);
      bits &= bits - 1;
      InputUnit& unit = router.unit(unitIdx);
      if (!unit.routed) {
        if (!unit.buf.front().isHeader()) continue;
        if (unit.buf.frontArrival() + td > net_.cycle_) continue;  // Td model
        routeHeaderDense(id, unitIdx);
        if (!unit.routed) continue;
      }
      if (unit.buf.frontArrival() >= net_.cycle_) continue;  // arrived this cycle
      const int port = unit.outPort;
      if (port != localPort) {
        // Credit check: the downstream input buffer must have a free slot.
        const RouterState& downRouter = routers_[net_.cachedNeighbor(id, port)];
        if (downRouter.unit((port ^ 1) * net_.cfg_.vcs + unit.outVc).buf.full()) continue;
      }
      // Round-robin key relative to the port cursor (branch beats modulo).
      int key = unitIdx - router.cursor(port);
      if (key < 0) key += unitCount;
      if (key < winnerKey[static_cast<std::size_t>(port)]) {
        winnerKey[static_cast<std::size_t>(port)] = static_cast<std::int16_t>(key);
        winner[static_cast<std::size_t>(port)] = static_cast<std::int16_t>(unitIdx);
      }
    }
  }

  for (int port = 0; port < ports; ++port) {
    const int unitIdx = winner[static_cast<std::size_t>(port)];
    if (unitIdx < 0) continue;
    router.setCursor(port, static_cast<std::uint16_t>((unitIdx + 1) % unitCount));
    if (port == localPort) {
      ejectFlitDense(id, unitIdx);
      continue;
    }
    InputUnit& unit = router.unit(unitIdx);
    const Flit flit = unit.buf.pop();
    if (unit.buf.empty()) router.markEmpty(unitIdx);
    net_.lastMovementCycle_ = net_.cycle_;

    Message& msg = net_.pool_.get(flit.msg);
    if (flit.isHeader()) {
      ++msg.hops;
      if (net_.cachedWrap(id, port)) msg.setWrapped(dimOfPort(port));
      if (net_.trace_ != nullptr) {
        net_.trace_->record({TraceEvent::Kind::Hop, net_.cycle_, id,
                             static_cast<std::uint8_t>(port), msg.seq});
      }
    }
    RouterState& downRouter = routers_[net_.cachedNeighbor(id, port)];
    const int downUnitIdx = downRouter.unitIndex(port ^ 1, unit.outVc);
    InputUnit& downUnit = downRouter.unit(downUnitIdx);
    const bool wasEmpty = downUnit.buf.empty();
    downUnit.buf.push(flit, net_.cycle_);
    if (wasEmpty) downRouter.markOccupied(downUnitIdx);

    if (flit.isTail()) {
      unit.routed = false;
      router.setOutOwner(port, unit.outVc, -1);
    }
  }
}

void DenseReference::ejectFlitDense(NodeId id, int unitIdx) {
  RouterState& router = routers_[id];
  InputUnit& unit = router.unit(unitIdx);
  const Flit flit = unit.buf.pop();
  if (unit.buf.empty()) router.markEmpty(unitIdx);
  net_.lastMovementCycle_ = net_.cycle_;

  Message& msg = net_.pool_.get(flit.msg);
  ++msg.flitsEjected;
  if (flit.isTail()) {
    unit.routed = false;
    net_.finalizeEjected(id, flit.msg);
  }
}

// Seed-shape invariant validation over the RouterState storage (the arena
// validator in network.cpp covers the production engines).
std::string DenseReference::validateInvariants() const {
  const int vcs = net_.cfg_.vcs;
  for (NodeId id = 0; id < net_.topo_.nodeCount(); ++id) {
    const RouterState& router = routers_[id];
    // 1. Occupancy bits mirror buffer emptiness exactly.
    for (int u = 0; u < router.unitCount(); ++u) {
      const bool bit = (router.occupancy()[static_cast<std::size_t>(u) >> 6] >>
                        (u & 63)) & 1u;
      const bool nonEmpty = !router.unit(u).buf.empty();
      if (bit != nonEmpty) {
        return "occupancy bit mismatch at node " + std::to_string(id) + " unit " +
               std::to_string(u);
      }
    }
    // 2. Output-VC ownership: every owner refers to a routed unit whose
    //    allocation points back at exactly that (port, vc).
    for (int port = 0; port < net_.topo_.networkPorts(); ++port) {
      for (int vc = 0; vc < vcs; ++vc) {
        const std::int16_t owner = router.outOwner(port, vc);
        if (owner < 0) continue;
        if (owner >= router.unitCount()) {
          return "out-of-range output owner at node " + std::to_string(id);
        }
        const InputUnit& unit = router.unit(owner);
        if (!unit.routed || unit.outPort != port || unit.outVc != vc) {
          return "inconsistent output ownership at node " + std::to_string(id) +
                 " port " + std::to_string(port) + " vc " + std::to_string(vc);
        }
      }
    }
    // 3. A routed unit targeting a network port must hold that output VC.
    for (int u = 0; u < router.unitCount(); ++u) {
      const InputUnit& unit = router.unit(u);
      if (!unit.routed || unit.outPort == net_.topo_.localPort()) continue;
      if (router.outOwner(unit.outPort, unit.outVc) != static_cast<std::int16_t>(u)) {
        return "routed unit without matching ownership at node " + std::to_string(id);
      }
    }
    // 4. Wormhole contiguity: within a VC buffer, flits between a header and
    //    its tail belong to one message, and kinds follow H (B*) T framing.
    for (int u = 0; u < router.unitCount(); ++u) {
      FlitFifo copy = router.unit(u).buf;  // value copy: safe to drain
      MsgId current = kInvalidMsg;
      while (!copy.empty()) {
        const Flit f = copy.pop();
        if (current == kInvalidMsg) {
          // First flit of a framing span: either a header, or the mid-drain
          // remainder of a message whose header departed earlier.
          current = f.msg;
        } else if (f.msg != current) {
          return "interleaved messages in one VC buffer at node " + std::to_string(id);
        }
        if (f.isTail()) current = kInvalidMsg;
      }
    }
  }
  return net_.validateNodeState();
}

}  // namespace swft
