// The simulated network: topology + faults + routers + PEs + the cycle
// engine implementing flit-level wormhole switching with Software-Based
// fault-tolerant routing (paper §4, §5).
//
// One production engine over the contiguous RouterArena, run either
// single-threaded (Sparse, engine.cpp) or domain-decomposed across
// `cfg.simThreads` workers with a barrier-phased cycle (SparseMt,
// engine_mt.cpp, DESIGN.md §6).
//
// The seed engine survives only as a test oracle, DenseReference
// (engine_dense.hpp, the swft_dense_ref library that only the tests and
// bench/kernel_microbench link). It drives a Network through the same cycle
// driver (runCycles/stepCycles/endCycle below). Both modes must match it
// bit for bit — SparseMt at every thread count;
// tests/test_engine_equivalence.cpp, test_engine_mt.cpp and
// test_engine_fuzz.cpp enforce it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "src/fault/connectivity.hpp"
#include "src/router/message_pool.hpp"
#include "src/routing/duato.hpp"
#include "src/routing/ecube.hpp"
#include "src/routing/software_layer.hpp"
#include "src/sim/config.hpp"
#include "src/sim/gen_calendar.hpp"
#include "src/sim/node.hpp"
#include "src/sim/router_arena.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/trace.hpp"
#include "src/traffic/patterns.hpp"

namespace swft {

class MtEngine;

class Network {
 public:
  explicit Network(const SimConfig& cfg);
  // Out of line: ~MtEngine (joining the worker threads) needs the complete
  // type, which this header only forward-declares.
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Run the full experiment: warm-up, measurement, stop conditions.
  SimResult run() { return runCycles([this] { advanceCycle(); }); }

  /// Advance exactly `cycles` cycles (stepping API for tests/examples).
  void step(std::uint64_t cycles) { stepCycles(cycles, [this] { advanceCycle(); }); }

  /// Finalise counters into a SimResult without running further.
  [[nodiscard]] SimResult snapshot() const;

  // --- introspection (tests, examples) -------------------------------------
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const TorusTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] const FaultSet& faults() const noexcept { return faults_; }
  [[nodiscard]] const SoftwareLayer& softwareLayer() const noexcept { return software_; }
  [[nodiscard]] const MessagePool& pool() const noexcept { return pool_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  [[nodiscard]] std::uint64_t generated() const noexcept { return generatedTotal_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return deliveredTotal_; }
  [[nodiscard]] std::uint64_t inFlight() const noexcept { return pool_.liveCount(); }
  [[nodiscard]] bool deadlockSuspected() const noexcept { return deadlockSuspected_; }
  [[nodiscard]] const RouterArena& arena() const noexcept { return arena_; }
  [[nodiscard]] const NodeState& node(NodeId id) const noexcept { return nodes_[id]; }

  /// Inject a specific message immediately (testing hook). Returns its id.
  MsgId injectTestMessage(NodeId src, NodeId dest, int length, RoutingMode mode);

  /// Attach (or detach with nullptr) a per-message event recorder. The
  /// recorder must outlive the network. Intended for tests and debugging;
  /// tracing every event is O(messages x hops) memory.
  void attachTrace(TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Per-engine-thread phase timers, collected when `cfg.phaseTimers` is
  /// set (empty otherwise). Slot 0 is the main/baton thread; the sparse-mt
  /// engine adds one slot per worker domain. Read only after run()/step()
  /// returns — the barrier handoff makes worker slots visible then.
  [[nodiscard]] const std::vector<PhaseBreakdown>& phaseShards() const noexcept {
    return phaseShards_;
  }

  /// Validate microarchitectural invariants (occupancy bits/counts/active
  /// set vs buffers, output-VC ownership consistency, wormhole per-VC
  /// message contiguity, injection-side work-set coverage). Returns an empty
  /// string when consistent, else a description of the first violation.
  /// O(network size); test/debug use.
  [[nodiscard]] std::string validateInvariants() const;

 private:
  friend struct NetworkTestAccess;  // white-box unit tests
  friend class MtEngine;            // the sparse-mt engine (engine_mt.cpp)
  friend class DenseReference;      // the test oracle (engine_dense.cpp)

  // The cycle driver, shared with DenseReference: the run()/step() stop
  // conditions and the cycle tail (endCycle) exist only here.
  template <typename Body>
  SimResult runCycles(Body body) {
    while (cycle_ < cfg_.maxCycles && deliveredMeasured_ < cfg_.measuredMessages &&
           !deadlockSuspected_) {
      body();
      endCycle();
    }
    return snapshot();
  }
  template <typename Body>
  void stepCycles(std::uint64_t cycles, Body body) {
    for (std::uint64_t i = 0; i < cycles && !deadlockSuspected_; ++i) {
      body();
      endCycle();
    }
  }
  void endCycle() noexcept;

  // One simulation cycle: injection, route computation + VC allocation,
  // switch allocation + link traversal, ejection (everything but endCycle).
  void advanceCycle();
  // Event-sparse implementation: generation calendar + active-set walks.
  void advanceCycleSparse();

  void stepGeneration(NodeId id);
  // Returns true when the node can make no injection progress until an
  // external event (queues drained, or streaming blocked on a full buffer
  // that only a router-side pop can drain), so the sparse engine can clear
  // its work bit; the event source re-arms it (generation: stepGeneration,
  // buffer drain: commitLink/ejectFlit).
  bool stepInjection(NodeId id);
  // Single pass per router: route computation + VC allocation for unrouted
  // headers, then the batched link pass (per-link switch arbitration fused
  // with the traversal commit; see engine.cpp).
  void stepRouter(NodeId id);
  // Winner commit for one network link: advance the round-robin cursor, pop
  // at the winner unit, push into the hoisted downstream unit, release the
  // route on tail departure. Force-inlined into stepRouter (its only caller)
  // so arena row pointers stay in registers across selection and commit.
  [[gnu::always_inline]] void commitLink(NodeId id, int port, int winnerIdx);

  // validateInvariants' storage-independent checks, reused by DenseReference.
  [[nodiscard]] std::string validateNodeState() const;

  [[nodiscard]] NodeId cachedNeighbor(NodeId id, int port) const noexcept {
    return nbr_[static_cast<std::size_t>(id) * static_cast<std::size_t>(networkPorts_) +
                static_cast<std::size_t>(port)];
  }
  [[nodiscard]] bool cachedWrap(NodeId id, int port) const noexcept {
    return wrapBit_[static_cast<std::size_t>(id) * static_cast<std::size_t>(networkPorts_) +
                    static_cast<std::size_t>(port)] != 0;
  }

  void routeHeader(NodeId id, int unitIdx);
  // routeHeader split for the sparse-mt engine: the pure route computation
  // (safe to precompute in a parallel phase) and the mutating part (route
  // allocation + the VC-allocation RNG draw, which must run at the router's
  // dense-sweep position). routeHeader == applyRouteDecision(computeRoute).
  [[nodiscard]] RouteDecision computeRoute(const Message& msg, NodeId id) const;
  void applyRouteDecision(NodeId id, int unitIdx, MsgId msgId,
                          const RouteDecision& decision);
  [[gnu::always_inline]] void ejectFlit(NodeId id, int unitIdx);
  void finalizeEjected(NodeId id, MsgId msgId);
  void scheduleReinjection(NodeId id, MsgId msgId);
  [[nodiscard]] double sourceQueueMean() const;

  // Injection-side active set: bit per node with queued or streaming work.
  void markNodeWork(NodeId id) noexcept {
    nodeWork_[static_cast<std::size_t>(id) >> 6] |= (1ULL << (id & 63));
  }
  [[nodiscard]] bool nodeIdle(NodeId id) const noexcept {
    const NodeState& n = nodes_[id];
    return n.streaming == kInvalidMsg && n.sourceQueue.empty() && n.swQueue.empty();
  }

  SimConfig cfg_;
  TorusTopology topo_;
  FaultSet faults_;
  VcPartition part_;
  EcubeRouting ecube_;
  DuatoRouting duato_;
  std::unique_ptr<SoftwareLayer> software0_;  // built after faults applied
  SoftwareLayer& software_;
  TrafficGenerator traffic_;
  MessagePool pool_;

  RouterArena arena_;
  std::vector<NodeState> nodes_;
  Rng engineRng_;

  // Event-sparse engine state. The calendar holds every healthy node's next
  // generation cycle; nodeWork_ covers every node with injection-side work.
  // Both are conservative supersets of "nodes that will do something" —
  // visiting an idle node is a no-op in both engines, so the active sets can
  // never change results, only skip provably-dead work.
  GenCalendar calendar_;
  std::vector<std::uint64_t> nodeWork_;

  // Hot-path topology caches (one entry per node x network port).
  int networkPorts_ = 0;
  std::vector<NodeId> nbr_;
  std::vector<std::uint8_t> wrapBit_;
  // Arena base of the downstream input-port units reached through (id, port):
  // neighbor * unitsPerRouter + (port ^ 1) * vcs. Adding outVc yields the
  // downstream unit in one add — the credit check needs no multiplies. The
  // ejection port's entry is the arena's always-zero credit sink (the PE
  // always accepts), so the row exists for every port of the router.
  std::vector<std::int32_t> downBase_;

  [[nodiscard]] std::int32_t cachedDownBase(NodeId id, int port) const noexcept {
    return downBase_[static_cast<std::size_t>(id) *
                         static_cast<std::size_t>(networkPorts_ + 1) +
                     static_cast<std::size_t>(port)];
  }

  TraceRecorder* trace_ = nullptr;

  // When non-null (installed by the sparse-mt engine), trace events stage
  // into this buffer instead of hitting the recorder's hash map; the mt
  // engine flushes it FIFO while its parallel commit phase runs. Every
  // emission site must route through emitTrace so the two paths stay in
  // sync. All emission happens on the baton (main) thread.
  TraceBuffer* traceSink_ = nullptr;

  // Callers guard on trace_ != nullptr before building the event.
  void emitTrace(const TraceEvent& event) {
    if (traceSink_ != nullptr) {
      traceSink_->stage(event);
    } else {
      trace_->record(event);
    }
  }

  // Per-engine-thread phase timers; sized by the engine at construction
  // when cfg_.phaseTimers is set, never resized mid-run.
  std::vector<PhaseBreakdown> phaseShards_;

  [[nodiscard]] PhaseBreakdown* phaseShard(std::size_t slot) noexcept {
    return slot < phaseShards_.size() ? &phaseShards_[slot] : nullptr;
  }

  // When non-null (sparse-mt's ordered phase), stepInjection reports every
  // header pushed into an empty injection unit here so the mt router walk
  // can fold the new head into its precomputed route-candidate cards.
  std::vector<std::pair<NodeId, std::int32_t>>* injFoldSink_ = nullptr;

  // --- engine counters ------------------------------------------------------
  std::uint64_t cycle_ = 0;
  std::uint64_t lastMovementCycle_ = 0;
  std::uint32_t genSeq_ = 0;
  std::uint64_t generatedTotal_ = 0;
  std::uint64_t deliveredTotal_ = 0;
  std::uint64_t deliveredMeasured_ = 0;
  std::uint64_t deliveredInWindow_ = 0;
  std::uint64_t windowStartCycle_ = 0;
  bool windowOpen_ = false;
  std::uint64_t absorbedMessages_ = 0;  // distinct messages absorbed >= once
  LatencyTracker latency_;
  RunningStat hops_;
  bool deadlockSuspected_ = false;
  std::size_t healthyNodeCount_ = 0;

  // Built only for EngineKind::SparseMt. Declared last: members destroy in
  // reverse order, so the worker threads join before any state they touch
  // (arena, pool, nodes) is torn down.
  std::unique_ptr<MtEngine> mt_;
};

/// Convenience wrapper: build the network from `cfg` and run to completion.
SimResult runSimulation(const SimConfig& cfg);

}  // namespace swft
