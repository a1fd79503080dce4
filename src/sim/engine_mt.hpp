// Domain-decomposed multithreaded sparse engine (EngineKind::SparseMt).
//
// The torus is partitioned into `simThreads` contiguous node-id domains, one
// persistent worker per domain (domain 0 runs on the simulating thread), and
// every cycle runs two steps (DESIGN.md §6):
//
//   P1 (parallel)  — each domain stores a *route card* for every occupied,
//                    unrouted, eligible header front in its node range: the
//                    pure routing function's decision (Network::computeRoute)
//                    for that unit's front message. No RNG, no mutation of
//                    shared state.
//   main thread    — after one barrier, the unchanged sparse cycle
//                    (Network::advanceCycleSparse). Network::routeHeader
//                    takes the P1 card for a unit when one exists and
//                    computes the route otherwise (fronts that appear
//                    mid-sweep have no card).
//
// A card is never stale when it is taken: a unit's front and route word
// change only at its own router's turn in the sweep, and routing reads
// nothing else that the sweep mutates before that turn. Every pop, push,
// link qualification, VC allocation and RNG draw happens in the sparse
// cycle, so SimResults are bit-identical to the sparse engine (and the dense
// reference) at every thread count — enforced by
// tests/test_engine_equivalence.cpp, test_engine_mt.cpp and the fuzz harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/routing/types.hpp"
#include "src/topology/coordinates.hpp"

namespace swft {

class Network;

/// First node of domain `d` when `nodes` routers are split across `domains`
/// contiguous node-id ranges, balanced to within one node. Domain d covers
/// [mtDomainStart(nodes, domains, d), mtDomainStart(nodes, domains, d + 1)).
[[nodiscard]] constexpr NodeId mtDomainStart(int nodes, int domains, int d) noexcept {
  return static_cast<NodeId>(static_cast<std::int64_t>(nodes) * d / domains);
}

/// Effective domain count for a requested `simThreads` on `nodes` routers:
/// at least one, at most one per router (every domain must be non-empty).
[[nodiscard]] constexpr int mtEffectiveDomains(int nodes, int simThreads) noexcept {
  return simThreads < 1 ? 1 : (simThreads > nodes ? nodes : simThreads);
}

class MtEngine {
 public:
  /// A precomputed route decision for one header front.
  struct RouteCard {
    std::int32_t unit;  // global arena unit index
    MsgId msg;          // the unit's front message at P1
    RouteDecision dec;
  };

  MtEngine(Network& net, int simThreads);
  ~MtEngine();
  MtEngine(const MtEngine&) = delete;
  MtEngine& operator=(const MtEngine&) = delete;

  /// One simulation cycle (called from Network::advanceCycle; the cycle
  /// counter increment and the deadlock watchdog are Network::endCycle).
  void advanceCycle();

  /// The card P1 of `cycle` stored for global unit `g` of router `id`, or
  /// nullptr when the unit had no eligible header front at the cycle start.
  [[nodiscard]] const RouteCard* takeCard(NodeId id, int g,
                                          std::uint64_t cycle) const noexcept {
    const CardSpan& s = spans_[id];
    if (s.cycle != cycle + 1) return nullptr;
    const RouteCard* c = cards_[s.domain].data() + s.head;
    for (const RouteCard* end = c + s.count; c != end; ++c) {
      if (c->unit == g) return c;
    }
    return nullptr;
  }

 private:
  // Router `id`'s cards: cards_[domain][head, head + count), valid while
  // `cycle` equals the executing cycle + 1 (zero never matches).
  struct CardSpan {
    std::uint64_t cycle = 0;
    std::uint32_t head = 0;
    std::uint16_t count = 0;
    std::uint16_t domain = 0;
  };

  void workerLoop(int d);
  void buildCards(int d);  // P1 for one domain

  Network& net_;
  std::vector<NodeId> domStart_;  // domain count + 1 fenceposts
  std::vector<std::vector<RouteCard>> cards_;  // per domain, rebuilt each P1
  std::vector<CardSpan> spans_;                // per router

  // Barrier state: `epoch_` counts launched P1 steps; workers spin (with
  // yield) until it advances, build their cards, and bump `arrived_`.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> arrived_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace swft
