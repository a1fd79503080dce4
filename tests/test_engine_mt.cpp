// Partition edge cases for the domain-decomposed sparse-mt engine
// (src/sim/engine_mt.hpp). The broad equivalence matrix and the fuzz harness
// cover the statistical surface; this suite pins the partition math itself
// and the geometric corners where domain decomposition is most likely to go
// wrong: node counts not divisible by the thread count, thread counts
// exceeding the node count, the single-domain fallback, and one-node-wide
// domains where *every* link crosses a domain boundary.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/config.hpp"
#include "src/sim/engine_mt.hpp"
#include "src/sim/network.hpp"
#include "tests/result_compare.hpp"

namespace swft {
namespace {

// ---------------------------------------------------------------------------
// Partition math.

TEST(MtPartition, DomainStartsCoverEveryNodeExactlyOnce) {
  for (int nodes : {1, 2, 7, 9, 16, 64, 100, 4096}) {
    for (int domains : {1, 2, 3, 4, 5, 8, 16}) {
      if (domains > nodes) continue;
      SCOPED_TRACE("nodes=" + std::to_string(nodes) +
                   " domains=" + std::to_string(domains));
      EXPECT_EQ(mtDomainStart(nodes, domains, 0), 0);
      EXPECT_EQ(mtDomainStart(nodes, domains, domains), nodes);
      int covered = 0;
      for (int d = 0; d < domains; ++d) {
        const int lo = mtDomainStart(nodes, domains, d);
        const int hi = mtDomainStart(nodes, domains, d + 1);
        EXPECT_LT(lo, hi) << "every domain must be non-empty";
        covered += hi - lo;
      }
      EXPECT_EQ(covered, nodes);
    }
  }
}

TEST(MtPartition, DomainSizesBalancedWithinOne) {
  for (int nodes : {9, 16, 100, 4096}) {
    for (int domains : {2, 3, 4, 7, 8}) {
      int minSize = nodes, maxSize = 0;
      for (int d = 0; d < domains; ++d) {
        const int size = mtDomainStart(nodes, domains, d + 1) -
                         mtDomainStart(nodes, domains, d);
        minSize = std::min(minSize, size);
        maxSize = std::max(maxSize, size);
      }
      EXPECT_LE(maxSize - minSize, 1)
          << "nodes=" << nodes << " domains=" << domains;
    }
  }
}

TEST(MtPartition, EffectiveDomainsClampsToNodeCountAndFloorsAtOne) {
  EXPECT_EQ(mtEffectiveDomains(16, 1), 1);
  EXPECT_EQ(mtEffectiveDomains(16, 8), 8);
  EXPECT_EQ(mtEffectiveDomains(16, 16), 16);
  EXPECT_EQ(mtEffectiveDomains(16, 17), 16);   // more threads than nodes
  EXPECT_EQ(mtEffectiveDomains(9, 1024), 9);
  EXPECT_EQ(mtEffectiveDomains(9, 0), 1);      // defensive floor
  EXPECT_EQ(mtEffectiveDomains(9, -3), 1);
}

// ---------------------------------------------------------------------------
// Whole-simulation edge cases: sparse-mt must be bit-identical to the
// single-threaded sparse engine regardless of partition geometry.

SimConfig smallTorus() {
  SimConfig cfg;
  cfg.radix = 3;
  cfg.dims = 2;  // 9 nodes: odd, prime-squared — never divisible by 2/4/8
  cfg.vcs = 3;
  cfg.escapeVcs = 2;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.02;
  cfg.routing = RoutingMode::Adaptive;
  cfg.warmupMessages = 60;
  cfg.measuredMessages = 300;
  cfg.maxCycles = 200'000;
  cfg.seed = 1109;
  return cfg;
}

SimResult runMt(SimConfig cfg, int simThreads) {
  cfg.engine = simThreads == 0 ? EngineKind::Sparse : EngineKind::SparseMt;
  cfg.simThreads = simThreads == 0 ? 1 : simThreads;
  return runSimulation(cfg);
}

TEST(MtEdgeCases, SingleDomainFallbackMatchesSparse) {
  const SimResult sparse = runMt(smallTorus(), 0);
  const SimResult mt1 = runMt(smallTorus(), 1);
  EXPECT_TRUE(sparse.completed);
  expectSameResult(sparse, mt1);
}

TEST(MtEdgeCases, NodeCountNotDivisibleByThreadCount) {
  // 9 nodes over 4 domains -> sizes {2, 2, 2, 3}; over 2 -> {4, 5}.
  const SimResult sparse = runMt(smallTorus(), 0);
  for (int t : {2, 4, 6}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    expectSameResult(sparse, runMt(smallTorus(), t));
  }
}

TEST(MtEdgeCases, OneNodeDomainsEveryLinkCrossesABoundary) {
  // sim_threads == nodes: all 9 domains are a single router wide, so every
  // hop and every credit is a cross-domain exchange.
  const SimResult sparse = runMt(smallTorus(), 0);
  expectSameResult(sparse, runMt(smallTorus(), 9));
}

TEST(MtEdgeCases, ThreadCountExceedingNodesClampsToOnePerNode) {
  const SimResult nine = runMt(smallTorus(), 9);
  for (int t : {10, 64, 1 << 20}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    expectSameResult(nine, runMt(smallTorus(), t));
  }
}

// ---------------------------------------------------------------------------
// Route-card validity. P1 stores a route decision for every eligible header
// front against the start-of-cycle arena; the sparse cycle that follows
// takes a unit's card only if the unit had one, and computes the route for
// fronts that appeared mid-sweep. Each test below drives one way the fronts
// can churn within a cycle and checks bit-identity against the serial
// sparse engine.

TEST(MtEdgeCases, DepthOneBuffersCreditFreedByEarlierRouterMidSweep) {
  // bufferDepth=1 makes every occupied buffer full: a unit's front changes
  // at every pop, and an upstream router can refill it only after that pop,
  // so a router's units alternate between carded fronts (present at the
  // cycle start) and uncarded ones pushed earlier in the same sweep. A card
  // taken for the wrong front shows up as a latency/hop divergence.
  SimConfig cfg = smallTorus();
  cfg.bufferDepth = 1;
  cfg.injectionRate = 0.08;  // saturate: keep every buffer churning all run
  const SimResult sparse = runMt(cfg, 0);
  EXPECT_TRUE(sparse.completed);
  for (int t : {2, 3, 9}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    expectSameResult(sparse, runMt(cfg, t));
  }
}

TEST(MtEdgeCases, FreshHeadersLandingOnCardedRouterAtHighRate) {
  // Short messages at high rate: headers dominate the flit mix, so routers
  // that already hold P1 cards for this cycle constantly receive fresh
  // headers (injected, or pushed by an earlier router in the sweep) that
  // have none. The router must route the uncarded fronts itself, in unit
  // order among its carded ones.
  SimConfig cfg = smallTorus();
  cfg.messageLength = 2;     // header-heavy traffic maximises fresh fronts
  cfg.injectionRate = 0.1;
  cfg.measuredMessages = 500;
  const SimResult sparse = runMt(cfg, 0);
  EXPECT_TRUE(sparse.completed);
  for (int t : {2, 4, 9}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    expectSameResult(sparse, runMt(cfg, t));
  }
}

TEST(MtEdgeCases, OneWideDomainsAtSaturation) {
  // The partition corner and the load corner together: every domain is one
  // router wide (every card span is built by a different thread from its
  // neighbours') while the network runs saturated, so most routers hold
  // cards every cycle and every hop lands on another domain's router.
  SimConfig cfg = smallTorus();
  cfg.injectionRate = 0.12;
  const SimResult sparse = runMt(cfg, 0);
  EXPECT_TRUE(sparse.completed);
  expectSameResult(sparse, runMt(cfg, 9));
}

TEST(MtEdgeCases, PhaseTimersDoNotPerturbResults) {
  // phase_timers=1 only adds wall-clock bookkeeping; results must stay
  // bit-identical with the flag on, for both the serial and the mt engine.
  SimConfig plain = smallTorus();
  SimConfig timed = smallTorus();
  timed.phaseTimers = true;
  expectSameResult(runMt(plain, 0), runMt(timed, 0));
  expectSameResult(runMt(plain, 3), runMt(timed, 3));
}

TEST(MtEdgeCases, FaultyRingWithDecisionTime) {
  // 1-D ring with faults, software-layer reinjection and td > 0: header
  // arrivals and absorption all land on domain boundaries when the ring is
  // split three ways.
  SimConfig cfg;
  cfg.radix = 12;
  cfg.dims = 1;
  cfg.vcs = 4;
  cfg.escapeVcs = 2;
  cfg.routerDecisionTime = 2;
  cfg.messageLength = 6;
  cfg.injectionRate = 0.01;
  cfg.faults.randomNodes = 1;
  cfg.reinjectDelay = 15;
  cfg.warmupMessages = 40;
  cfg.measuredMessages = 200;
  cfg.maxCycles = 200'000;
  cfg.seed = 42;
  const SimResult sparse = runMt(cfg, 0);
  EXPECT_TRUE(sparse.completed);
  for (int t : {3, 5, 12}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    expectSameResult(sparse, runMt(cfg, t));
  }
}

}  // namespace
}  // namespace swft
