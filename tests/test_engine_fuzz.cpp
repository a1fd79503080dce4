// Differential fuzz harness: the sparse engine's equivalence contract,
// stress-tested over randomized configurations.
//
// The hand-picked matrix in test_engine_equivalence.cpp pins eight
// representative corners; this suite draws a few hundred random points from
// the full configuration space (topology size and dimensionality, VC counts,
// buffer depths, routing mode, every traffic pattern, fault counts, router
// decision time, message lengths, injection rates) and runs each to
// completion on the dense reference, sparse, and sparse-mt twice, with
// sim_threads axes cycling {1, 2, 3, 8} and {2, 5, 8} — requiring
// bit-identical SimResults: exact double equality, no tolerance.
//
// On a mismatch the failing point is printed as a ready-to-paste
// `swft_sim`-style key=value string (the config_parse.hpp grammar) so a
// failure in CI can be reproduced in one command without re-running the
// fuzzer.
//
// Knobs (environment):
//   SWFT_FUZZ_CONFIGS  number of random configs (default 200)
//   SWFT_FUZZ_SEED     base seed for the config generator (default 20060425)
//
// Registered under the `fuzz` ctest label — excluded from tier1; CI runs a
// reduced count under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "src/sim/config.hpp"
#include "src/sim/engine_dense.hpp"
#include "src/sim/stats.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/rng.hpp"

namespace swft {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(v, &end, 10);
  return (end == v) ? fallback : parsed;
}

/// Render `cfg` in the config_parse.hpp key=value grammar, ready to paste
/// onto a swft_sim command line (or feed back through parseConfig).
std::string reproString(const SimConfig& cfg) {
  std::ostringstream os;
  os << "k=" << cfg.radix << " n=" << cfg.dims << " vcs=" << cfg.vcs
     << " escape_vcs=" << cfg.escapeVcs << " buffer_depth=" << cfg.bufferDepth
     << " td=" << cfg.routerDecisionTime << " msg_length=" << cfg.messageLength
     << " rate=" << cfg.injectionRate
     << " traffic=" << trafficPatternName(cfg.pattern);
  if (cfg.pattern == TrafficPattern::Hotspot) {
    os << " hotspot_fraction=" << cfg.hotspotFraction;
  }
  os << " routing=" << (cfg.routing == RoutingMode::Adaptive ? "adaptive" : "det");
  if (cfg.faults.randomNodes > 0) {
    os << " nf=" << cfg.faults.randomNodes << " delta=" << cfg.reinjectDelay;
  }
  os << " livelock_threshold=" << cfg.livelockThreshold
     << " warmup=" << cfg.warmupMessages << " measured=" << cfg.measuredMessages
     << " max_cycles=" << cfg.maxCycles << " seed=" << cfg.seed;
  return os.str();
}

/// Draw one random-but-bounded configuration. Node counts stay <= ~256 and
/// maxCycles is capped so a full 200-config sweep finishes in minutes, while
/// still crossing every engine code path: wormhole streaming, VC allocation
/// under contention, credit backpressure (depth 1), multi-word occupancy
/// (vcs * ports > 64), faults with software-layer absorption/reinjection,
/// non-zero router decision time (exact-arrival mode), and saturated points
/// that stop on max_cycles instead of the delivery target.
SimConfig drawConfig(Rng& rng) {
  SimConfig cfg;
  cfg.dims = 1 + static_cast<int>(rng.uniform(4));  // n in [1, 4]
  switch (cfg.dims) {
    case 1: cfg.radix = 4 + static_cast<int>(rng.uniform(13)); break;  // k in [4, 16]
    case 2: cfg.radix = 3 + static_cast<int>(rng.uniform(10)); break;  // k in [3, 12]
    case 3: cfg.radix = 3 + static_cast<int>(rng.uniform(4));  break;  // k in [3, 6]
    default: cfg.radix = 3; break;                                     // 3-ary 4-cube
  }
  cfg.vcs = 2 + static_cast<int>(rng.uniform(5));  // V in [2, 6]
  // VcPartition: escapeVcs even, in [2, V].
  cfg.escapeVcs = 2 * (1 + static_cast<int>(rng.uniform(
                               static_cast<std::uint32_t>(cfg.vcs / 2))));
  cfg.bufferDepth = 1 + static_cast<int>(rng.uniform(8));
  cfg.routerDecisionTime = static_cast<int>(rng.uniform(3));  // Td in [0, 2]
  cfg.messageLength = 2 + static_cast<int>(rng.uniform(23));  // M in [2, 24]
  cfg.injectionRate = 0.002 + 0.028 * rng.uniform01();
  constexpr TrafficPattern kPatterns[] = {
      TrafficPattern::Uniform,  TrafficPattern::Transpose,
      TrafficPattern::BitComplement, TrafficPattern::BitReversal,
      TrafficPattern::Shuffle,  TrafficPattern::Tornado,
      TrafficPattern::Hotspot,
  };
  cfg.pattern = kPatterns[rng.uniform(sizeof(kPatterns) / sizeof(kPatterns[0]))];
  if (cfg.pattern == TrafficPattern::Hotspot) {
    cfg.hotspotFraction = 0.05 + 0.45 * rng.uniform01();
  }
  cfg.routing = rng.bernoulli(0.5) ? RoutingMode::Adaptive : RoutingMode::Deterministic;
  if (rng.bernoulli(0.4)) {
    cfg.faults.randomNodes = 1 + static_cast<int>(rng.uniform(4));
    cfg.reinjectDelay = static_cast<int>(rng.uniform(31));
    // Occasionally a tiny threshold so the Valiant escalation path fires.
    if (rng.bernoulli(0.25)) cfg.livelockThreshold = 8;
  }
  cfg.warmupMessages = 20 + static_cast<std::uint32_t>(rng.uniform(61));
  cfg.measuredMessages = 100 + static_cast<std::uint32_t>(rng.uniform(301));
  cfg.maxCycles = 60'000;       // bounds saturated points
  cfg.deadlockWindow = 20'000;  // watchdog still armed inside the cap
  cfg.seed = rng.next();
  return cfg;
}

/// Exact comparison of every SimResult field; mirrors
/// test_engine_equivalence.cpp. Any divergence means the sparse engine did
/// (or skipped) work the dense sweep would not have.
void expectIdentical(const SimResult& sparse, const SimResult& dense,
                     const std::string& repro) {
  EXPECT_EQ(sparse.cycles, dense.cycles) << repro;
  EXPECT_EQ(sparse.generatedTotal, dense.generatedTotal) << repro;
  EXPECT_EQ(sparse.deliveredTotal, dense.deliveredTotal) << repro;
  EXPECT_EQ(sparse.deliveredMeasured, dense.deliveredMeasured) << repro;
  EXPECT_EQ(sparse.messagesQueued, dense.messagesQueued) << repro;
  EXPECT_EQ(sparse.absorbedMessages, dense.absorbedMessages) << repro;
  EXPECT_EQ(sparse.reversals, dense.reversals) << repro;
  EXPECT_EQ(sparse.detours, dense.detours) << repro;
  EXPECT_EQ(sparse.escalations, dense.escalations) << repro;
  EXPECT_EQ(sparse.saturated, dense.saturated) << repro;
  EXPECT_EQ(sparse.deadlockSuspected, dense.deadlockSuspected) << repro;
  EXPECT_EQ(sparse.completed, dense.completed) << repro;
  // Exact double equality, not near: both engines must execute the same
  // floating-point operations in the same order.
  EXPECT_EQ(sparse.meanLatency, dense.meanLatency) << repro;
  EXPECT_EQ(sparse.latencyStddev, dense.latencyStddev) << repro;
  EXPECT_EQ(sparse.maxLatency, dense.maxLatency) << repro;
  EXPECT_EQ(sparse.latencyP50, dense.latencyP50) << repro;
  EXPECT_EQ(sparse.latencyP95, dense.latencyP95) << repro;
  EXPECT_EQ(sparse.latencyP99, dense.latencyP99) << repro;
  EXPECT_EQ(sparse.latencyCi95, dense.latencyCi95) << repro;
  EXPECT_EQ(sparse.meanHops, dense.meanHops) << repro;
  EXPECT_EQ(sparse.throughput, dense.throughput) << repro;
}

TEST(EngineFuzz, SparseMatchesDenseOnRandomConfigs) {
  const std::uint64_t configs = envU64("SWFT_FUZZ_CONFIGS", 200);
  const std::uint64_t baseSeed = envU64("SWFT_FUZZ_SEED", 20060425);

  std::uint64_t ran = 0, skippedDisconnected = 0;
  std::uint64_t totalDelivered = 0, completedRuns = 0;
  for (std::uint64_t i = 0; i < configs; ++i) {
    Rng rng(baseSeed);
    rng = rng.split(i);
    SimConfig cfg = drawConfig(rng);
    const std::string repro =
        "repro: " + reproString(cfg) + "  (fuzz index " + std::to_string(i) +
        ", SWFT_FUZZ_SEED=" + std::to_string(baseSeed) + ")";

    // sim_threads axis for the sparse-mt run: rotate through single-domain,
    // small odd/even splits, and a count that often exceeds small tori (the
    // engine clamps to one domain per node).
    constexpr int kThreadAxis[] = {1, 2, 3, 8};
    const int simThreads = kThreadAxis[i % (sizeof(kThreadAxis) / sizeof(kThreadAxis[0]))];

    SimResult dense;
    try {
      dense = DenseReference(cfg).run();
    } catch (const std::runtime_error&) {
      // Random faults occasionally disconnect a small torus; the sparse
      // builds must reject the identical pattern the same way.
      EXPECT_THROW((void)runSimulation(cfg), std::runtime_error) << repro;
      cfg.engine = EngineKind::SparseMt;
      cfg.simThreads = simThreads;
      EXPECT_THROW((void)runSimulation(cfg), std::runtime_error) << repro;
      ++skippedDisconnected;
      continue;
    }
    const SimResult sparse = runSimulation(cfg);
    expectIdentical(sparse, dense, repro);
    cfg.engine = EngineKind::SparseMt;
    cfg.simThreads = simThreads;
    const SimResult mt = runSimulation(cfg);
    expectIdentical(mt, dense,
                    repro + " engine=sparse-mt sim_threads=" +
                        std::to_string(simThreads));
    // Fourth engine-config rotation: a second sparse-mt run on an offset
    // axis so every point also runs a genuinely multi-domain split — the
    // {2, 5, 8} axis has no single-domain slot and its prime 5-way partition
    // never divides the common even tori, forcing uneven domains with
    // candidate cards on both sides of every boundary.
    constexpr int kThreadAxis2[] = {2, 5, 8};
    const int simThreads2 =
        kThreadAxis2[i % (sizeof(kThreadAxis2) / sizeof(kThreadAxis2[0]))];
    cfg.simThreads = simThreads2;
    const SimResult mt2 = runSimulation(cfg);
    expectIdentical(mt2, dense,
                    repro + " engine=sparse-mt sim_threads=" +
                        std::to_string(simThreads2));
    ++ran;
    totalDelivered += dense.deliveredMeasured;
    if (dense.completed) ++completedRuns;

    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first divergent config\n" << repro;
    }
  }
  RecordProperty("configs_compared", static_cast<int>(ran));
  RecordProperty("configs_disconnected", static_cast<int>(skippedDisconnected));
  RecordProperty("configs_completed", static_cast<int>(completedRuns));
  // The sweep must mostly exercise real runs, not degenerate rejects, and
  // the comparisons must not be vacuous: messages actually flowed.
  EXPECT_GE(ran * 2, configs);
  EXPECT_GT(totalDelivered, 0u);
  EXPECT_GE(completedRuns * 4, ran);
}

}  // namespace
}  // namespace swft
