// Differential fuzz harness: the sparse engine's equivalence contract,
// stress-tested over randomized configurations.
//
// The hand-picked matrix in test_engine_equivalence.cpp pins eight
// representative corners; this suite draws a few hundred random points from
// the full configuration space (topology size and dimensionality, VC counts,
// buffer depths, routing mode, every traffic pattern, fault counts, router
// decision time, message lengths, injection rates) and runs each to
// completion on the dense reference, sparse, and sparse-mt twice, with
// simThreads axes cycling {1, 2, 3, 8} and {2, 5, 8} — requiring
// bit-identical SimResults: every field, doubles by bit pattern, no tolerance.
//
// On a mismatch the failing point is printed as a ready-to-paste
// `swft_sim` command line (describeConfig, config_parse.hpp) so a failure in
// CI can be reproduced in one command without re-running the fuzzer. The
// line is exact: it names every parse key and writes doubles in shortest
// round-trip form, and ReproParsesBackToTheDrawnConfig checks that it
// parses back to each draw's canonical key. A sparse-mt mismatch
// names its domain thread count beside that line; no config key selects
// sparse-mt, so it is not pasteable.
//
// At the default knobs the suite also pins a digest of every sparse result
// beside kEngineSemanticsVersion: a change to routing, the software layer or
// traffic generation moves every engine together, so only a recorded digest
// notices it when the eight goldens miss it.
//
// Knobs (environment):
//   SWFT_FUZZ_CONFIGS  number of random configs (default 200)
//   SWFT_FUZZ_SEED     base seed for the config generator (default 20060425)
//
// Registered under the `fuzz` ctest label — excluded from tier1; CI runs a
// reduced count under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/harness/result_cache.hpp"
#include "src/sim/config.hpp"
#include "src/sim/config_canon.hpp"
#include "src/sim/config_parse.hpp"
#include "src/sim/engine_dense.hpp"
#include "src/sim/stats.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/fnv.hpp"
#include "src/util/rng.hpp"
#include "tests/config_round_trip.hpp"
#include "tests/result_compare.hpp"

namespace swft {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(v, &end, 10);
  return (end == v) ? fallback : parsed;
}

/// Draw one random-but-bounded configuration. Node counts stay <= ~256 and
/// maxCycles is capped so a full 200-config sweep finishes in minutes, while
/// still crossing the engine code paths: wormhole streaming, VC allocation
/// under contention, credit backpressure (depth 1), faults with
/// software-layer absorption/reinjection, non-zero router decision time
/// (the Td gate on Message::headerArrival), and saturated points that stop on max_cycles
/// instead of the delivery target. The draws stay on one-word routers
/// (V <= 6 and at most 9 ports give at most 54 input units); the multi-word
/// path (more than 64 units) is covered by
/// EngineEquivalence.MultiWordRoutersMatchDenseAtEveryThreadCount.
SimConfig drawConfig(std::uint64_t baseSeed, std::uint64_t index) {
  Rng rng = Rng(baseSeed).split(index);
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

constexpr std::uint64_t kDefaultConfigs = 200;
constexpr std::uint64_t kDefaultSeed = 20060425;

TEST(EngineFuzz, ReproParsesBackToTheDrawnConfig) {
  // A repro line is only useful if it is the failing config: fed back
  // through parseConfig, every draw's line gives the draw's canonical key.
  // Runs no simulation.
  const std::uint64_t configs = envU64("SWFT_FUZZ_CONFIGS", kDefaultConfigs);
  const std::uint64_t baseSeed = envU64("SWFT_FUZZ_SEED", kDefaultSeed);
  for (std::uint64_t i = 0; i < configs; ++i) {
    expectDescribeRoundTrips(drawConfig(baseSeed, i), "fuzz index " + std::to_string(i));
  }
}

TEST(EngineFuzz, SparseMatchesDenseOnRandomConfigs) {
  const std::uint64_t configs = envU64("SWFT_FUZZ_CONFIGS", kDefaultConfigs);
  const std::uint64_t baseSeed = envU64("SWFT_FUZZ_SEED", kDefaultSeed);

  // FNV-1a 64 chained over every sparse serializeResult (or a marker for a
  // disconnected draw), in fuzz-index order.
  std::uint64_t digest = kFnv1a64OffsetBasis;
  std::uint64_t ran = 0, skippedDisconnected = 0;
  std::uint64_t totalDelivered = 0, completedRuns = 0;
  for (std::uint64_t i = 0; i < configs; ++i) {
    SimConfig cfg = drawConfig(baseSeed, i);
    const std::string repro =
        "repro: " + describeConfig(cfg) + "  (fuzz index " + std::to_string(i) +
        ", SWFT_FUZZ_SEED=" + std::to_string(baseSeed) + ")";

    // simThreads axis for the sparse-mt run: rotate through single-domain,
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
      digest = fnv1a64("disconnected\n", digest);
      ++skippedDisconnected;
      continue;
    }
    const SimResult sparse = runSimulation(cfg);
    expectSameResult(sparse, dense, repro);
    digest = fnv1a64(serializeResult(sparse), digest);
    cfg.engine = EngineKind::SparseMt;
    cfg.simThreads = simThreads;
    const SimResult mt = runSimulation(cfg);
    expectSameResult(mt, dense, repro + "  [sparse-mt, " + std::to_string(simThreads) +
                                    " domain threads]");
    // Fourth engine-config rotation: a second sparse-mt run on an offset
    // axis so every point also runs a genuinely multi-domain split — the
    // {2, 5, 8} axis has no single-domain slot and its prime 5-way partition
    // never divides the common even tori, forcing uneven domains with
    // route cards on both sides of every boundary.
    constexpr int kThreadAxis2[] = {2, 5, 8};
    const int simThreads2 =
        kThreadAxis2[i % (sizeof(kThreadAxis2) / sizeof(kThreadAxis2[0]))];
    cfg.simThreads = simThreads2;
    const SimResult mt2 = runSimulation(cfg);
    expectSameResult(mt2, dense, repro + "  [sparse-mt, " + std::to_string(simThreads2) +
                                     " domain threads]");
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

  // The semantics pin: other knob values draw other configs, so only the
  // default sweep has a recorded digest.
  if (configs == kDefaultConfigs && baseSeed == kDefaultSeed) {
    ASSERT_EQ(kEngineSemanticsVersion, 1u);
    EXPECT_EQ(digest, 0x106d6f343a727667ULL)
        << "the fuzz configs' sparse results changed (digest 0x" << std::hex << digest
        << "): re-record this digest AND bump kEngineSemanticsVersion "
           "(src/sim/config_canon.hpp)";
  }
}

}  // namespace
}  // namespace swft
