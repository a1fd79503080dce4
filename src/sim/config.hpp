// Simulation configuration (paper §5.1 assumptions and §5.2 parameters).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/regions.hpp"
#include "src/router/message.hpp"
#include "src/traffic/patterns.hpp"

namespace swft {

/// Cycle-engine selector. `Sparse` (default) is the event-sparse engine: a
/// calendar queue for generation, active-set bitsets for injection and
/// router sweeps, contiguous arena storage. `SparseMt` is its
/// domain-decomposed multithreaded variant: the torus is partitioned into
/// contiguous node-id domains (`simThreads` workers) with a barrier-phased
/// cycle (DESIGN.md §6). Both produce bit-identical SimResults — at every
/// thread count — and match the test-only dense reference (engine_dense.hpp)
/// bit for bit; anything else is a bug.
enum class EngineKind : std::uint8_t { Sparse = 0, SparseMt = 1 };

/// Declarative fault pattern: applied to a fresh FaultSet at network build.
struct FaultSpec {
  int randomNodes = 0;                  // assumption (h): random node faults
  std::vector<RegionSpec> regions;      // coalesced fault regions (Fig. 1/5)
  std::vector<NodeId> explicitNodes;    // for tests / reproducibility
  std::vector<std::array<std::uint32_t, 3>> explicitLinks;  // {node, dim, dir}

  [[nodiscard]] bool empty() const noexcept {
    return randomNodes == 0 && regions.empty() && explicitNodes.empty() &&
           explicitLinks.empty();
  }
};

struct SimConfig {
  // --- topology -------------------------------------------------------------
  int radix = 8;            // k
  int dims = 2;             // n
  // --- router ---------------------------------------------------------------
  int vcs = 4;              // V virtual channels per physical channel
  int escapeVcs = 2;        // escape pool size under adaptive routing (Duato)
  int bufferDepth = 4;      // flit buffer slots per virtual channel
  int routerDecisionTime = 0;  // Td cycles (paper experiments use 0)
  // --- workload ---------------------------------------------------------
  int messageLength = 32;   // M flits, header included (assumption (c))
  double injectionRate = 0.005;  // lambda, messages/node/cycle (assumption (a))
  TrafficPattern pattern = TrafficPattern::Uniform;
  double hotspotFraction = 0.1;  // share of traffic aimed at the hotspot node
  // --- software-based routing ------------------------------------------
  RoutingMode routing = RoutingMode::Deterministic;
  int reinjectDelay = 0;    // Delta cycles of software overhead (assumption (i))
  int livelockThreshold = 96;  // absorptions before the Valiant escalation
  // --- faults ----------------------------------------------------------
  FaultSpec faults;
  // --- measurement -----------------------------------------------------
  std::uint32_t warmupMessages = 2000;    // statistics inhibited below this seq
  std::uint32_t measuredMessages = 8000;  // stop after this many measured deliveries
  std::uint64_t maxCycles = 1'500'000;
  std::uint64_t deadlockWindow = 20'000;  // watchdog: cycles without any flit movement
  std::uint64_t seed = 1;
  // --- engine ----------------------------------------------------------
  EngineKind engine = EngineKind::Sparse;
  // Worker threads for EngineKind::SparseMt (ignored by the other engines).
  // Clamped to the node count at network build; results are bit-identical
  // at every value by construction.
  int simThreads = 1;
  // Collect per-phase wall-clock timers during the run (`phase_timers=1`,
  // `swft_bench --phase-timers`). runSimulation prints one line per engine
  // thread to stderr; Network::phaseShards() exposes them programmatically.
  // Diagnostic only — never affects simulated results, and (like engine /
  // simThreads) it is excluded from the canonical result-cache key.
  bool phaseTimers = false;

  [[nodiscard]] std::string routingName() const {
    return routing == RoutingMode::Deterministic ? "deterministic" : "adaptive";
  }
};

/// Scale presets: the paper simulates 100k messages with 10k warm-up per
/// point; `Reduced` preserves the curve shapes at ~1/10 the cost (default on
/// the single-core CI machine). Controlled by the SWFT_SCALE env variable.
enum class ScalePreset { Reduced, Paper };

ScalePreset scaleFromEnv();
void applyScale(SimConfig& cfg, ScalePreset scale);

}  // namespace swft
