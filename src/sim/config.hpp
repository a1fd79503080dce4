// Simulation configuration (paper §5.1 assumptions and §5.2 parameters).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/fault/regions.hpp"
#include "src/router/message.hpp"
#include "src/traffic/patterns.hpp"

namespace swft {

/// Cycle-engine selector. `Sparse` (default) is the event-sparse engine: a
/// binary heap for generation, active-set bitsets for injection and
/// router sweeps, contiguous arena storage. `SparseMt` runs the same cycle
/// after a parallel step in which `simThreads` workers, each owning a
/// contiguous node-id domain, precompute the cycle's route decisions
/// (DESIGN.md §6). Both produce bit-identical SimResults — at every thread
/// count — and match the test-only dense reference (engine_dense.hpp) bit
/// for bit; anything else is a bug.
///
/// No user-facing entry point selects `SparseMt`: no config key, no
/// `swft_bench` flag. It is slower than `Sparse` on every benchmark workload
/// and is kept only for the end-to-end benchmark's `sim.mt.*` probe,
/// `kernel_microbench`'s scaling sweep and the test suites, which set it in
/// code; it goes once the benchmark stops measuring it.
enum class EngineKind : std::uint8_t { Sparse = 0, SparseMt = 1 };

/// Name of a routing mode in the CSV column and the canonical config key.
[[nodiscard]] constexpr std::string_view routingModeName(RoutingMode m) noexcept {
  return m == RoutingMode::Deterministic ? "deterministic" : "adaptive";
}

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
  // Collect per-phase wall-clock timers during the run into
  // Network::phaseShards() (`phase_timers=1`, `swft_bench --phase-timers`).
  // The library prints nothing; swft_sim and swft_bench print them.
  // Diagnostic only — never affects simulated results.
  bool phaseTimers = false;
};

/// The one list of SimConfig's fields: calls `f(parseKey, keyTag, member)`
/// for each member of SimConfig and its FaultSpec, in declaration order, with
/// the field's `key=value` name (config_parse.hpp) and the `|tag=` that
/// precedes its value in the canonical cache key (config_canon.hpp), or
/// nullptr for a name the field lacks. `C` is SimConfig or const SimConfig. The structured bindings name every
/// member, so a member added without a line here does not compile.
template <class C, class F>
void forEachConfigField(C& cfg, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<C>, SimConfig>);
  using namespace std::string_view_literals;
  auto& [radix, dims, vcs, escapeVcs, bufferDepth, routerDecisionTime, messageLength,
         injectionRate, pattern, hotspotFraction, routing, reinjectDelay, livelockThreshold,
         faults, warmupMessages, measuredMessages, maxCycles, deadlockWindow, seed, engine,
         simThreads, phaseTimers] = cfg;
  auto& [randomNodes, regions, explicitNodes, explicitLinks] = faults;
  f("k"sv, "|k="sv, radix);
  f("n"sv, "|n="sv, dims);
  f("vcs"sv, "|V="sv, vcs);
  f("escape_vcs"sv, "|eV="sv, escapeVcs);
  f("buffer_depth"sv, "|depth="sv, bufferDepth);
  f("td"sv, "|td="sv, routerDecisionTime);
  f("msg_length"sv, "|M="sv, messageLength);
  f("rate"sv, "|rate="sv, injectionRate);
  f("traffic"sv, "|traffic="sv, pattern);
  f("hotspot_fraction"sv, "|hsf="sv, hotspotFraction);
  f("routing"sv, "|routing="sv, routing);
  f("delta"sv, "|delta="sv, reinjectDelay);
  f("livelock_threshold"sv, "|llt="sv, livelockThreshold);
  f("nf"sv, "|nf="sv, randomNodes);
  f("region"sv, "|rg="sv, regions);
  f(nullptr, "|xn="sv, explicitNodes);
  f(nullptr, "|xl="sv, explicitLinks);
  f("warmup"sv, "|warmup="sv, warmupMessages);
  f("measured"sv, "|measured="sv, measuredMessages);
  f("max_cycles"sv, "|maxcyc="sv, maxCycles);
  f(nullptr, "|dlwin="sv, deadlockWindow);
  f("seed"sv, "|seed="sv, seed);
  // Unkeyed: bit-identical engines share results, and timers never change one.
  f(nullptr, nullptr, engine);
  f(nullptr, nullptr, simThreads);
  f("phase_timers"sv, nullptr, phaseTimers);
}

/// Scale presets: the paper simulates 100k messages with 10k warm-up per
/// point; `Reduced` preserves the curve shapes at ~1/10 the cost (default on
/// the single-core CI machine). Controlled by the SWFT_SCALE env variable.
enum class ScalePreset { Reduced, Paper };

ScalePreset scaleFromEnv();
/// Sets the preset's message budget (warm-up and measured messages, paper
/// §5.2). The cycle cap is the caller's to set.
void applyScale(SimConfig& cfg, ScalePreset scale);

}  // namespace swft
