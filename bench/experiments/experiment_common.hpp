// Shared scaffolding for the registered experiment specs.
//
// Each TU in this directory registers one or more ExperimentSpecs via a
// static ExperimentRegistrar; `swft_bench` (and tests) link the whole
// directory, so registration is purely additive — no central list.
//
// Scale: SWFT_SCALE=paper reproduces the paper's 100k-message runs; the
// default reduced scale preserves curve shapes at ~1/10 the cost. Each
// builder reads it once per grid (scaleFromEnv) and passes it to applyScale.
#pragma once

#include "src/harness/experiment_registry.hpp"
#include "src/harness/sweep.hpp"
#include "src/sim/network.hpp"

namespace swft::bench {

/// Shorthand for a fixed-duration run (Fig. 6/7 protocol): the run length is
/// bounded by cycles, not by a delivered-message target.
inline void makeFixedDuration(SimConfig& cfg, std::uint64_t cycles) {
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  cfg.maxCycles = cycles;
}

}  // namespace swft::bench
