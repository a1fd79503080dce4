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

#include <charconv>
#include <string_view>

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

/// The routing-mode tag that leads an experiment label.
inline const char* modeTag(RoutingMode mode) {
  return mode == RoutingMode::Adaptive ? "adp" : "det";
}

/// Appends one latency-vs-rate curve (Figs. 3–5 and the ablations): `base`
/// at each rate of rateGrid(maxRate, steps), labelled `<prefix>/l<rate>`.
/// The rate is written by to_chars in fixed form at precision 4, the bytes
/// "%.4f" writes.
inline void appendRateCurve(std::vector<SweepPoint>& points, const SimConfig& base,
                            std::string_view prefix, double maxRate, int steps) {
  for (const double rate : rateGrid(maxRate, steps)) {
    SweepPoint& p = points.emplace_back();
    p.cfg = base;
    p.cfg.injectionRate = rate;
    p.label.reserve(prefix.size() + 16);
    p.label += prefix;
    p.label += "/l";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, rate, std::chars_format::fixed, 4);
    p.label.append(buf, res.ptr);
  }
}

}  // namespace swft::bench
