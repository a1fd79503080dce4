// The three ablation experiments (A1–A3): parameters the paper fixes or
// leaves unreported, swept to quantify their impact.
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

// A1: size of the Duato escape pool (2 vs 4 escape VCs of V=6/10) under
// random faults. More escape bandwidth helps downgraded (deterministic)
// messages after absorption, at the cost of adaptive flexibility.
std::vector<SweepPoint> buildVcPartition() {
  const ScalePreset scale = scaleFromEnv();
  std::vector<SweepPoint> points;
  for (const int vcs : {6, 10}) {
    for (const int escape : {2, 4}) {
      for (const int nf : {0, 5}) {
        for (const double rate : rateGrid(0.016, 4)) {
          SweepPoint p;
          SimConfig& cfg = p.cfg;
          cfg.radix = 8;
          cfg.dims = 2;
          cfg.vcs = vcs;
          cfg.escapeVcs = escape;
          cfg.messageLength = 32;
          cfg.injectionRate = rate;
          cfg.routing = RoutingMode::Adaptive;
          cfg.faults.randomNodes = nf;
          cfg.seed = 6000 + static_cast<std::uint64_t>(nf);
          applyScale(cfg, scale);
          cfg.maxCycles = 300'000;
          char label[64];
          std::snprintf(label, sizeof label, "V%d/esc%d/nf%d/l%.4f", vcs, escape, nf,
                        rate);
          p.label = label;
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

// A2: software re-injection overhead Delta (paper assumption (i)). The paper
// sets Delta = 0 ("negligible compared to the channel cycle time"); this
// experiment quantifies how much latency a real messaging-layer delay would
// add under faults, validating that assumption's impact.
std::vector<SweepPoint> buildReinjection() {
  const ScalePreset scale = scaleFromEnv();
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const int delta : {0, 8, 16, 32, 64, 128}) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 8;
      cfg.dims = 2;
      cfg.vcs = 6;
      cfg.messageLength = 32;
      cfg.injectionRate = 0.006;
      cfg.routing = mode;
      cfg.reinjectDelay = delta;
      cfg.faults.randomNodes = 5;
      cfg.seed = 7000;
      applyScale(cfg, scale);
      cfg.maxCycles = 300'000;
      char label[64];
      std::snprintf(label, sizeof label, "%s/delta%d",
                    mode == RoutingMode::Adaptive ? "adp" : "det", delta);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// A3: per-VC flit buffer depth. The paper lists buffer length among the
// simulator parameters without reporting a sweep; this experiment fills that
// gap and shows the latency/saturation sensitivity to buffering.
std::vector<SweepPoint> buildBufferDepth() {
  const ScalePreset scale = scaleFromEnv();
  std::vector<SweepPoint> points;
  for (const int depth : {1, 2, 4, 8, 16}) {
    for (const double rate : rateGrid(0.014, 4)) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 8;
      cfg.dims = 2;
      cfg.vcs = 4;
      cfg.bufferDepth = depth;
      cfg.messageLength = 32;
      cfg.injectionRate = rate;
      cfg.routing = RoutingMode::Deterministic;
      cfg.faults.randomNodes = 3;
      cfg.seed = 8000;
      applyScale(cfg, scale);
      cfg.maxCycles = 300'000;
      char label[64];
      std::snprintf(label, sizeof label, "B%d/l%.4f", depth, rate);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

const ExperimentRegistrar regVc{{
    .name = "abl_vc_partition",
    .description = "ablation: Duato escape-pool size under faults",
    .build = buildVcPartition,
    .columns = {"latency", "throughput", "queued"},
    .epilogue = {},
}};

const ExperimentRegistrar regReinject{{
    .name = "abl_reinjection_overhead",
    .description = "ablation: software re-injection overhead Delta",
    .build = buildReinjection,
    .columns = {"latency", "queued", "throughput"},
    .epilogue = {},
}};

const ExperimentRegistrar regBuffer{{
    .name = "abl_buffer_depth",
    .description = "ablation: per-VC flit buffer depth",
    .build = buildBufferDepth,
    .columns = {"latency", "throughput", "saturated"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
