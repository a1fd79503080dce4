// Fig. 4 reproduction: mean message latency vs traffic rate in an 8-ary
// 3-cube, deterministic + adaptive Software-Based routing, M in {32, 64},
// V in {4, 6, 10}, nf in {0, 12} random node faults.
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildFig4() {
  const ScalePreset scale = scaleFromEnv();
  // 512 nodes: latency convergence needs fewer cycles per message.
  const std::uint64_t maxCycles = scale == ScalePreset::Paper ? 4'000'000 : 50'000;
  std::vector<SweepPoint> points;
  const double maxRateByV[] = {0.014, 0.018, 0.021};
  const int vcsGrid[] = {4, 6, 10};

  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (int vi = 0; vi < 3; ++vi) {
      for (const int msgLen : {32, 64}) {
        for (const int nf : {0, 12}) {
          for (const double rate : rateGrid(maxRateByV[vi], 6)) {
            SweepPoint p;
            SimConfig& cfg = p.cfg;
            cfg.radix = 8;
            cfg.dims = 3;
            cfg.vcs = vcsGrid[vi];
            cfg.messageLength = msgLen;
            cfg.injectionRate = rate;
            cfg.routing = mode;
            cfg.faults.randomNodes = nf;
            cfg.seed = 2000 + static_cast<std::uint64_t>(nf);
            applyScale(cfg, scale);
            cfg.maxCycles = maxCycles;
            char label[96];
            std::snprintf(label, sizeof label, "%s/M%d/V%d/nf%d/l%.4f",
                          mode == RoutingMode::Adaptive ? "adp" : "det", msgLen,
                          cfg.vcs, nf, rate);
            p.label = label;
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "fig4",
    .description = "mean message latency vs traffic rate, 8-ary 3-cube (paper Fig. 4)",
    .build = buildFig4,
    .columns = {"latency", "throughput", "queued"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
