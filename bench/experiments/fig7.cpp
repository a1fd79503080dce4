// Fig. 7 reproduction: number of messages queued (software absorptions) vs
// number of random node faults in an 8-ary 3-cube, M=32, V=10, generation
// rates "70" and "100" — interpreted as messages/node per 10,000 cycles
// (lambda = 0.007 / 0.010; see EXPERIMENTS.md, E5).
//
// Protocol: fixed-duration runs — at a higher generation rate more messages
// enter the network over the same interval, so more encounter the static
// faults; a message contributes once per absorption, as in the paper.
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildFig7() {
  const std::uint64_t cycles = scaleFromEnv() == ScalePreset::Paper ? 200'000 : 30'000;
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const double rate : {0.0070, 0.0100}) {
      for (int nf = 0; nf <= 12; ++nf) {
        SweepPoint p;
        SimConfig& cfg = p.cfg;
        cfg.radix = 8;
        cfg.dims = 3;
        cfg.vcs = 10;
        cfg.messageLength = 32;
        cfg.injectionRate = rate;
        cfg.routing = mode;
        cfg.faults.randomNodes = nf;
        cfg.seed = 5000 + static_cast<std::uint64_t>(nf);
        bench::makeFixedDuration(cfg, cycles);
        char label[64];
        std::snprintf(label, sizeof label, "%s/rate%d/nf%d",
                      mode == RoutingMode::Adaptive ? "adp" : "det",
                      static_cast<int>(rate * 10000), nf);
        p.label = label;
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "fig7",
    .description = "messages queued vs number of random faulty nodes, 8-ary 3-cube "
                   "(paper Fig. 7)",
    .build = buildFig7,
    .columns = {"queued", "absorbed", "reversals", "detours", "throughput"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
