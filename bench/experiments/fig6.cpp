// Fig. 6 reproduction: mean network throughput vs number of random node
// faults in a 16-ary 2-cube, M=32, V=6, deterministic and adaptive routing.
//
// Protocol: fixed-duration runs at a near-saturation offered load; the
// reported metric is the accepted throughput (messages/node/cycle delivered
// over the measurement window), matching the paper's definition of
// throughput as the delivered fraction of the traffic pattern.
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildFig6() {
  const std::uint64_t cycles = scaleFromEnv() == ScalePreset::Paper ? 400'000 : 60'000;
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (int nf = 0; nf <= 11; ++nf) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 16;
      cfg.dims = 2;
      cfg.vcs = 6;
      cfg.messageLength = 32;
      cfg.injectionRate = 0.012;  // just above the V=6 saturation point
      cfg.routing = mode;
      cfg.faults.randomNodes = nf;
      cfg.seed = 4000 + static_cast<std::uint64_t>(nf);
      bench::makeFixedDuration(cfg, cycles);
      char label[64];
      std::snprintf(label, sizeof label, "%s/nf%d",
                    mode == RoutingMode::Adaptive ? "adp" : "det", nf);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "fig6",
    .description = "throughput vs number of random faulty nodes, 16-ary 2-cube "
                   "(paper Fig. 6)",
    .build = buildFig6,
    .columns = {"throughput", "queued", "latency"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
