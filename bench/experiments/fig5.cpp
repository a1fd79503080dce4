// Fig. 5 reproduction: mean message latency vs traffic rate in an 8-ary
// 2-cube with the paper's five coalesced fault regions: rect (nf=20),
// T (nf=10), plus (nf=16), L (nf=9), U (nf=8); M=32, V=10, deterministic
// and adaptive routing.
#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildFig5() {
  const ScalePreset scale = scaleFromEnv();
  const std::uint64_t maxCycles = scale == ScalePreset::Paper ? 8'000'000 : 150'000;
  const TorusTopology topo(8, 2);
  struct Entry {
    const char* name;
    RegionSpec spec;
  };
  const Entry regions[] = {
      {"rect20", fig5Rect20(topo)}, {"T10", fig5T10(topo)}, {"plus16", fig5Plus16(topo)},
      {"L9", fig5L9(topo)},         {"U8", fig5U8(topo)},
  };

  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const Entry& region : regions) {
      SimConfig cfg;
      cfg.radix = 8;
      cfg.dims = 2;
      cfg.vcs = 10;
      cfg.messageLength = 32;
      cfg.routing = mode;
      cfg.faults.regions.push_back(region.spec);
      cfg.seed = 3000;
      applyScale(cfg, scale);
      cfg.maxCycles = maxCycles;
      std::string prefix = bench::modeTag(mode);
      prefix += '/';
      prefix += region.name;
      bench::appendRateCurve(points, cfg, prefix, 0.020, 6);
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "fig5",
    .description = "mean message latency vs traffic rate under convex/concave fault "
                   "regions (paper Fig. 5)",
    .build = buildFig5,
    .columns = {"latency", "throughput", "queued", "detours"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
