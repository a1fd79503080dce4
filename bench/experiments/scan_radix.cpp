// scan_radix (beyond-paper workload): radix/dimension scan over 4…16-ary
// 2-cubes and 4…8-ary 3-cubes under the permutation traffic patterns. The
// paper evaluates uniform traffic on 8/16-ary machines only; this scan shows
// how the Software-Based layer behaves as the machine grows and as traffic
// stops being benign (tornado stresses wrap links, bitrev/shuffle stress
// bisection).
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildScanRadix() {
  const ScalePreset scale = scaleFromEnv();
  const std::uint64_t maxCycles = scale == ScalePreset::Paper ? 2'000'000 : 200'000;
  struct Machine {
    int radix;
    int dims;
  };
  const Machine machines[] = {
      {4, 2}, {6, 2}, {8, 2}, {10, 2}, {12, 2}, {16, 2}, {4, 3}, {6, 3}, {8, 3},
  };
  const TrafficPattern patterns[] = {
      TrafficPattern::Uniform,
      TrafficPattern::BitReversal,
      TrafficPattern::Shuffle,
      TrafficPattern::Tornado,
  };

  std::vector<SweepPoint> points;
  for (const Machine& m : machines) {
    for (const TrafficPattern pattern : patterns) {
      for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
        SweepPoint p;
        SimConfig& cfg = p.cfg;
        cfg.radix = m.radix;
        cfg.dims = m.dims;
        cfg.vcs = 6;
        cfg.messageLength = 32;
        // Offered load shrinks with the ring length so every machine sits at
        // a comparable, sub-saturation fraction of its uniform-traffic
        // capacity (the adversarial permutations may still saturate — that
        // contrast is the point of the scan).
        cfg.injectionRate = (m.dims == 2 ? 0.06 : 0.045) / m.radix;
        cfg.pattern = pattern;
        cfg.routing = mode;
        cfg.seed = 11000 + static_cast<std::uint64_t>(m.radix * 10 + m.dims);
        applyScale(cfg, scale);
        cfg.maxCycles = maxCycles;
        char label[96];
        std::snprintf(label, sizeof label, "k%02d/n%d/%s/%s", m.radix, m.dims,
                      std::string(trafficPatternName(pattern)).c_str(), bench::modeTag(mode));
        p.label = label;
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "scan_radix",
    .description = "radix/dimension scan (4..16-ary 2/3-cubes) under permutation traffic",
    .build = buildScanRadix,
    .columns = {"latency", "throughput", "hops", "saturated"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
