// Model-vs-simulation comparison (extension): evaluates the analytic
// latency model of src/model against the flit-level simulator across the
// Fig. 3 load grid, fault-free and with 5 random faults.
#include <cstdio>

#include "bench/experiments/experiment_common.hpp"
#include "src/model/analytic.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildGrid() {
  const ScalePreset scale = scaleFromEnv();
  std::vector<SweepPoint> points;
  for (const int nf : {0, 5}) {
    for (const double rate : rateGrid(0.010, 5)) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 8;
      cfg.dims = 2;
      cfg.vcs = 4;
      cfg.messageLength = 32;
      cfg.injectionRate = rate;
      cfg.faults.randomNodes = nf;
      cfg.seed = 9000 + static_cast<std::uint64_t>(nf);
      applyScale(cfg, scale);
      cfg.maxCycles = 300'000;
      char label[64];
      std::snprintf(label, sizeof label, "nf%d/l%.4f", nf, rate);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// Append the model side of the comparison below the simulation table.
std::string modelEpilogue(const std::vector<SweepRow>& rows) {
  std::string out = "\nanalytic model:\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %12s %12s %12s\n", "point", "model_lat",
                "abs_prob", "sat_est");
  out += line;
  for (const SweepRow& row : rows) {
    const ModelResult m = analyticLatency(row.point.cfg);
    std::snprintf(line, sizeof line, "%-18s %12.1f %12.3f %12.4f%s\n",
                  row.point.label.c_str(), m.meanLatency, m.absorbProbability,
                  m.saturationRate, m.saturated ? "  [saturated]" : "");
    out += line;
  }
  return out;
}

const ExperimentRegistrar reg{{
    .name = "model_vs_sim",
    .description = "flit-level simulation vs analytic model",
    .build = buildGrid,
    .columns = {"latency", "hops"},
    .epilogue = modelEpilogue,
}};

}  // namespace
}  // namespace swft
