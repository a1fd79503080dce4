// faultscape (beyond-paper workload): fault-count × traffic-pattern
// landscape on an 8-ary 2-cube. The paper reports uniform traffic over a
// handful of fault shapes; this experiment crosses every traffic pattern
// with a growing random-fault population and renders the result as
// heatmaps — a latency matrix over the (nf, pattern) grid, plus the ASCII
// fault map and software-absorption heatmap (src/harness/heatmap) for the
// heaviest fault population.
#include <cstdio>

#include <sstream>

#include "bench/experiments/experiment_common.hpp"
#include "src/harness/heatmap.hpp"

namespace swft {
namespace {

constexpr int kFaultGrid[] = {0, 4, 8, 12, 16};

std::vector<SweepPoint> buildFaultscape() {
  const ScalePreset scale = scaleFromEnv();
  const std::uint64_t maxCycles = scale == ScalePreset::Paper ? 4'000'000 : 150'000;
  std::vector<SweepPoint> points;
  for (const int nf : kFaultGrid) {
    for (const TrafficPattern pattern : kAllTrafficPatterns) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 8;
      cfg.dims = 2;
      cfg.vcs = 6;
      cfg.messageLength = 32;
      cfg.injectionRate = 0.006;
      cfg.pattern = pattern;
      cfg.routing = RoutingMode::Adaptive;
      cfg.faults.randomNodes = nf;
      cfg.seed = 12000 + static_cast<std::uint64_t>(nf);  // same faults across patterns
      applyScale(cfg, scale);
      cfg.maxCycles = maxCycles;
      char label[64];
      std::snprintf(label, sizeof label, "nf%02d/%s", nf,
                    std::string(trafficPatternName(pattern)).c_str());
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// Latency matrix over the grid plus the spatial heatmaps for the heaviest
// fault population (re-simulated once to recover per-node absorption counts,
// which SimResult deliberately does not carry).
std::string faultscapeEpilogue(const std::vector<SweepRow>& rows) {
  std::ostringstream os;
  os << "\nmean latency heatmap (rows: faults, cols: traffic):\n";
  os << "      ";
  for (const TrafficPattern pattern : kAllTrafficPatterns) {
    char cell[16];
    std::snprintf(cell, sizeof cell, "%10s", std::string(trafficPatternName(pattern)).c_str());
    os << cell;
  }
  os << '\n';
  for (const int nf : kFaultGrid) {
    char head[16];
    std::snprintf(head, sizeof head, "nf%02d  ", nf);
    os << head;
    for (const TrafficPattern pattern : kAllTrafficPatterns) {
      char want[64];
      std::snprintf(want, sizeof want, "nf%02d/%s", nf,
                    std::string(trafficPatternName(pattern)).c_str());
      double latency = -1.0;
      bool saturated = false;
      for (const SweepRow& row : rows) {
        if (row.point.label == want) {
          latency = row.result.meanLatency;
          saturated = row.result.saturated;
          break;
        }
      }
      char cell[16];
      if (latency < 0.0) {
        std::snprintf(cell, sizeof cell, "%10s", "-");  // other shard
      } else {
        std::snprintf(cell, sizeof cell, "%9.1f%c", latency, saturated ? '*' : ' ');
      }
      os << cell;
    }
    os << '\n';
  }
  os << "(* = saturated)\n";

  // Spatial view of the heaviest fault population under uniform traffic.
  const SweepRow* heaviest = nullptr;
  char want[64];
  std::snprintf(want, sizeof want, "nf%02d/%s", kFaultGrid[std::size(kFaultGrid) - 1],
                std::string(trafficPatternName(TrafficPattern::Uniform)).c_str());
  for (const SweepRow& row : rows) {
    if (row.point.label == want) heaviest = &row;
  }
  if (heaviest != nullptr) {
    Network net(heaviest->point.cfg);
    (void)net.run();
    os << "\nfault map (" << heaviest->point.label << "):\n"
       << renderFaultMap(net.topology(), net.faults());
    os << "software-absorption heatmap:\n" << renderAbsorptionHeatmap(net);
  }
  return os.str();
}

const ExperimentRegistrar reg{{
    .name = "faultscape",
    .description = "fault-count x traffic-pattern heatmap, 8-ary 2-cube",
    .build = buildFaultscape,
    .columns = {"latency", "throughput", "queued", "absorbed"},
    .epilogue = faultscapeEpilogue,
}};

}  // namespace
}  // namespace swft
