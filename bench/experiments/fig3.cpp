// Figs. 3 and 4 reproduction: mean message latency vs traffic rate in an
// 8-ary n-cube, deterministic + adaptive Software-Based routing, M in
// {32, 64}, V in {4, 6, 10}. Fig. 3 is the 2-cube with nf in {0, 3, 5}
// random node faults, Fig. 4 the 3-cube with nf in {0, 12}. One builder
// makes both grids.
#include <initializer_list>

#include "bench/experiments/experiment_common.hpp"
#include "src/util/text.hpp"

namespace swft {
namespace {

constexpr int kVcsGrid[] = {4, 6, 10};

/// One latency-vs-rate figure over the (mode, V, M, nf, rate) grid.
struct LatencyFigure {
  int dims;
  /// The paper's x-axes end slightly past the saturation point per panel;
  /// maximum rate grows with V.
  double maxRateByV[std::size(kVcsGrid)];
  std::initializer_list<int> faultCounts;
  std::uint64_t seedBase;  // seed = seedBase + nf: same faults per curve
  std::uint64_t paperMaxCycles;
  std::uint64_t reducedMaxCycles;
};

// The grid is rebuilt on every run, a warm cache replay included, so it
// reads SWFT_SCALE once and formats each label without snprintf.
std::vector<SweepPoint> buildLatencyFigure(const LatencyFigure& fig) {
  const ScalePreset scale = scaleFromEnv();
  constexpr int kRates = 6;

  std::vector<SweepPoint> points;
  points.reserve(2 * std::size(kVcsGrid) * 2 * fig.faultCounts.size() * kRates);
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (std::size_t vi = 0; vi < std::size(kVcsGrid); ++vi) {
      for (const int msgLen : {32, 64}) {
        for (const int nf : fig.faultCounts) {
          SimConfig cfg;
          cfg.radix = 8;
          cfg.dims = fig.dims;
          cfg.vcs = kVcsGrid[vi];
          cfg.messageLength = msgLen;
          cfg.routing = mode;
          cfg.faults.randomNodes = nf;
          cfg.seed = fig.seedBase + static_cast<std::uint64_t>(nf);
          applyScale(cfg, scale);
          cfg.maxCycles =
              scale == ScalePreset::Paper ? fig.paperMaxCycles : fig.reducedMaxCycles;
          std::string prefix = bench::modeTag(mode);
          prefix += "/M";
          appendDecimal(prefix, msgLen);
          prefix += "/V";
          appendDecimal(prefix, cfg.vcs);
          prefix += "/nf";
          appendDecimal(prefix, nf);
          bench::appendRateCurve(points, cfg, prefix, fig.maxRateByV[vi], kRates);
        }
      }
    }
  }
  return points;
}

const ExperimentRegistrar regFig3{{
    .name = "fig3",
    .description = "mean message latency vs traffic rate, 8-ary 2-cube (paper Fig. 3)",
    .build =
        [] {
          return buildLatencyFigure({.dims = 2,
                                     .maxRateByV = {0.014, 0.016, 0.020},
                                     .faultCounts = {0, 3, 5},
                                     .seedBase = 1000,
                                     .paperMaxCycles = 8'000'000,
                                     .reducedMaxCycles = 150'000});
        },
    .columns = {"latency", "throughput", "queued"},
    .epilogue = {},
}};

// 512 nodes: latency convergence needs fewer cycles per message.
const ExperimentRegistrar regFig4{{
    .name = "fig4",
    .description = "mean message latency vs traffic rate, 8-ary 3-cube (paper Fig. 4)",
    .build =
        [] {
          return buildLatencyFigure({.dims = 3,
                                     .maxRateByV = {0.014, 0.018, 0.021},
                                     .faultCounts = {0, 12},
                                     .seedBase = 2000,
                                     .paperMaxCycles = 4'000'000,
                                     .reducedMaxCycles = 50'000});
        },
    .columns = {"latency", "throughput", "queued"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
