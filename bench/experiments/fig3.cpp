// Fig. 3 reproduction: mean message latency vs traffic rate in an 8-ary
// 2-cube, deterministic + adaptive Software-Based routing, M in {32, 64},
// V in {4, 6, 10}, nf in {0, 3, 5} random node faults.
#include <charconv>

#include "bench/experiments/experiment_common.hpp"
#include "src/util/text.hpp"

namespace swft {
namespace {

std::vector<SweepPoint> buildFig3() {
  // The grid is rebuilt on every run, a warm cache replay included, so it
  // reads SWFT_SCALE once and formats each label without snprintf.
  const ScalePreset scale = scaleFromEnv();
  const std::uint64_t maxCycles = scale == ScalePreset::Paper ? 8'000'000 : 150'000;
  // The paper's x-axes end slightly past the saturation point per panel;
  // maximum rate grows with V as in the Fig. 3 panels.
  const double maxRateByV[] = {0.014, 0.016, 0.020};
  const int vcsGrid[] = {4, 6, 10};
  constexpr int kRates = 6;

  std::vector<SweepPoint> points;
  points.reserve(2 * 3 * 2 * 3 * kRates);
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (int vi = 0; vi < 3; ++vi) {
      const std::vector<double> rates = rateGrid(maxRateByV[vi], kRates);
      for (const int msgLen : {32, 64}) {
        for (const int nf : {0, 3, 5}) {
          for (const double rate : rates) {
            SweepPoint& p = points.emplace_back();
            SimConfig& cfg = p.cfg;
            cfg.radix = 8;
            cfg.dims = 2;
            cfg.vcs = vcsGrid[vi];
            cfg.messageLength = msgLen;
            cfg.injectionRate = rate;
            cfg.routing = mode;
            cfg.faults.randomNodes = nf;
            cfg.seed = 1000 + static_cast<std::uint64_t>(nf);  // same faults per curve
            applyScale(cfg, scale);
            cfg.maxCycles = maxCycles;
            // "%s/M%d/V%d/nf%d/l%.4f": to_chars in fixed form at precision 4
            // writes the bytes %.4f does.
            std::string& label = p.label;
            label.reserve(32);
            label += mode == RoutingMode::Adaptive ? "adp/M" : "det/M";
            appendDecimal(label, msgLen);
            label += "/V";
            appendDecimal(label, cfg.vcs);
            label += "/nf";
            appendDecimal(label, nf);
            label += "/l";
            char buf[32];
            const auto res =
                std::to_chars(buf, buf + sizeof buf, rate, std::chars_format::fixed, 4);
            label.append(buf, res.ptr);
          }
        }
      }
    }
  }
  return points;
}

const ExperimentRegistrar reg{{
    .name = "fig3",
    .description = "mean message latency vs traffic rate, 8-ary 2-cube (paper Fig. 3)",
    .build = buildFig3,
    .columns = {"latency", "throughput", "queued"},
    .epilogue = {},
}};

}  // namespace
}  // namespace swft
