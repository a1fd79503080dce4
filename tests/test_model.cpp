// Validation of the analytic latency model against exact values and the
// flit-level simulator (the paper's §6 future-work item, built and tested).
#include "src/model/analytic.hpp"

#include <gtest/gtest.h>

#include "tests/naming.hpp"

#include "src/sim/network.hpp"

namespace swft {
namespace {

TEST(ModelDistance, ExactSmallCases) {
  // 4-ary 1-cube: offsets {0,1,2,1}, mean over 3 non-self = (1+2+1)/3.
  EXPECT_NEAR(meanUniformDistance(4, 1), 4.0 / 3.0, 1e-12);
  // 8-ary 2-cube: per-dim mean over all offsets = 2; x2 dims; x64/63.
  EXPECT_NEAR(meanUniformDistance(8, 2), 4.0 * 64.0 / 63.0, 1e-12);
  // 8-ary 3-cube.
  EXPECT_NEAR(meanUniformDistance(8, 3), 6.0 * 512.0 / 511.0, 1e-12);
}

TEST(ModelDistance, MatchesMeasuredHops) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.injectionRate = 0.003;
  cfg.warmupMessages = 200;
  cfg.measuredMessages = 3000;
  cfg.seed = 99;
  const SimResult sim = runSimulation(cfg);
  EXPECT_NEAR(sim.meanHops, meanUniformDistance(8, 2), 0.1);
}

TEST(Model, UnloadedLatencyIsHopsPlusLength) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 32;
  cfg.injectionRate = 1e-6;
  const ModelResult m = analyticLatency(cfg);
  EXPECT_NEAR(m.meanLatency, m.meanHops + 32, 1.5);
  EXPECT_FALSE(m.saturated);
}

TEST(Model, MonotoneInLoadAndDivergesAtSaturation) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 32;
  double last = 0.0;
  for (double rate : {0.002, 0.004, 0.008, 0.012}) {
    cfg.injectionRate = rate;
    const ModelResult m = analyticLatency(cfg);
    EXPECT_GT(m.meanLatency, last);
    last = m.meanLatency;
  }
  cfg.injectionRate = 0.05;  // far beyond capacity
  EXPECT_TRUE(analyticLatency(cfg).saturated);
}

TEST(Model, SaturationEstimateInPlausibleBand) {
  // 8-ary 2-cube, M=32: capacity 2n/(dbar*M) ~ 0.031 theoretical ideal;
  // wormhole simulators reach roughly half of it.
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.messageLength = 32;
  const ModelResult m = analyticLatency(cfg);
  EXPECT_GT(m.saturationRate, 0.015);
  EXPECT_LT(m.saturationRate, 0.05);
}

TEST(Model, FaultsRaiseLatencyAndAbsorptionProbability) {
  SimConfig healthy;
  healthy.radix = 8;
  healthy.dims = 2;
  healthy.messageLength = 32;
  healthy.injectionRate = 0.004;
  SimConfig faulty = healthy;
  faulty.faults.randomNodes = 5;
  const ModelResult h = analyticLatency(healthy);
  const ModelResult f = analyticLatency(faulty);
  EXPECT_EQ(h.absorbProbability, 0.0);
  EXPECT_GT(f.absorbProbability, 0.2);  // 5/63 per router over ~4 hops
  EXPECT_LT(f.absorbProbability, 0.5);
  EXPECT_GT(f.meanLatency, h.meanLatency);
}

TEST(Model, RegionNodesCountTowardFaultFraction) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.messageLength = 32;
  cfg.injectionRate = 0.002;
  const TorusTopology topo(8, 2);
  cfg.faults.regions.push_back(fig5U8(topo));  // 8 nodes
  const ModelResult m = analyticLatency(cfg);
  EXPECT_GT(m.absorbProbability, 0.3);
}

struct AgreementCase {
  int k, n, vcs, msgLen;
  double rate;
  double tolerance;  // relative
};

class ModelVsSim : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(ModelVsSim, AgreesBelowSaturation) {
  const auto& p = GetParam();
  SimConfig cfg;
  cfg.radix = p.k;
  cfg.dims = p.n;
  cfg.vcs = p.vcs;
  cfg.messageLength = p.msgLen;
  cfg.injectionRate = p.rate;
  cfg.warmupMessages = 400;
  cfg.measuredMessages = 4000;
  cfg.seed = 321;
  const SimResult sim = runSimulation(cfg);
  ASSERT_TRUE(sim.completed);
  const ModelResult model = analyticLatency(cfg);
  ASSERT_FALSE(model.saturated);
  EXPECT_NEAR(model.meanLatency, sim.meanLatency, sim.meanLatency * p.tolerance)
      << "model " << model.meanLatency << " vs sim " << sim.meanLatency;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelVsSim,
    ::testing::Values(AgreementCase{8, 2, 4, 32, 0.002, 0.25},
                      AgreementCase{8, 2, 4, 32, 0.005, 0.25},
                      AgreementCase{8, 2, 6, 32, 0.006, 0.25},
                      AgreementCase{8, 2, 4, 64, 0.002, 0.25},
                      AgreementCase{8, 3, 4, 32, 0.004, 0.30},
                      AgreementCase{4, 2, 4, 16, 0.010, 0.30}),
    [](const auto& info) {
      const auto& p = info.param;
      return catName({knName(p.k, p.n), "V", std::to_string(p.vcs), "M",
                      std::to_string(p.msgLen), "r",
                      std::to_string(static_cast<int>(p.rate * 10000))});
    });

// Under faults the model runs low: it has no repeat absorptions, no detour
// hops and no load that concentrates around the faults. These checks pin its
// error at the model_vs_sim grid's nf=5 points (that grid's seed and the
// default scale), so a change on either side shows here.
SimConfig fiveFaultPoint(double rate) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 32;
  cfg.injectionRate = rate;
  cfg.faults.randomNodes = 5;
  cfg.seed = 9005;
  applyScale(cfg, ScalePreset::Reduced);
  cfg.maxCycles = 300'000;
  return cfg;
}

TEST(ModelVsSimFaulted, SignedErrorPinnedAtFiveFaults) {
  struct Band {
    double rate, minError, maxError;  // (model - sim) / sim
  };
  for (const Band& b : {Band{0.002, -0.24, -0.14}, Band{0.004, -0.30, -0.20}}) {
    const SimConfig cfg = fiveFaultPoint(b.rate);
    const SimResult sim = runSimulation(cfg);
    ASSERT_TRUE(sim.completed);
    const ModelResult model = analyticLatency(cfg);
    ASSERT_FALSE(model.saturated);
    const double error = (model.meanLatency - sim.meanLatency) / sim.meanLatency;
    EXPECT_GE(error, b.minError) << "rate " << b.rate << ": model " << model.meanLatency
                                 << " vs sim " << sim.meanLatency;
    EXPECT_LE(error, b.maxError) << "rate " << b.rate << ": model " << model.meanLatency
                                 << " vs sim " << sim.meanLatency;
  }
}

TEST(ModelVsSimFaulted, SaturationEstimateAtLeastTwiceASaturatedRate) {
  // The simulator's knee lies between 0.008 and 0.010; the model puts it
  // near 0.027, because the load around the faults is not in it.
  const SimConfig cfg = fiveFaultPoint(0.012);
  const SimResult sim = runSimulation(cfg);
  EXPECT_TRUE(sim.saturated) << "accepted " << sim.throughput;
  const ModelResult model = analyticLatency(cfg);
  EXPECT_FALSE(model.saturated);
  EXPECT_GE(model.saturationRate, 2.0 * cfg.injectionRate) << model.saturationRate;
}

}  // namespace
}  // namespace swft
