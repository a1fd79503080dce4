// Macroscopic behavioural properties the paper's evaluation relies on.
#include <gtest/gtest.h>

#include "src/sim/network.hpp"
#include "tests/result_compare.hpp"

namespace swft {
namespace {

SimConfig base2D() {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 16;
  cfg.injectionRate = 0.004;
  cfg.warmupMessages = 300;
  cfg.measuredMessages = 2500;
  cfg.maxCycles = 600'000;
  cfg.seed = 1234;
  return cfg;
}

TEST(EngineProperties, BitReproducibleForFixedSeed) {
  SimConfig cfg = base2D();
  cfg.faults.randomNodes = 3;
  const SimResult a = runSimulation(cfg);
  const SimResult b = runSimulation(cfg);
  expectSameResult(a, b);
}

TEST(EngineProperties, DifferentSeedsGiveDifferentButSaneRuns) {
  SimConfig cfg = base2D();
  cfg.faults.randomNodes = 3;
  SimConfig cfg2 = cfg;
  cfg2.seed = 999;
  const SimResult a = runSimulation(cfg);
  const SimResult b = runSimulation(cfg2);
  EXPECT_NE(a.meanLatency, b.meanLatency);
  EXPECT_NEAR(a.meanLatency, b.meanLatency, a.meanLatency * 0.5)
      << "same physics, different noise";
}

TEST(EngineProperties, LatencyMonotoneInOfferedLoad) {
  double last = 0;
  for (const double rate : {0.002, 0.006, 0.010}) {
    SimConfig cfg = base2D();
    cfg.injectionRate = rate;
    const SimResult r = runSimulation(cfg);
    ASSERT_TRUE(r.completed) << "rate " << rate;
    EXPECT_GT(r.meanLatency, last * 0.98) << "latency must not drop as load rises";
    last = r.meanLatency;
  }
}

TEST(EngineProperties, ThroughputTracksOfferedLoadBelowSaturation) {
  SimConfig cfg = base2D();
  cfg.injectionRate = 0.004;
  const SimResult r = runSimulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.throughput, cfg.injectionRate, cfg.injectionRate * 0.2);
}

TEST(EngineProperties, FaultFreeRunsNeverAbsorb) {
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    SimConfig cfg = base2D();
    cfg.routing = mode;
    const SimResult r = runSimulation(cfg);
    EXPECT_EQ(r.messagesQueued, 0u);
    EXPECT_EQ(r.absorbedMessages, 0u);
  }
}

TEST(EngineProperties, FaultsRaiseLatencyAndQueueing) {
  SimConfig healthy = base2D();
  SimConfig faulty = base2D();
  faulty.faults.randomNodes = 5;
  const SimResult h = runSimulation(healthy);
  const SimResult f = runSimulation(faulty);
  ASSERT_TRUE(h.completed);
  ASSERT_TRUE(f.completed);
  EXPECT_GT(f.messagesQueued, 0u);
  EXPECT_GT(f.meanLatency, h.meanLatency * 0.95)
      << "faults must not make the network faster";
}

TEST(EngineProperties, MoreFaultsQueueMoreMessages) {
  std::uint64_t last = 0;
  for (const int nf : {1, 5, 10}) {
    SimConfig cfg = base2D();
    cfg.vcs = 6;
    cfg.faults.randomNodes = nf;
    const SimResult r = runSimulation(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.messagesQueued, last) << "nf=" << nf;
    last = r.messagesQueued;
  }
}

TEST(EngineProperties, LongerMessagesHaveHigherLatency) {
  SimConfig m32 = base2D();
  m32.messageLength = 32;
  SimConfig m64 = base2D();
  m64.messageLength = 64;
  m64.injectionRate = m32.injectionRate / 2;  // same flit load
  const SimResult a = runSimulation(m32);
  const SimResult b = runSimulation(m64);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_GT(b.meanLatency, a.meanLatency + 16)
      << "latency is proportional to message length (paper §5.2)";
}

TEST(EngineProperties, AdaptiveQueuesFewerMessagesThanDeterministic) {
  // The core Fig. 7 observation.
  SimConfig det = base2D();
  det.vcs = 6;
  det.faults.randomNodes = 5;
  SimConfig adp = det;
  adp.routing = RoutingMode::Adaptive;
  const SimResult d = runSimulation(det);
  const SimResult a = runSimulation(adp);
  ASSERT_TRUE(d.completed);
  ASSERT_TRUE(a.completed);
  EXPECT_LT(a.messagesQueued, d.messagesQueued)
      << "adaptive routing avoids delivering messages to intermediate nodes";
}

TEST(EngineProperties, AdaptiveLatencyNoWorseUnderFaults) {
  SimConfig det = base2D();
  det.vcs = 6;
  det.faults.randomNodes = 5;
  det.injectionRate = 0.006;
  SimConfig adp = det;
  adp.routing = RoutingMode::Adaptive;
  const SimResult d = runSimulation(det);
  const SimResult a = runSimulation(adp);
  ASSERT_TRUE(d.completed);
  ASSERT_TRUE(a.completed);
  EXPECT_LT(a.meanLatency, d.meanLatency * 1.10)
      << "Fig. 5: adaptive latency is substantially lower than deterministic";
}

TEST(EngineProperties, MoreVirtualChannelsDoNotHurt) {
  SimConfig v2 = base2D();
  v2.vcs = 2;
  v2.injectionRate = 0.008;
  SimConfig v10 = v2;
  v10.vcs = 10;
  const SimResult a = runSimulation(v2);
  const SimResult b = runSimulation(v10);
  ASSERT_TRUE(b.completed);
  if (a.completed) {
    EXPECT_LT(b.meanLatency, a.meanLatency * 1.25)
        << "added VCs must not degrade latency materially";
  }
}

TEST(EngineProperties, SaturationFlagRaisedAtExtremeLoad) {
  SimConfig cfg = base2D();
  cfg.messageLength = 32;
  cfg.injectionRate = 0.05;  // far beyond 8-ary 2-cube capacity (~0.016)
  cfg.maxCycles = 120'000;
  const SimResult r = runSimulation(cfg);
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.throughput, 0.035) << "accepted rate must cap below offered";
  EXPECT_FALSE(r.deadlockSuspected) << "saturation is congestion, not deadlock";
}

TEST(EngineProperties, WarmupMessagesExcludedFromLatencyStats) {
  SimConfig cfg = base2D();
  cfg.warmupMessages = 1000;
  cfg.measuredMessages = 1000;
  Network net(cfg);
  const SimResult r = net.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.deliveredMeasured, cfg.measuredMessages);
  EXPECT_GE(r.deliveredTotal, r.deliveredMeasured + cfg.warmupMessages * 9 / 10)
      << "warm-up messages are delivered but not measured";
}

TEST(EngineProperties, PercentilesOrderedAndBracketMean) {
  SimConfig cfg = base2D();
  cfg.faults.randomNodes = 3;
  const SimResult r = runSimulation(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.latencyP50, 0.0);
  EXPECT_LE(r.latencyP50, r.latencyP95);
  EXPECT_LE(r.latencyP95, r.latencyP99);
  EXPECT_LE(r.latencyP99, r.maxLatency * 1.25);  // bucket resolution slack
  EXPECT_GT(r.latencyCi95, 0.0);
  EXPECT_LT(r.latencyCi95, r.meanLatency) << "mean is statistically resolved";
}

TEST(EngineProperties, ZeroLoadNetworkStaysQuiescent) {
  SimConfig cfg = base2D();
  cfg.injectionRate = 0.0;
  cfg.maxCycles = 5000;
  Network net(cfg);
  net.step(5000);
  EXPECT_EQ(net.generated(), 0u);
  EXPECT_EQ(net.delivered(), 0u);
  EXPECT_FALSE(net.deadlockSuspected()) << "empty network must not trip the watchdog";
}

}  // namespace
}  // namespace swft
