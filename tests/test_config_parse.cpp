#include "src/sim/config_parse.hpp"

#include <gtest/gtest.h>

#include "src/sim/network.hpp"

namespace swft {
namespace {

SimConfig parse(std::initializer_list<std::string> args) {
  const std::vector<std::string> v(args);
  return parseConfig(v);
}

TEST(ConfigParse, EmptyKeepsDefaults) {
  const SimConfig cfg = parse({});
  const SimConfig def;
  EXPECT_EQ(cfg.radix, def.radix);
  EXPECT_EQ(cfg.vcs, def.vcs);
  EXPECT_EQ(cfg.injectionRate, def.injectionRate);
}

TEST(ConfigParse, ScalarKeys) {
  const SimConfig cfg = parse({"k=16", "n=3", "vcs=10", "buffer_depth=8",
                               "msg_length=64", "rate=0.0125", "delta=32", "td=1",
                               "nf=7", "warmup=123", "measured=456", "max_cycles=789",
                               "seed=42", "livelock_threshold=17", "escape_vcs=4"});
  EXPECT_EQ(cfg.radix, 16);
  EXPECT_EQ(cfg.dims, 3);
  EXPECT_EQ(cfg.vcs, 10);
  EXPECT_EQ(cfg.bufferDepth, 8);
  EXPECT_EQ(cfg.messageLength, 64);
  EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.0125);
  EXPECT_EQ(cfg.reinjectDelay, 32);
  EXPECT_EQ(cfg.routerDecisionTime, 1);
  EXPECT_EQ(cfg.faults.randomNodes, 7);
  EXPECT_EQ(cfg.warmupMessages, 123u);
  EXPECT_EQ(cfg.measuredMessages, 456u);
  EXPECT_EQ(cfg.maxCycles, 789u);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.livelockThreshold, 17);
  EXPECT_EQ(cfg.escapeVcs, 4);
}

TEST(ConfigParse, RoutingAndPatternEnums) {
  EXPECT_EQ(parse({"routing=adaptive"}).routing, RoutingMode::Adaptive);
  EXPECT_EQ(parse({"routing=adp"}).routing, RoutingMode::Adaptive);
  EXPECT_EQ(parse({"routing=det"}).routing, RoutingMode::Deterministic);
  EXPECT_EQ(parse({"pattern=transpose"}).pattern, TrafficPattern::Transpose);
  EXPECT_EQ(parse({"pattern=bitcomp"}).pattern, TrafficPattern::BitComplement);
  EXPECT_EQ(parse({"pattern=hotspot"}).pattern, TrafficPattern::Hotspot);
}

TEST(ConfigParse, TrafficKeyRoundTripsEveryPatternName) {
  // `traffic=` accepts exactly the canonical trafficPatternName tokens, so
  // the parser, the CLI help and `swft_bench --list` can never drift.
  for (const TrafficPattern p : kAllTrafficPatterns) {
    const std::string key = "traffic=" + std::string(trafficPatternName(p));
    EXPECT_EQ(parse({key}).pattern, p) << key;
  }
  EXPECT_EQ(parse({"traffic=bitrev"}).pattern, TrafficPattern::BitReversal);
  EXPECT_EQ(parse({"traffic=shuffle"}).pattern, TrafficPattern::Shuffle);
  EXPECT_EQ(parse({"traffic=tornado"}).pattern, TrafficPattern::Tornado);
  EXPECT_THROW(parse({"traffic=worst"}), std::invalid_argument);
}

TEST(ConfigParse, HotspotFractionRoundTrip) {
  EXPECT_DOUBLE_EQ(SimConfig{}.hotspotFraction, 0.1);
  const SimConfig cfg = parse({"traffic=hotspot", "hotspot_fraction=0.35"});
  EXPECT_EQ(cfg.pattern, TrafficPattern::Hotspot);
  EXPECT_DOUBLE_EQ(cfg.hotspotFraction, 0.35);
  EXPECT_THROW(parse({"hotspot_fraction=1.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"hotspot_fraction=-0.1"}), std::invalid_argument);
  EXPECT_THROW(parse({"hotspot_fraction=lots"}), std::invalid_argument);
}

TEST(ConfigParse, EngineThreadsAndPhaseTimers) {
  EXPECT_EQ(SimConfig{}.engine, parse({}).engine);
  EXPECT_EQ(parse({"engine=sparse"}).engine, EngineKind::Sparse);
  EXPECT_EQ(parse({"engine=sparse-mt"}).engine, EngineKind::SparseMt);
  EXPECT_EQ(parse({"sim_threads=5"}).simThreads, 5);
  EXPECT_FALSE(parse({}).phaseTimers);
  EXPECT_TRUE(parse({"phase_timers=1"}).phaseTimers);
  EXPECT_FALSE(parse({"phase_timers=0"}).phaseTimers);
  EXPECT_THROW(parse({"engine=turbo"}), std::invalid_argument);
  EXPECT_THROW(parse({"engine=dense"}), std::invalid_argument);
  EXPECT_THROW(parse({"sim_threads=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"phase_timers=yes"}), std::invalid_argument);
}

TEST(ConfigParse, RegionWithAnchor) {
  const SimConfig cfg = parse({"k=8", "n=2", "region=U:4x3@2,5"});
  ASSERT_EQ(cfg.faults.regions.size(), 1u);
  const RegionSpec& r = cfg.faults.regions[0];
  EXPECT_EQ(r.shape, RegionShape::U);
  EXPECT_EQ(r.extent0, 4);
  EXPECT_EQ(r.extent1, 3);
  EXPECT_EQ(r.anchor[0], 2);
  EXPECT_EQ(r.anchor[1], 5);
}

TEST(ConfigParse, RegionWithoutAnchorDefaultsInside) {
  const SimConfig cfg = parse({"region=rect:3x3"});
  ASSERT_EQ(cfg.faults.regions.size(), 1u);
  EXPECT_EQ(cfg.faults.regions[0].anchor[0], 1);
}

TEST(ConfigParse, RegionsAccumulate) {
  const SimConfig cfg = parse({"region=rect:2x2", "region=L:3x3@4,4"});
  EXPECT_EQ(cfg.faults.regions.size(), 2u);
}

TEST(ConfigParse, AllShapeNames) {
  for (const char* s : {"I", "II", "rect", "L", "U", "plus", "T", "H"}) {
    EXPECT_NO_THROW(parse({std::string("region=") + s + ":3x3"})) << s;
  }
}

TEST(ConfigParse, DimsOrderIndependence) {
  // Region anchors are sized from the final n, whichever order the keys
  // come in; the network rejects an anchor of the wrong dimensionality.
  for (const SimConfig& cfg : {parse({"n=3", "region=rect:2x2@4,5"}),
                               parse({"region=rect:2x2@4,5", "n=3"})}) {
    const Coordinates& a = cfg.faults.regions[0].anchor;
    ASSERT_EQ(a.dims(), 3);
    EXPECT_EQ(a[0], 4);
    EXPECT_EQ(a[1], 5);
    EXPECT_EQ(a[2], 1);
  }
  EXPECT_NO_THROW(runSimulation(parse({"region=rect:2x2", "k=4", "n=3", "warmup=10",
                                       "measured=50"})));
  // An anchor with more digits than n is an error naming `region`, not a
  // silent truncation.
  try {
    (void)parse({"n=2", "region=rect:2x2@1,2,3"});
    ADD_FAILURE() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("region"), std::string::npos) << e.what();
  }
}

TEST(ConfigParse, Errors) {
  EXPECT_THROW(parse({"bogus=1"}), std::invalid_argument);
  EXPECT_THROW(parse({"k"}), std::invalid_argument);
  EXPECT_THROW(parse({"k=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"rate=fast"}), std::invalid_argument);
  EXPECT_THROW(parse({"routing=zigzag"}), std::invalid_argument);
  EXPECT_THROW(parse({"pattern=worst"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=blob:3x3"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=rect"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=rect:3"}), std::invalid_argument);
  // Integers that do not fit their field, and values the engine would wrap
  // or misread (a 0- or 70000-flit message, a negative delay, a NaN or
  // out-of-range rate), are rejected naming the key.
  for (const char* bad : {"k=4294967304", "warmup=-1", "msg_length=0", "msg_length=70000",
                          "delta=-5", "td=-1", "rate=nan", "rate=-0.5", "rate=1.5"}) {
    try {
      (void)parse({bad});
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string key(bad, std::string(bad).find('='));
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(parse({"seed=18446744073709551615"}).seed, ~std::uint64_t{0});
  EXPECT_EQ(parse({"msg_length=65535", "rate=1", "delta=0", "td=0"}).messageLength, 65535);
  // A SimConfig built in code is validated by the Network constructor.
  SimConfig direct;
  direct.messageLength = 0;
  EXPECT_THROW(Network{direct}, std::invalid_argument);
}

TEST(ConfigParse, DescribeMentionsKeyFacts) {
  const SimConfig cfg = parse({"k=8", "n=3", "routing=adaptive", "nf=12"});
  const std::string desc = describeConfig(cfg);
  EXPECT_NE(desc.find("8-ary 3-cube"), std::string::npos);
  EXPECT_NE(desc.find("adaptive"), std::string::npos);
  EXPECT_NE(desc.find("nf=12"), std::string::npos);
}

TEST(ConfigParse, ParsedConfigRunsEndToEnd) {
  SimConfig cfg = parse({"k=4", "n=2", "vcs=2", "msg_length=4", "rate=0.01",
                         "warmup=50", "measured=300", "seed=3"});
  const SimResult r = runSimulation(cfg);
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace swft
