#include "src/sim/config_parse.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <limits>
#include <utility>

#include "src/sim/config_canon.hpp"
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
  EXPECT_EQ(parse({"traffic=transpose"}).pattern, TrafficPattern::Transpose);
  EXPECT_EQ(parse({"traffic=bitcomp"}).pattern, TrafficPattern::BitComplement);
  EXPECT_EQ(parse({"traffic=hotspot"}).pattern, TrafficPattern::Hotspot);
}

TEST(ConfigParse, FormerAliasesAreRejectedByName) {
  // `pattern=` (for `traffic=`) and `bit-complement` (for `bitcomp`) are
  // no longer accepted; the error names the rejected spelling.
  const std::pair<const char*, const char*> aliases[] = {
      {"pattern=uniform", "'pattern'"}, {"traffic=bit-complement", "'bit-complement'"}};
  for (const auto& [bad, named] : aliases) {
    try {
      (void)parse({bad});
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << bad << ": " << e.what();
    }
  }
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

/// The message parseConfig throws for the single assignment `a`, or "" when
/// it does not throw.
std::string parseError(const std::string& a) {
  try {
    (void)parseConfig(std::span<const std::string>(&a, 1));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigParse, EngineThreadsAndPhaseTimers) {
  EXPECT_EQ(parse({}).engine, EngineKind::Sparse);
  EXPECT_FALSE(parse({}).phaseTimers);
  EXPECT_TRUE(parse({"phase_timers=1"}).phaseTimers);
  EXPECT_FALSE(parse({"phase_timers=0"}).phaseTimers);
  // A flag takes exactly what the result cache writes for one.
  for (const char* value : {"yes", "7", "-1", "01", ""}) {
    EXPECT_EQ(parseError(std::string("phase_timers=") + value),
              "config: 'phase_timers' expects 0 or 1, got '" + std::string(value) + "'")
        << value;
  }
  // No config string selects an engine or its thread count: the dense
  // reference is a test oracle and sparse-mt is set only in code.
  for (const char* value : {"sparse", "sparse-mt", "dense", "turbo"}) {
    EXPECT_EQ(parseError(std::string("engine=") + value), "config: unknown key 'engine'")
        << value;
  }
  for (const char* value : {"1", "2", "0", "-2"}) {
    EXPECT_EQ(parseError(std::string("sim_threads=") + value),
              "config: unknown key 'sim_threads'")
        << value;
  }
}

TEST(ConfigParse, NumbersParseWholeWithoutWhitespaceHexOrLocale) {
  // Doubles parse as integers do: std::from_chars over the whole value.
  for (const char* bad : {"rate= 0.005", "rate=0.005 ", "rate=0x1p-4", "rate=0X10",
                          "rate=+0.005", "rate=0,005", "hotspot_fraction= 0.5", "k= 8"}) {
    const std::string a = bad;
    const std::string key = a.substr(0, a.find('='));
    EXPECT_EQ(parseError(a).find("config: '" + key + "' expects"), 0u) << a;
  }
  // A rejected number leaves its field as it was.
  SimConfig cfg;
  EXPECT_THROW(applyConfigAssignment(cfg, "k=16x"), std::invalid_argument);
  EXPECT_THROW(applyConfigAssignment(cfg, "rate=0.5x"), std::invalid_argument);
  EXPECT_EQ(cfg.radix, SimConfig{}.radix);
  EXPECT_EQ(cfg.injectionRate, SimConfig{}.injectionRate);
  // LC_NUMERIC does not move the decimal point. Where a locale with a
  // decimal comma is installed, parse under it.
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) break;
  }
  const std::string point = parseError("rate=0.005");
  const std::string comma = parseError("rate=0,005");
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(point, "");
  EXPECT_NE(comma, "");
  EXPECT_EQ(parse({"rate=0.005"}).injectionRate, 0.005);
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

TEST(ConfigParse, RegionPlaneSuffix) {
  // `/p,q` sets the plane a region lies in; the config it parses to has the
  // cache key of the same config built in code.
  SimConfig built;
  built.dims = 3;
  RegionSpec r;
  r.shape = RegionShape::Rect;
  r.extent0 = 2;
  r.extent1 = 2;
  r.anchor.digit = {0, 0, 1};
  r.dim0 = 0;
  r.dim1 = 2;
  built.faults.regions.push_back(r);
  const SimConfig parsed = parse({"n=3", "region=rect:2x2@0,0,1/0,2"});
  ASSERT_EQ(parsed.faults.regions.size(), 1u);
  EXPECT_EQ(parsed.faults.regions[0].dim0, 0);
  EXPECT_EQ(parsed.faults.regions[0].dim1, 2);
  EXPECT_EQ(canonicalConfigKey(parsed), canonicalConfigKey(built));
  EXPECT_NE(canonicalConfigKey(parse({"n=3", "region=rect:2x2@0,0,1"})),
            canonicalConfigKey(built));
  // The default plane may be spelled out, and the suffix needs no anchor.
  EXPECT_EQ(canonicalConfigKey(parse({"n=3", "region=rect:2x2@0,0,1/0,1"})),
            canonicalConfigKey(parse({"n=3", "region=rect:2x2@0,0,1"})));
  EXPECT_EQ(parse({"n=3", "region=rect:2x2/1,2"}).faults.regions[0].dim1, 2);

  // A plane that is not two distinct dimensions below n, or is not 'p,q',
  // is rejected naming `region`.
  for (const char* bad : {"region=rect:2x2@0,0,1/1,1", "region=rect:2x2@0,0,1/0,3",
                          "region=rect:2x2@0,0,1/0", "region=rect:2x2@0,0,1/a,1",
                          "region=rect:2x2/-1,1"}) {
    try {
      (void)parse({"n=3", bad});
      ADD_FAILURE() << bad << ": expected a throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("region"), std::string::npos) << bad << ": " << e.what();
    }
  }
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
  EXPECT_THROW(parse({"traffic=worst"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=blob:3x3"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=rect"}), std::invalid_argument);
  EXPECT_THROW(parse({"region=rect:3"}), std::invalid_argument);
  // Integers that do not fit their field, and values the engine would wrap
  // or misread (a 0- or 70000-flit message, a negative delay or decision
  // time, a delay or decision time the deadlock watchdog would read as a
  // stall, a NaN or out-of-range rate, a rate so small its geometric gaps
  // overflow 64 bits), are rejected naming the key.
  // Likewise every shape the network cannot build: a degenerate or oversized
  // torus, a VC count or buffer depth the router cannot hold, an escape pool
  // Duato's protocol cannot split, a NaN or out-of-range hotspot share, more
  // random faults than nodes, a negative livelock threshold, and a region
  // anchored or extending outside the torus. Each case lists the offending
  // assignment first; the error must name its key.
  const std::vector<std::vector<std::string>> cases = {
      {"k=4294967304"}, {"warmup=-1"}, {"msg_length=0"}, {"msg_length=70000"},
      {"delta=-5"}, {"delta=20000"}, {"delta=30000"}, {"td=-1"}, {"td=20000"},
      {"td=30000"}, {"td=1073741823"}, {"td=1073741824"}, {"rate=nan"}, {"rate=-0.5"},
      {"rate=1.5"}, {"rate=1e-300"},
      {"k=1"}, {"k=-3"}, {"n=0"}, {"n=9"}, {"k=4097", "n=2"},
      {"vcs=1"}, {"vcs=17"}, {"buffer_depth=0"}, {"buffer_depth=17"},
      {"escape_vcs=3", "routing=adaptive"}, {"escape_vcs=0", "routing=adaptive"},
      {"escape_vcs=6", "routing=adaptive", "vcs=4"},
      {"hotspot_fraction=nan"}, {"hotspot_fraction=-0.1"}, {"hotspot_fraction=1.5"},
      {"nf=-1"}, {"nf=16", "k=4", "n=2"}, {"livelock_threshold=-1"},
      {"region=U:2x2@1,1,40", "k=4", "n=3"}, {"region=rect:2x2@4,0", "k=4"},
      {"region=rect:2x2@-1,0", "k=4"}, {"region=rect:0x2", "k=4"},
      {"region=rect:5x2", "k=4"}, {"region=plus:1x3", "k=4"}};
  for (const std::vector<std::string>& c : cases) {
    const std::string& bad = c.front();
    try {
      (void)parseConfig(c);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string key = bad.substr(0, bad.find('='));
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  // Td and Delta share the watchdog bound and its wording.
  for (const char* key : {"td", "delta"}) {
    try {
      (void)parse({std::string(key) + "=30000"});
      ADD_FAILURE() << key << "=30000 parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "config: '" + std::string(key) +
                                           "' must be below the deadlock watchdog "
                                           "window (20000 cycles), got 30000");
    }
  }
  try {
    (void)parse({"rate=1e-19"});
    ADD_FAILURE() << "rate=1e-19 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "config: 'rate' must be 0 or in [1e-15, 1], got 1e-19");
  }
  EXPECT_EQ(parse({"rate=1e-15"}).injectionRate, 1e-15);
  EXPECT_EQ(parse({"rate=0"}).injectionRate, 0.0);
  EXPECT_EQ(parse({"seed=18446744073709551615"}).seed, ~std::uint64_t{0});
  EXPECT_EQ(parse({"msg_length=65535", "rate=1", "delta=0", "td=0"}).messageLength, 65535);
  EXPECT_EQ(parse({"delta=19999"}).reinjectDelay, 19999);
  EXPECT_EQ(parse({"td=19999"}).routerDecisionTime, 19999);
  EXPECT_EQ(parse({"k=2", "n=8", "vcs=16", "buffer_depth=16", "nf=255",
                   "hotspot_fraction=1", "livelock_threshold=0"})
                .faults.randomNodes,
            255);
  EXPECT_EQ(parse({"routing=adaptive", "vcs=4", "escape_vcs=4"}).escapeVcs, 4);
  EXPECT_EQ(parse({"k=4", "region=rect:4x4@3,3"}).faults.regions.size(), 1u);
  // A SimConfig built in code is validated by the Network constructor.
  SimConfig direct;
  direct.messageLength = 0;
  EXPECT_THROW(Network{direct}, std::invalid_argument);
  direct = SimConfig{};
  direct.hotspotFraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Network{direct}, std::invalid_argument);
}

TEST(ConfigParse, NetworkValidatesBeforeBuildingFaults) {
  // An anchor digit outside the torus on a dimension the region does not
  // span used to reach the fault set unchecked; the constructor must reject
  // it, naming the key, before anything is built from the config.
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 3;
  RegionSpec region;
  region.shape = RegionShape::U;
  region.extent0 = 2;
  region.extent1 = 2;
  region.anchor.digit = {1, 1, 40};
  cfg.faults.regions.push_back(region);
  try {
    const Network net(cfg);
    ADD_FAILURE() << "out-of-torus anchor built a network";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'region'"), std::string::npos) << e.what();
  }
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
