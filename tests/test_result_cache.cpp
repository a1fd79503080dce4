// The content-addressed result cache: exact SimResult round-trips, the
// canonical-config-key contract (pinned golden hashes; bit-identical engines
// collapse to one key; every semantic field separates keys), store/lookup
// behaviour under corruption, and the semantics-version invalidation rule.
#include "src/harness/result_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "src/sim/config_canon.hpp"

namespace swft {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "swft_result_cache_test" / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A SimResult with every field set to a value that would expose lossy
/// serialization: non-terminating binary fractions, values separated by one
/// ulp, a denormal, counter extremes, mixed flags.
SimResult trickyResult() {
  SimResult r;
  r.meanLatency = 1.0 / 3.0;
  r.latencyStddev = std::nextafter(1.0 / 3.0, 1.0);  // one ulp away
  r.maxLatency = 1e308;
  r.latencyP50 = std::numeric_limits<double>::denorm_min();
  r.latencyP95 = 0.1;
  r.latencyP99 = 123456789.000000001;
  r.latencyCi95 = 4.9406564584124654e-10;
  r.meanHops = 7.0000000000000009;
  r.cycles = ~std::uint64_t{0};
  r.generatedTotal = 1;
  r.deliveredTotal = 0x123456789abcdefULL;
  r.deliveredMeasured = 8000;
  r.throughput = 0.014599999999999999;
  r.offeredLoad = 0.0146;
  r.messagesQueued = 42;
  r.absorbedMessages = 41;
  r.reversals = 3;
  r.detours = 2;
  r.escalations = 1;
  r.saturated = true;
  r.deadlockSuspected = false;
  r.completed = true;
  return r;
}

void expectBitIdentical(const SimResult& a, const SimResult& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(bits(a.meanLatency), bits(b.meanLatency));
  EXPECT_EQ(bits(a.latencyStddev), bits(b.latencyStddev));
  EXPECT_EQ(bits(a.maxLatency), bits(b.maxLatency));
  EXPECT_EQ(bits(a.latencyP50), bits(b.latencyP50));
  EXPECT_EQ(bits(a.latencyP95), bits(b.latencyP95));
  EXPECT_EQ(bits(a.latencyP99), bits(b.latencyP99));
  EXPECT_EQ(bits(a.latencyCi95), bits(b.latencyCi95));
  EXPECT_EQ(bits(a.meanHops), bits(b.meanHops));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.generatedTotal, b.generatedTotal);
  EXPECT_EQ(a.deliveredTotal, b.deliveredTotal);
  EXPECT_EQ(a.deliveredMeasured, b.deliveredMeasured);
  EXPECT_EQ(bits(a.throughput), bits(b.throughput));
  EXPECT_EQ(bits(a.offeredLoad), bits(b.offeredLoad));
  EXPECT_EQ(a.messagesQueued, b.messagesQueued);
  EXPECT_EQ(a.absorbedMessages, b.absorbedMessages);
  EXPECT_EQ(a.reversals, b.reversals);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.deadlockSuspected, b.deadlockSuspected);
  EXPECT_EQ(a.completed, b.completed);
}

// ---- SimResult serialization ----------------------------------------------

TEST(ResultSerialization, RoundTripIsExactForEveryField) {
  const SimResult r = trickyResult();
  const auto back = deserializeResult(serializeResult(r));
  ASSERT_TRUE(back.has_value());
  expectBitIdentical(r, *back);
}

TEST(ResultSerialization, DefaultResultRoundTrips) {
  const auto back = deserializeResult(serializeResult(SimResult{}));
  ASSERT_TRUE(back.has_value());
  expectBitIdentical(SimResult{}, *back);
}

TEST(ResultSerialization, InfinityAndNanSurvive) {
  SimResult r;
  r.maxLatency = std::numeric_limits<double>::infinity();
  r.latencyCi95 = std::numeric_limits<double>::quiet_NaN();
  const auto back = deserializeResult(serializeResult(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isinf(back->maxLatency));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.latencyCi95),
            std::bit_cast<std::uint64_t>(back->latencyCi95));
}

TEST(ResultSerialization, RejectsCorruptedText) {
  const std::string good = serializeResult(trickyResult());
  ASSERT_TRUE(deserializeResult(good).has_value());

  EXPECT_FALSE(deserializeResult("").has_value());
  EXPECT_FALSE(deserializeResult("swft-result-v999\n").has_value());
  // Truncation at any field boundary.
  EXPECT_FALSE(deserializeResult(good.substr(0, good.size() / 2)).has_value());
  // A flipped field name.
  std::string renamed = good;
  renamed.replace(renamed.find("mean_hops"), 9, "mean_hopz");
  EXPECT_FALSE(deserializeResult(renamed).has_value());
  // A garbled hex value (wrong length).
  std::string short_hex = good;
  const auto at = short_hex.find("mean_latency ");
  short_hex.erase(at + 13, 1);
  EXPECT_FALSE(deserializeResult(short_hex).has_value());
  // A non-hex character in a double.
  std::string bad_hex = good;
  bad_hex[bad_hex.find("mean_latency ") + 13] = 'g';
  EXPECT_FALSE(deserializeResult(bad_hex).has_value());
}

// ---- canonical config keys -------------------------------------------------

TEST(CanonicalKey, GoldenHashesArePinned) {
  // Cross-build cache contract: every machine and compiler must derive the
  // same content address for the same config, or shared stores stop
  // interchanging. If an intentional key-format or semantics change breaks
  // this test, re-pin the values AND bump kEngineSemanticsVersion.
  ASSERT_EQ(kEngineSemanticsVersion, 1u);

  const SimConfig def;
  EXPECT_EQ(canonicalConfigHash(def), 0x9fc5300b922a368cULL);

  SimConfig fig3ish;
  fig3ish.radix = 8;
  fig3ish.dims = 2;
  fig3ish.vcs = 6;
  fig3ish.messageLength = 64;
  fig3ish.injectionRate = 0.004;
  fig3ish.routing = RoutingMode::Adaptive;
  fig3ish.faults.randomNodes = 3;
  fig3ish.seed = 4242;
  EXPECT_EQ(canonicalConfigHash(fig3ish), 0x971fa17b8bd2e3acULL);

  SimConfig regioned;
  regioned.pattern = TrafficPattern::Hotspot;
  regioned.hotspotFraction = 0.25;
  regioned.faults.regions.push_back(RegionSpec{});  // default 3x3 rect at origin
  regioned.faults.explicitNodes = {7, 9};
  regioned.faults.explicitLinks = {{3, 1, 0}};
  EXPECT_EQ(canonicalConfigHash(regioned), 0x8751284f434c5a7bULL);
}

TEST(CanonicalKey, BitIdenticalEnginesCollapseToOneKey) {
  SimConfig base;
  base.injectionRate = 0.008;
  base.seed = 99;
  const std::string key = canonicalConfigKey(base);

  for (const EngineKind engine : {EngineKind::Sparse, EngineKind::SparseMt}) {
    for (const int threads : {1, 2, 5, 8}) {
      SimConfig c = base;
      c.engine = engine;
      c.simThreads = threads;
      EXPECT_EQ(canonicalConfigKey(c), key)
          << "engine=" << static_cast<int>(engine) << " sim_threads=" << threads;
    }
  }
}

TEST(CanonicalKey, EverySemanticFieldSeparatesKeys) {
  const SimConfig base;
  std::set<std::uint64_t> hashes{canonicalConfigHash(base)};

  // Each mutator changes exactly one semantic field; every resulting key
  // must differ from the base AND from every other mutation.
  const std::vector<std::function<void(SimConfig&)>> mutators = {
      [](SimConfig& c) { c.radix = 16; },
      [](SimConfig& c) { c.dims = 3; },
      [](SimConfig& c) { c.vcs = 6; },
      [](SimConfig& c) { c.escapeVcs = 1; },
      [](SimConfig& c) { c.bufferDepth = 8; },
      [](SimConfig& c) { c.routerDecisionTime = 1; },
      [](SimConfig& c) { c.messageLength = 64; },
      [](SimConfig& c) { c.injectionRate = 0.0051; },
      [](SimConfig& c) { c.injectionRate = std::nextafter(0.005, 1.0); },
      [](SimConfig& c) { c.pattern = TrafficPattern::Transpose; },
      [](SimConfig& c) { c.hotspotFraction = 0.2; },
      [](SimConfig& c) { c.routing = RoutingMode::Adaptive; },
      [](SimConfig& c) { c.reinjectDelay = 20; },
      [](SimConfig& c) { c.livelockThreshold = 48; },
      [](SimConfig& c) { c.faults.randomNodes = 3; },
      [](SimConfig& c) { c.faults.explicitNodes = {5}; },
      [](SimConfig& c) { c.faults.explicitLinks = {{0, 0, 1}}; },
      [](SimConfig& c) { c.faults.regions.push_back(RegionSpec{}); },
      [](SimConfig& c) { c.warmupMessages = 100; },
      [](SimConfig& c) { c.measuredMessages = 100; },
      [](SimConfig& c) { c.maxCycles = 1; },
      [](SimConfig& c) { c.deadlockWindow = 1; },
      [](SimConfig& c) { c.seed = 2; },
  };
  for (std::size_t i = 0; i < mutators.size(); ++i) {
    SimConfig c = base;
    mutators[i](c);
    EXPECT_TRUE(hashes.insert(canonicalConfigHash(c)).second)
        << "mutator " << i << " did not change the canonical key";
  }
  EXPECT_EQ(hashes.size(), mutators.size() + 1);
}

TEST(CanonicalKey, RegionGeometrySeparatesKeys) {
  SimConfig base;
  RegionSpec region;
  region.anchor.digit.resize(2);
  region.anchor[0] = 1;
  region.anchor[1] = 1;
  base.faults.regions.push_back(region);
  const std::uint64_t h0 = canonicalConfigHash(base);

  std::set<std::uint64_t> hashes{h0};
  for (const auto& mutate : std::vector<std::function<void(RegionSpec&)>>{
           [](RegionSpec& r) { r.shape = RegionShape::U; },
           [](RegionSpec& r) { r.extent0 = 4; },
           [](RegionSpec& r) { r.extent1 = 5; },
           [](RegionSpec& r) { r.dim1 = 2; },
           [](RegionSpec& r) { r.anchor[0] = 2; },
       }) {
    SimConfig c = base;
    mutate(c.faults.regions[0]);
    EXPECT_TRUE(hashes.insert(canonicalConfigHash(c)).second);
  }
}

TEST(CanonicalKey, SemanticsVersionSeparatesKeys) {
  const SimConfig c;
  EXPECT_NE(canonicalConfigHash(c, 1), canonicalConfigHash(c, 2));
  EXPECT_NE(canonicalConfigKey(c, 1), canonicalConfigKey(c, 2));
}

TEST(CanonicalKey, ZeroSignIsCanonicalized) {
  SimConfig pos;
  pos.hotspotFraction = 0.0;
  SimConfig neg;
  neg.hotspotFraction = -0.0;
  EXPECT_EQ(canonicalConfigKey(pos), canonicalConfigKey(neg));
}

// ---- the on-disk store -----------------------------------------------------

TEST(ResultCache, StoreThenLookupIsExactHit) {
  ResultCache cache(freshDir("roundtrip"));
  SimConfig cfg;
  cfg.seed = 7;
  const SimResult r = trickyResult();

  EXPECT_FALSE(cache.lookup(cfg).has_value());
  EXPECT_TRUE(cache.store(cfg, r));
  const auto hit = cache.lookup(cfg);
  ASSERT_TRUE(hit.has_value());
  expectBitIdentical(r, *hit);

  // A different seed is a different content address.
  SimConfig other = cfg;
  other.seed = 8;
  EXPECT_FALSE(cache.lookup(other).has_value());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(ResultCache, EnginesShareEntries) {
  ResultCache cache(freshDir("engines"));
  SimConfig sparse;
  sparse.engine = EngineKind::Sparse;
  EXPECT_TRUE(cache.store(sparse, trickyResult()));

  SimConfig mt = sparse;
  mt.engine = EngineKind::SparseMt;
  mt.simThreads = 8;
  EXPECT_TRUE(cache.lookup(mt).has_value());
}

TEST(ResultCache, CorruptEntryIsAMissAndRestorable) {
  const std::string dir = freshDir("corrupt");
  ResultCache cache(dir);
  SimConfig cfg;
  const SimResult r = trickyResult();
  ASSERT_TRUE(cache.store(cfg, r));

  // Garble the single entry on disk.
  const std::string path = dir + "/" + cache.keyFor(cfg) + ".result";
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "swft-cache-entry-v1\nnot a real entry\n";
  }
  EXPECT_FALSE(cache.lookup(cfg).has_value()) << "corrupt entry must read as a miss";

  // Re-storing repairs it.
  EXPECT_TRUE(cache.store(cfg, r));
  const auto hit = cache.lookup(cfg);
  ASSERT_TRUE(hit.has_value());
  expectBitIdentical(r, *hit);
}

TEST(ResultCache, TruncatedEntryIsAMiss) {
  const std::string dir = freshDir("truncated");
  ResultCache cache(dir);
  SimConfig cfg;
  ASSERT_TRUE(cache.store(cfg, trickyResult()));
  const std::string path = dir + "/" + cache.keyFor(cfg) + ".result";
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  const std::string full = buf.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 20);
  }
  EXPECT_FALSE(cache.lookup(cfg).has_value());
}

TEST(ResultCache, SemanticsVersionBumpInvalidatesEverything) {
  const std::string dir = freshDir("version");
  ResultCache v1(dir, kEngineSemanticsVersion);
  SimConfig cfg;
  ASSERT_TRUE(v1.store(cfg, trickyResult()));
  ASSERT_TRUE(v1.lookup(cfg).has_value());

  // The same store opened under a bumped version sees only misses…
  ResultCache v2(dir, kEngineSemanticsVersion + 1);
  EXPECT_FALSE(v2.lookup(cfg).has_value());
  // …and re-populates under new addresses without disturbing v1 entries.
  EXPECT_TRUE(v2.store(cfg, trickyResult()));
  EXPECT_TRUE(v2.lookup(cfg).has_value());
  EXPECT_TRUE(v1.lookup(cfg).has_value());
  EXPECT_EQ(ResultCache::scanDir(dir).entries, 2u);
}

TEST(ResultCache, CreatesMissingNestedDirectories) {
  const std::string dir = freshDir("nested") + "/a/b/c";
  ASSERT_FALSE(std::filesystem::exists(dir));
  ResultCache cache(dir);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_TRUE(cache.store(SimConfig{}, SimResult{}));
  EXPECT_TRUE(cache.lookup(SimConfig{}).has_value());
}

TEST(ResultCache, ThrowsWhenDirIsAFile) {
  const std::string parent = freshDir("blocked");
  std::filesystem::create_directories(parent);
  const std::string file = parent + "/occupied";
  { std::ofstream out(file); }
  EXPECT_THROW(ResultCache{file}, std::runtime_error);
}

TEST(ResultCache, ScanDirCountsOnlyEntries) {
  const std::string dir = freshDir("scan");
  ResultCache cache(dir);
  EXPECT_EQ(ResultCache::scanDir(dir).entries, 0u);
  SimConfig cfg;
  for (std::uint64_t s = 0; s < 3; ++s) {
    cfg.seed = s;
    ASSERT_TRUE(cache.store(cfg, SimResult{}));
  }
  { std::ofstream out(dir + "/not_an_entry.txt"); }
  const auto info = ResultCache::scanDir(dir);
  EXPECT_EQ(info.entries, 3u);
  EXPECT_GT(info.bytes, 0u);
}

TEST(ResultCache, DefaultCacheDirHonoursEnvironment) {
  const char* old = std::getenv("SWFT_CACHE_DIR");
  const std::string oldValue = old != nullptr ? old : "";
  ::setenv("SWFT_CACHE_DIR", "/tmp/swft_cache_env_test", 1);
  EXPECT_EQ(defaultCacheDir(), "/tmp/swft_cache_env_test");
  ::unsetenv("SWFT_CACHE_DIR");
  EXPECT_TRUE(defaultCacheDir().ends_with("/cache"));
  if (old != nullptr) ::setenv("SWFT_CACHE_DIR", oldValue.c_str(), 1);
}

}  // namespace
}  // namespace swft
