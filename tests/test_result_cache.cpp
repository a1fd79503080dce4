// The content-addressed result cache: exact SimResult round-trips, the
// canonical-config-key contract (pinned golden hashes; bit-identical engines
// collapse to one key; every semantic field separates keys), store/lookup
// behaviour under corruption, and the semantics-version invalidation rule.
#include "src/harness/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/sim/config_canon.hpp"
#include "tests/result_compare.hpp"

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

// ---- SimResult serialization ----------------------------------------------

TEST(ResultSerialization, RoundTripIsExactForEveryField) {
  const SimResult r = trickyResult();
  const auto back = deserializeResult(serializeResult(r));
  ASSERT_TRUE(back.has_value());
  expectSameResult(r, *back);
}

TEST(ResultSerialization, DefaultResultRoundTrips) {
  const auto back = deserializeResult(serializeResult(SimResult{}));
  ASSERT_TRUE(back.has_value());
  expectSameResult(SimResult{}, *back);
}

std::vector<std::string> textLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Each field, alone off its default, changes exactly its own line of the
// text and comes back from it: no field is left out of the format, and none
// shares or shadows another's line.
TEST(ResultSerialization, EveryFieldReachesTheText) {
  const SimResult none;
  std::vector<std::string> names;
  forEachResultField(none, [&](std::string_view name, const auto&) { names.emplace_back(name); });
  EXPECT_EQ(names.size(), 22u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 22u);

  const std::vector<std::string> base = textLines(serializeResult(none));
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    SimResult r;
    std::size_t at = 0;
    forEachResultField(r, [&](std::string_view, auto& v) {
      if (at++ != i) return;
      using T = std::remove_reference_t<decltype(v)>;
      if constexpr (std::is_same_v<T, double>) {
        v = 1.5;
      } else if constexpr (std::is_same_v<T, bool>) {
        v = !v;
      } else {
        v = 7;
      }
    });
    const std::string text = serializeResult(r);
    const std::vector<std::string> lines = textLines(text);
    ASSERT_EQ(lines.size(), base.size());
    std::size_t changed = 0;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      if (lines[j] == base[j]) continue;
      ++changed;
      EXPECT_TRUE(lines[j].starts_with(names[i] + ' ')) << lines[j];
    }
    EXPECT_EQ(changed, 1u);
    const auto back = deserializeResult(text);
    ASSERT_TRUE(back.has_value());
    expectSameResult(r, *back);
  }
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
  // Content after the last field (a future format's extra line).
  EXPECT_FALSE(deserializeResult(good + "extra_field 7\n").has_value());
  // The final newline dropped.
  EXPECT_FALSE(deserializeResult(good.substr(0, good.size() - 1)).has_value());
}

// The parser walks views into the block by hand: no prefix may read past its
// end, and no single overwritten byte may make it fault. A mutated block is
// either rejected or parses to a result that round-trips exactly.
TEST(ResultSerialization, EveryPrefixAndByteFlipIsSafe) {
  const std::string good = serializeResult(trickyResult());
  for (std::size_t len = 0; len < good.size(); ++len) {
    // A heap copy of exactly `len` bytes (no terminator, no spare
    // capacity), so a read past the prefix is an overflow the address
    // sanitizer reports.
    const std::vector<char> prefix(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(deserializeResult({prefix.data(), prefix.size()}).has_value())
        << "prefix of " << len << " bytes";
  }
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    for (const char c : {'\n', ' ', 'g', '0', '\0'}) {
      std::string flipped = good;
      flipped[pos] = c;
      const auto r = deserializeResult(flipped);
      if (!r) continue;
      const auto again = deserializeResult(serializeResult(*r));
      ASSERT_TRUE(again.has_value()) << "byte " << pos;
      expectSameResult(*r, *again);
    }
  }
}

// ---- canonical config keys -------------------------------------------------

/// The `tag=value` tokens of a canonical key, by tag.
std::map<std::string, std::string> keyTokens(const std::string& key) {
  std::map<std::string, std::string> tokens;
  for (std::size_t bar = key.find('|'); bar != std::string::npos;) {
    const std::size_t next = key.find('|', bar + 1);
    const std::string token = key.substr(bar + 1, next - bar - 1);
    const std::size_t eq = token.find('=');
    tokens[token.substr(0, eq)] = token.substr(eq + 1);
    bar = next;
  }
  return tokens;
}

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
  const std::map<std::string, std::string> baseTokens = keyTokens(canonicalConfigKey(base));
  std::set<std::string> changedTags;
  for (std::size_t i = 0; i < mutators.size(); ++i) {
    SimConfig c = base;
    mutators[i](c);
    EXPECT_TRUE(hashes.insert(canonicalConfigHash(c)).second)
        << "mutator " << i << " did not change the canonical key";
    for (const auto& [tag, value] : keyTokens(canonicalConfigKey(c))) {
      if (baseTokens.at(tag) != value) changedTags.insert(tag);
    }
  }
  EXPECT_EQ(hashes.size(), mutators.size() + 1);
  // Taken together, the mutators change every tag the field list writes: a
  // keyed field added to forEachConfigField without a mutator fails here.
  forEachConfigField(base, [&changedTags](auto, auto keyTag, const auto&) {
    if constexpr (!std::is_null_pointer_v<decltype(keyTag)>) {
      const std::string tag(keyTag.substr(1, keyTag.size() - 2));  // "|tag=" -> "tag"
      EXPECT_TRUE(changedTags.contains(tag)) << "no mutator changes " << keyTag;
    }
  });
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
  expectSameResult(r, *hit);

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
  expectSameResult(r, *hit);
}

TEST(ResultCache, TrailingLineEntryIsAMissAndRestorable) {
  const std::string dir = freshDir("trailing");
  ResultCache cache(dir);
  SimConfig cfg;
  const SimResult r = trickyResult();
  ASSERT_TRUE(cache.store(cfg, r));
  const std::string path = dir + "/" + cache.keyFor(cfg) + ".result";
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra_field 7\n";
  }
  EXPECT_FALSE(cache.lookup(cfg).has_value()) << "an entry with an unknown line is a miss";

  EXPECT_TRUE(cache.store(cfg, r));
  const auto hit = cache.lookup(cfg);
  ASSERT_TRUE(hit.has_value());
  expectSameResult(r, *hit);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 2u);
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

/// trickyResult with seed-dependent fields, so an entry read back under the
/// wrong key cannot pass for the right one.
SimResult resultFor(std::uint64_t seed) {
  SimResult r = trickyResult();
  r.cycles = seed;
  r.meanLatency = 1.0 / static_cast<double>(seed + 3);
  return r;
}

SimConfig seededConfig(std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  return cfg;
}

/// Runs `body(t)` on `threads` threads that all start together.
void runTogether(int threads, const std::function<void(int)>& body) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& th : pool) th.join();
}

TEST(ResultCache, ConcurrentLookupsCountExactly) {
  ResultCache cache(freshDir("concurrent_lookup"));
  constexpr std::uint64_t kStored = 24;
  constexpr std::uint64_t kAbsent = 8;
  constexpr int kThreads = 4;
  for (std::uint64_t seed = 0; seed < kStored; ++seed) {
    ASSERT_TRUE(cache.store(seededConfig(seed), resultFor(seed)));
  }

  std::vector<std::vector<std::optional<SimResult>>> seen(kThreads);
  runTogether(kThreads, [&](int t) {
    for (std::uint64_t seed = 0; seed < kStored + kAbsent; ++seed) {
      seen[static_cast<std::size_t>(t)].push_back(cache.lookup(seededConfig(seed)));
    }
  });

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, kStored * kThreads);
  EXPECT_EQ(s.misses, kAbsent * kThreads);
  EXPECT_EQ(s.inserts, kStored);
  for (const auto& results : seen) {
    ASSERT_EQ(results.size(), kStored + kAbsent);
    for (std::uint64_t seed = 0; seed < kStored + kAbsent; ++seed) {
      const std::optional<SimResult>& r = results[seed];
      if (seed < kStored) {
        ASSERT_TRUE(r.has_value()) << "seed " << seed;
        expectSameResult(resultFor(seed), *r);
      } else {
        EXPECT_FALSE(r.has_value()) << "seed " << seed;
      }
    }
  }
}

TEST(ResultCache, ConcurrentStoresPublishIntactEntries) {
  const std::string dir = freshDir("concurrent_store");
  ResultCache cache(dir);
  constexpr std::uint64_t kPerThread = 12;
  constexpr int kThreads = 4;
  constexpr int kSharedRepeats = 5;
  constexpr std::uint64_t kShared = 1000;
  std::atomic<int> failed{0};
  runTogether(kThreads, [&](int t) {
    for (std::uint64_t j = 0; j < kPerThread; ++j) {
      // Distinct keys per thread, interleaved with stores of one shared key.
      const std::uint64_t seed = static_cast<std::uint64_t>(t) * kPerThread + j;
      if (!cache.store(seededConfig(seed), resultFor(seed))) ++failed;
      if (j < kSharedRepeats && !cache.store(seededConfig(kShared), resultFor(kShared))) {
        ++failed;
      }
    }
  });

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(cache.stats().inserts, kThreads * (kPerThread + kSharedRepeats));
  for (std::uint64_t seed = 0; seed < kThreads * kPerThread; ++seed) {
    const auto hit = cache.lookup(seededConfig(seed));
    ASSERT_TRUE(hit.has_value()) << "seed " << seed;
    expectSameResult(resultFor(seed), *hit);
  }
  const auto shared = cache.lookup(seededConfig(kShared));
  ASSERT_TRUE(shared.has_value());
  expectSameResult(resultFor(kShared), *shared);
  // Every temp file was renamed into place: the directory holds entries only.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".result") << e.path();
    ++files;
  }
  EXPECT_EQ(files, kThreads * kPerThread + 1);
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
