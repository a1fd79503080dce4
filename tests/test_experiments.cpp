// The declarative experiment subsystem: registry contents, deterministic
// sharding, artifact naming/serialisation, and an end-to-end runExperiment
// round trip on a tiny synthetic spec.
#include "src/harness/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/experiment_registry.hpp"
#include "src/harness/result_cache.hpp"
#include "src/harness/table.hpp"
#include "src/sim/config_canon.hpp"
#include "src/util/fnv.hpp"
#include "tests/config_round_trip.hpp"
#include "tests/naming.hpp"

namespace swft {
namespace {

// ---- registry (this binary links the bench/experiments object library) ----

TEST(ExperimentRegistry, AllPortedAndNewExperimentsRegistered) {
  auto& reg = ExperimentRegistry::instance();
  EXPECT_GE(reg.size(), 11u);
  for (const char* name :
       {"fig3", "fig4", "fig5", "fig6", "fig7", "model_vs_sim", "abl_buffer_depth",
        "abl_reinjection_overhead", "abl_vc_partition", "scan_radix", "faultscape"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistry, AllIsSortedAndComplete) {
  const auto specs = ExperimentRegistry::instance().all();
  ASSERT_EQ(specs.size(), ExperimentRegistry::instance().size());
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_LT(specs[i - 1]->name, specs[i]->name);
  }
}

TEST(ExperimentRegistry, EveryGridHasUniqueLabelsAndValidColumns) {
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    const auto points = spec->build();
    EXPECT_FALSE(points.empty()) << spec->name;
    std::set<std::string> labels;
    for (const auto& p : points) {
      EXPECT_TRUE(labels.insert(p.label).second)
          << spec->name << ": duplicate label " << p.label;
    }
    // Sharding and CSV merging key on the label, so uniqueness is load-bearing.
    SimResult dummy{};
    for (const std::string& col : spec->columns) {
      EXPECT_NO_THROW((void)resultField(dummy, col)) << spec->name << ": " << col;
    }
  }
}

TEST(ExperimentRegistry, DuplicateRegistrationThrows) {
  ExperimentSpec dup;
  dup.name = "fig3";
  dup.build = [] { return std::vector<SweepPoint>{}; };
  EXPECT_THROW(ExperimentRegistry::instance().add(std::move(dup)), std::invalid_argument);
  ExperimentSpec unnamed;
  unnamed.build = [] { return std::vector<SweepPoint>{}; };
  EXPECT_THROW(ExperimentRegistry::instance().add(std::move(unnamed)),
               std::invalid_argument);
}

// Every registered experiment's rows at smoke scale (the e2e benchmark's
// smoke caps: 20 warm-up and 60 measured messages, at most 1500 cycles) are
// recorded results of one engine semantics, like the equivalence goldens
// and the fuzz digest: a change to routing, the software layer or traffic
// generation that misses those still moves some figure grid here. Re-record
// with the printed value AND bump kEngineSemanticsVersion, or the result
// cache keeps serving the old rows.
TEST(ExperimentRegistry, SmokeScaleRowsPinnedToSemanticsVersion) {
  std::uint64_t digest = kFnv1a64OffsetBasis;
  std::size_t points = 0;
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    std::vector<SweepPoint> grid = spec->build();
    for (SweepPoint& p : grid) {
      p.cfg.warmupMessages = 20;
      p.cfg.measuredMessages = 60;
      p.cfg.maxCycles = 1'500;
    }
    points += grid.size();
    digest = fnv1a64(spec->name + "\n", digest);
    for (const SweepRow& row : runSweep(std::move(grid), 4)) {
      digest = fnv1a64(row.point.label + ' ' + serializeResult(row.result), digest);
    }
  }
  RecordProperty("points", static_cast<int>(points));
  ASSERT_EQ(kEngineSemanticsVersion, 1u);
  EXPECT_EQ(digest, 0xa7fecb94150b29b9ULL)
      << "the smoke-scale experiment rows changed (digest 0x" << std::hex << digest
      << "): re-record this digest AND bump kEngineSemanticsVersion "
         "(src/sim/config_canon.hpp)";
}

// Every registered grid point's label and canonical config key, at the
// default scale and at SWFT_SCALE=paper. The smoke-scale digest above
// overwrites the scale fields before it hashes, so only this test notices a
// builder change that moves a point's warm-up, measured count or cycle cap.
TEST(ExperimentRegistry, GridConfigsPinned) {
  const char* before = std::getenv("SWFT_SCALE");
  const std::optional<std::string> saved =
      before != nullptr ? std::optional<std::string>(before) : std::nullopt;
  const auto gridDigest = [] {
    std::uint64_t digest = kFnv1a64OffsetBasis;
    for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
      for (const SweepPoint& p : spec->build()) {
        digest = fnv1a64(p.label + canonicalConfigKey(p.cfg), digest);
      }
    }
    return digest;
  };
  ::unsetenv("SWFT_SCALE");
  const std::uint64_t reduced = gridDigest();
  ::setenv("SWFT_SCALE", "paper", 1);
  const std::uint64_t paper = gridDigest();
  if (saved) {
    ::setenv("SWFT_SCALE", saved->c_str(), 1);
  } else {
    ::unsetenv("SWFT_SCALE");
  }
  EXPECT_EQ(reduced, 0x2b9738f723f89234ULL)
      << "default-scale grids changed (digest 0x" << std::hex << reduced << ")";
  EXPECT_EQ(paper, 0xd7d64366a877c0e4ULL)
      << "paper-scale grids changed (digest 0x" << std::hex << paper << ")";
}

// The sibling of EngineFuzz.ReproParsesBackToTheDrawnConfig: every grid
// point's describeConfig line (the command line swft_sim prints) parses
// back to the point's canonical key. fig5 brings regions.
TEST(ExperimentRegistry, DescribeConfigParsesBackForEveryGridPoint) {
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    for (const SweepPoint& p : spec->build()) {
      expectDescribeRoundTrips(p.cfg, spec->name + "/" + p.label);
    }
  }
}

// ---- sharding -------------------------------------------------------------

TEST(Sharding, ParseShard) {
  EXPECT_EQ(parseShard("0/4").index, 0);
  EXPECT_EQ(parseShard("0/4").count, 4);
  EXPECT_EQ(parseShard("3/4").index, 3);
  EXPECT_TRUE(parseShard("0/1").isAll());
  for (const char* bad : {"", "4", "4/4", "-1/4", "0/0", "a/4", "0/b", "1/4/2"}) {
    EXPECT_THROW((void)parseShard(bad), std::invalid_argument) << bad;
  }
}

TEST(Sharding, StableHashIsPinned) {
  // FNV-1a 64 test vectors — the cross-machine sharding contract. If this
  // test breaks, shards computed by different builds no longer agree.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("adp/nf3"), fnv1a64("adp/nf3"));
  EXPECT_NE(fnv1a64("adp/nf3"), fnv1a64("adp/nf4"));
}

TEST(Sharding, ShardsPartitionEveryRegisteredGrid) {
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    const auto points = spec->build();
    const int N = 4;
    std::multiset<std::string> unionLabels;
    std::size_t total = 0;
    for (int i = 0; i < N; ++i) {
      const auto mine = shardPoints(points, ShardSpec{i, N});
      total += mine.size();
      for (const auto& p : mine) unionLabels.insert(p.label);
    }
    EXPECT_EQ(total, points.size()) << spec->name;
    std::multiset<std::string> allLabels;
    for (const auto& p : points) allLabels.insert(p.label);
    EXPECT_EQ(unionLabels, allLabels) << spec->name;
  }
}

TEST(Sharding, ShardPreservesGridOrder) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 32; ++i) {
    SweepPoint p;
    p.label = catName({"p", std::to_string(i)});
    points.push_back(p);
  }
  const auto mine = shardPoints(points, ShardSpec{1, 3});
  std::size_t pos = 0;
  for (const auto& p : mine) {
    const auto it = std::find_if(points.begin() + static_cast<std::ptrdiff_t>(pos),
                                 points.end(),
                                 [&](const SweepPoint& q) { return q.label == p.label; });
    ASSERT_NE(it, points.end());
    pos = static_cast<std::size_t>(it - points.begin()) + 1;
  }
}

// ---- runExperiment end-to-end --------------------------------------------

ExperimentSpec tinySpec(const std::string& name) {
  ExperimentSpec spec;
  spec.name = name;
  spec.description = "synthetic 4-ary 2-cube grid";
  spec.columns = {"latency", "throughput"};
  spec.build = [] {
    std::vector<SweepPoint> points;
    for (int i = 0; i < 6; ++i) {
      SweepPoint p;
      p.label = catName({"pt", std::to_string(i)});
      p.cfg.radix = 4;
      p.cfg.dims = 2;
      p.cfg.vcs = 2;
      p.cfg.messageLength = 4;
      p.cfg.injectionRate = 0.002 * (i + 1);
      p.cfg.warmupMessages = 50;
      p.cfg.measuredMessages = 300;
      p.cfg.maxCycles = 200'000;
      p.cfg.seed = 77 + static_cast<std::uint64_t>(i);
      points.push_back(std::move(p));
    }
    return points;
  };
  return spec;
}

std::string sortedDataRows(const std::string& csv) {
  std::stringstream ss(csv);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(ss, line)) {
    // Concatenated shard files repeat the header; drop every occurrence.
    if (!line.empty() && !line.starts_with("label,")) rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& r : rows) out += r + "\n";
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RunExperiment, ShardedRunsUnionEqualsUnshardedRun) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "swft_experiment_test").string();
  std::filesystem::create_directories(dir);
  const ExperimentSpec spec = tinySpec("tiny_shard");

  RunOptions opt;
  opt.outDir = dir;
  opt.threads = 2;
  opt.progress = false;
  std::ostringstream log;

  const ExperimentRun full = runExperiment(spec, opt, log);
  EXPECT_EQ(full.rows.size(), 6u);
  EXPECT_EQ(full.totalPoints, 6u);
  ASSERT_TRUE(std::filesystem::exists(full.artifactPath));

  std::string mergedCsv;
  std::size_t shardRows = 0;
  for (int i = 0; i < 4; ++i) {
    RunOptions sharded = opt;
    sharded.shard = ShardSpec{i, 4};
    const ExperimentRun run = runExperiment(spec, sharded, log);
    EXPECT_EQ(run.totalPoints, 6u);
    shardRows += run.rows.size();
    EXPECT_NE(run.artifactPath, full.artifactPath) << "shard artifacts must not collide";
    mergedCsv += slurp(run.artifactPath);
  }
  EXPECT_EQ(shardRows, 6u);
  // After a stable sort by row text (labels are unique and lead the row),
  // the concatenated shard outputs equal the unsharded output exactly.
  EXPECT_EQ(sortedDataRows(mergedCsv), sortedDataRows(slurp(full.artifactPath)));
}

TEST(RunExperiment, EpilogueSeesTheRunsRows) {
  ExperimentSpec spec = tinySpec("tiny_epilogue");
  bool epilogueRan = false;
  spec.epilogue = [&](const std::vector<SweepRow>& rows) {
    epilogueRan = true;
    return "epilogue rows=" + std::to_string(rows.size()) + "\n";
  };

  RunOptions opt;
  opt.outDir = (std::filesystem::temp_directory_path() / "swft_experiment_test").string();
  opt.threads = 1;
  opt.progress = false;
  std::ostringstream log;
  const ExperimentRun run = runExperiment(spec, opt, log);

  EXPECT_TRUE(epilogueRan);
  EXPECT_NE(log.str().find("epilogue rows=6"), std::string::npos);
  EXPECT_TRUE(run.artifactPath.ends_with("tiny_epilogue.csv"));
}

TEST(RunExperiment, OutDirWithMissingNestedDirectoriesIsCreatedUpFront) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "swft_experiment_test" / "missing" / "a" / "b")
                              .string();
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(std::filesystem::exists(dir));

  RunOptions opt;
  opt.outDir = dir;
  opt.threads = 1;
  opt.progress = false;
  std::ostringstream log;
  const ExperimentRun run = runExperiment(tinySpec("tiny_mkdir"), opt, log);
  EXPECT_TRUE(std::filesystem::exists(run.artifactPath));
}

TEST(RunExperiment, UnwritableOutDirFailsBeforeSimulating) {
  const std::string parent =
      (std::filesystem::temp_directory_path() / "swft_experiment_test").string();
  std::filesystem::create_directories(parent);
  const std::string blocked = parent + "/outdir_is_a_file";
  { std::ofstream out(blocked); }

  RunOptions opt;
  opt.outDir = blocked;
  opt.threads = 1;
  std::ostringstream log;
  EXPECT_THROW((void)runExperiment(tinySpec("tiny_badout"), opt, log),
               std::runtime_error);
  // The failure must precede the sweep: no progress line was ever printed.
  EXPECT_EQ(log.str().find("tiny_badout/"), std::string::npos);
}

// A point whose faults cannot be placed fails the run with that point's
// label and the placement inputs in the message, so a figure run names
// which of its points to look at.
TEST(RunExperiment, FaultPlacementFailureNamesThePoint) {
  ExperimentSpec spec = tinySpec("tiny_unplaced");
  spec.build = [inner = spec.build] {
    std::vector<SweepPoint> points = inner();
    points[3].cfg.faults.randomNodes = 15;  // 15 of 16 nodes, after a 2x2 region
    RegionSpec rect;
    rect.shape = RegionShape::Rect;
    rect.extent0 = 2;
    rect.extent1 = 2;
    rect.anchor.digit.push_back(0);
    rect.anchor.digit.push_back(0);
    points[3].cfg.faults.regions.push_back(rect);
    return points;
  };
  RunOptions opt;
  opt.outDir = (std::filesystem::temp_directory_path() / "swft_experiment_test").string();
  opt.threads = 2;
  opt.progress = false;
  std::ostringstream log;
  try {
    (void)runExperiment(spec, opt, log);
    FAIL() << "runExperiment should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep point 'pt3'"), std::string::npos) << what;
    EXPECT_NE(what.find("nf=15"), std::string::npos) << what;
    EXPECT_NE(what.find("4 region faults"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=80"), std::string::npos) << what;
  }
}

// ---- the content-addressed result cache ----------------------------------

TEST(RunExperiment, WarmCacheRerunIsAllHitsWithByteIdenticalArtifact) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "swft_experiment_cache").string();
  std::filesystem::remove_all(base);
  const ExperimentSpec spec = tinySpec("tiny_cache");

  RunOptions opt;
  opt.outDir = base + "/out";
  opt.useCache = true;
  opt.cacheDir = base + "/cache";
  opt.threads = 2;
  opt.progress = false;
  std::ostringstream log;

  const ExperimentRun cold = runExperiment(spec, opt, log);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 6u);
  EXPECT_EQ(cold.cache.inserts, 6u);
  const std::string coldBytes = slurp(cold.artifactPath);
  ASSERT_FALSE(coldBytes.empty());

  // Warm re-run: zero simulations (hits == grid size), identical bytes.
  const ExperimentRun warm = runExperiment(spec, opt, log);
  EXPECT_EQ(warm.cache.hits, 6u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.inserts, 0u);
  EXPECT_EQ(slurp(warm.artifactPath), coldBytes);

  // Corrupting one entry downgrades exactly that point to a miss; the run
  // re-simulates it, re-stores it, and the artifact is unchanged.
  std::size_t corrupted = 0;
  for (const auto& e : std::filesystem::directory_iterator(opt.cacheDir)) {
    if (e.path().extension() != ".result") continue;
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out << "garbage";
    ++corrupted;
    break;
  }
  ASSERT_EQ(corrupted, 1u);
  const ExperimentRun healed = runExperiment(spec, opt, log);
  EXPECT_EQ(healed.cache.hits, 5u);
  EXPECT_EQ(healed.cache.misses, 1u);
  EXPECT_EQ(healed.cache.inserts, 1u);
  EXPECT_EQ(slurp(healed.artifactPath), coldBytes);
  const ExperimentRun afterHeal = runExperiment(spec, opt, log);
  EXPECT_EQ(afterHeal.cache.hits, 6u);
}

/// `log` split into its progress lines ("  [k/n] ...") and everything else.
std::pair<std::vector<std::string>, std::string> splitProgress(const std::string& log) {
  std::stringstream ss(log);
  std::string line;
  std::vector<std::string> progress;
  std::string rest;
  while (std::getline(ss, line)) {
    if (line.starts_with("  [")) {
      progress.push_back(line);
    } else {
      rest += line;
      rest += '\n';
    }
  }
  return {progress, rest};
}

// The cache pass runs on the pool's threads; what the run prints and writes
// must not show it: progress only for the simulated points, numbered over
// the misses, the same cache line, and the cold run's table and artifact.
TEST(RunExperiment, PartlyWarmRunLogsOnlyItsMisses) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "swft_experiment_partly_warm").string();
  std::filesystem::remove_all(base);
  const ExperimentSpec spec = tinySpec("tiny_partly_warm");

  RunOptions opt;
  opt.outDir = base + "/out";
  opt.useCache = true;
  opt.cacheDir = base + "/cache";
  opt.threads = 4;
  opt.progress = true;
  std::ostringstream coldLog;
  const ExperimentRun cold = runExperiment(spec, opt, coldLog);
  const std::string coldBytes = slurp(cold.artifactPath);
  EXPECT_EQ(splitProgress(coldLog.str()).first.size(), 6u);

  const std::vector<SweepPoint> points = spec.build();
  const ResultCache store(opt.cacheDir);
  for (const std::size_t i : {1u, 4u}) {
    std::ofstream out(opt.cacheDir + "/" + store.keyFor(points[i].cfg) + ".result",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  std::ostringstream log;
  const ExperimentRun run = runExperiment(spec, opt, log);
  EXPECT_EQ(run.cache.hits, 4u);
  EXPECT_EQ(run.cache.misses, 2u);
  EXPECT_EQ(run.cache.inserts, 2u);
  EXPECT_EQ(slurp(run.artifactPath), coldBytes);

  const auto [progress, rest] = splitProgress(log.str());
  ASSERT_EQ(progress.size(), 2u) << log.str();
  EXPECT_TRUE(progress[0].starts_with("  [1/2] tiny_partly_warm/")) << progress[0];
  EXPECT_TRUE(progress[1].starts_with("  [2/2] tiny_partly_warm/")) << progress[1];
  const std::set<std::string> simulated{progress[0].substr(progress[0].find('/', 6) + 1),
                                        progress[1].substr(progress[1].find('/', 6) + 1)};
  EXPECT_EQ(simulated, (std::set<std::string>{"pt1", "pt4"}));
  const std::string cacheLine =
      "cache: 4 hits, 2 misses, 2 inserts (" + opt.cacheDir + ")\n";
  EXPECT_NE(rest.find(cacheLine), std::string::npos) << log.str();

  // Apart from the progress and cache lines, the log is the cold run's.
  std::string coldRest = splitProgress(coldLog.str()).second;
  const std::string coldCacheLine =
      "cache: 0 hits, 6 misses, 6 inserts (" + opt.cacheDir + ")\n";
  ASSERT_NE(coldRest.find(coldCacheLine), std::string::npos) << coldLog.str();
  coldRest.replace(coldRest.find(coldCacheLine), coldCacheLine.size(), cacheLine);
  EXPECT_EQ(rest, coldRest);
}

TEST(RunExperiment, ShardedRunsFillTheCacheForTheUnshardedRun) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "swft_experiment_cache_shard").string();
  std::filesystem::remove_all(base);
  const ExperimentSpec spec = tinySpec("tiny_cache_shard");

  RunOptions opt;
  opt.outDir = base + "/out";
  opt.useCache = true;
  opt.cacheDir = base + "/cache";
  opt.threads = 1;
  opt.progress = false;
  std::ostringstream log;

  // Fan the grid out across 3 "processes" against one store…
  for (int i = 0; i < 3; ++i) {
    RunOptions sharded = opt;
    sharded.shard = ShardSpec{i, 3};
    (void)runExperiment(spec, sharded, log);
  }
  // …then the merged unsharded re-run pays for nothing.
  const ExperimentRun merged = runExperiment(spec, opt, log);
  EXPECT_EQ(merged.cache.hits, 6u);
  EXPECT_EQ(merged.cache.misses, 0u);
}

TEST(RunExperiment, CacheOffByDefaultAndTouchesNothing) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "swft_experiment_nocache").string();
  std::filesystem::remove_all(base);
  RunOptions opt;
  opt.outDir = base + "/out";
  opt.cacheDir = base + "/cache";  // ignored: useCache defaults to false
  opt.threads = 1;
  opt.progress = false;
  std::ostringstream log;
  const ExperimentRun run = runExperiment(tinySpec("tiny_no_store"), opt, log);
  EXPECT_EQ(run.cache.misses, 0u);
  EXPECT_FALSE(std::filesystem::exists(opt.cacheDir));
  EXPECT_EQ(log.str().find("cache:"), std::string::npos);
}

TEST(RunExperiment, ArtifactNames) {
  const ExperimentSpec spec = tinySpec("fig_x");
  RunOptions opt;
  EXPECT_EQ(artifactName(spec, opt), "fig_x.csv");
  opt.shard = ShardSpec{2, 4};
  EXPECT_EQ(artifactName(spec, opt), "fig_x.shard2-of-4.csv");
}

}  // namespace
}  // namespace swft
