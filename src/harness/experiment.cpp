#include "src/harness/experiment.hpp"

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "src/harness/table.hpp"
#include "src/util/fnv.hpp"

namespace swft {

namespace {

int parseShardInt(const std::string& text, std::string_view part) {
  int out = 0;
  const auto [ptr, ec] = std::from_chars(part.data(), part.data() + part.size(), out);
  if (ec != std::errc{} || ptr != part.data() + part.size()) {
    throw std::invalid_argument("shard: expected 'i/N' with integers, got '" + text + "'");
  }
  return out;
}

}  // namespace

ShardSpec parseShard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("shard: expected 'i/N' (e.g. 0/4), got '" + text + "'");
  }
  ShardSpec shard;
  shard.index = parseShardInt(text, std::string_view(text).substr(0, slash));
  shard.count = parseShardInt(text, std::string_view(text).substr(slash + 1));
  if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
    throw std::invalid_argument("shard: need 0 <= i < N, got '" + text + "'");
  }
  return shard;
}

bool inShard(std::string_view label, const ShardSpec& shard) noexcept {
  if (shard.isAll()) return true;
  return fnv1a64(label) % static_cast<std::uint64_t>(shard.count) ==
         static_cast<std::uint64_t>(shard.index);
}

std::vector<SweepPoint> shardPoints(std::vector<SweepPoint> points, const ShardSpec& shard) {
  if (shard.isAll()) return points;
  std::vector<SweepPoint> mine;
  mine.reserve(points.size() / static_cast<std::size_t>(shard.count) + 1);
  for (auto& p : points) {
    if (inShard(p.label, shard)) mine.push_back(std::move(p));
  }
  return mine;
}

std::string artifactName(const ExperimentSpec& spec, const RunOptions& opt) {
  std::string name = spec.name;
  if (!opt.shard.isAll()) {
    name += ".shard" + std::to_string(opt.shard.index) + "-of-" +
            std::to_string(opt.shard.count);
  }
  return name + ".csv";
}

ExperimentRun runExperiment(const ExperimentSpec& spec, const RunOptions& opt,
                            std::ostream& log) {
  ExperimentRun run;
  std::vector<SweepPoint> points = spec.build();
  run.totalPoints = points.size();
  points = shardPoints(std::move(points), opt.shard);

  // Resolve and create the artifact directory (and the cache store) before
  // any point simulates: a bad --out/--cache-dir must fail in milliseconds,
  // not after the grid already burned its simulation time.
  const std::string dir = opt.outDir.empty() ? resultsDir() : opt.outDir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("cannot create artifact directory '" + dir + "': " + ec.message());
  }
  std::unique_ptr<ResultCache> cache;
  if (opt.useCache) {
    cache = std::make_unique<ResultCache>(opt.cacheDir.empty() ? defaultCacheDir()
                                                               : opt.cacheDir);
  }

  log << "=== " << spec.name << ": " << spec.description << " ===\n";
  if (!opt.shard.isAll()) {
    log << "shard " << opt.shard.index << "/" << opt.shard.count << ": " << points.size()
        << " of " << run.totalPoints << " points\n";
  }

  // Rows stay in grid order whether a row came from the cache or the pool,
  // and whichever thread looked it up or simulated it, so the artifact bytes
  // cannot depend on either.
  std::vector<SweepRow> rows;
  rows.reserve(points.size());
  for (SweepPoint& p : points) rows.push_back({std::move(p), {}});

  // Cache pass, on the pool's threads: a hit fills its row and never
  // simulates.
  std::vector<char> hit(rows.size(), 0);
  if (cache) {
    parallelFor(rows.size(), opt.threads, [&](std::size_t i) {
      if (std::optional<SimResult> r = cache->lookup(rows[i].point.cfg)) {
        rows[i].result = *r;
        hit[i] = 1;
      }
    });
  }
  // Only the misses simulate, so only they are validated, all of them
  // before the first simulation starts.
  std::vector<std::size_t> missIdx;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (hit[i]) continue;
    validatePoint(rows[i].point);
    missIdx.push_back(i);
  }

  // Miss pass: one lock serialises the store, the counts and `log`; the
  // store's rename keeps it safe across processes.
  std::mutex doneMutex;
  std::size_t done = 0;
  std::size_t storeFailures = 0;
  parallelFor(missIdx.size(), opt.threads, [&](std::size_t j) {
    SweepRow& row = rows[missIdx[j]];
    PhaseBreakdown phases;
    row.result = simulatePoint(row.point, opt.phaseTimers ? &phases : nullptr);
    const std::lock_guard<std::mutex> lock(doneMutex);
    if (cache && !cache->store(row.point.cfg, row.result)) ++storeFailures;
    ++done;
    if (opt.progress || opt.phaseTimers) {
      log << "  [" << done << "/" << missIdx.size() << "] " << spec.name << "/"
          << row.point.label;
      if (opt.phaseTimers) log << "  " << phases.toString();
      log << "\n";
    }
  });
  run.rows = std::move(rows);

  if (cache) {
    run.cache = cache->stats();
    log << "cache: " << run.cache.hits << " hits, " << run.cache.misses
        << " misses, " << run.cache.inserts << " inserts (" << cache->dir() << ")";
    if (storeFailures > 0) log << ", " << storeFailures << " stores failed";
    log << "\n";
  }

  log << formatTable(run.rows, spec.columns);
  if (spec.epilogue) log << spec.epilogue(run.rows);

  run.artifactPath = dir + "/" + artifactName(spec, opt);
  toCsv(run.rows).writeFile(run.artifactPath);
  log << "wrote " << run.artifactPath << " (" << run.rows.size() << " rows)\n";
  return run;
}

}  // namespace swft
