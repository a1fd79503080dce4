// Declarative experiment subsystem: an experiment is a named grid of
// SweepPoints plus presentation metadata. Specs are registered once (see
// experiment_registry.hpp) and driven uniformly by the `swft_bench` tool:
// one code path for the thread pool, deterministic cross-machine sharding,
// table output and the CSV artifact — instead of one hand-rolled
// main() per paper figure.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/result_cache.hpp"
#include "src/harness/sweep.hpp"

namespace swft {

struct ExperimentSpec {
  std::string name;         // registry key and artifact basename, e.g. "fig6"
  std::string description;  // one-line caption shown by --list and above tables
  // Build the full point grid. Called at run time (not registration time) so
  // builders can consult SWFT_SCALE and other environment knobs.
  std::function<std::vector<SweepPoint>()> build;
  std::vector<std::string> columns;  // result columns for the text table
  // Optional: extra stdout after the table (analytic-model comparison,
  // heatmap renderings, ...). Receives the completed rows of this run.
  std::function<std::string(const std::vector<SweepRow>&)> epilogue;
};

/// Deterministic shard selector: shard i of N runs the points whose stable
/// label hash falls in residue class i. index is 0-based, 0 <= index < count.
struct ShardSpec {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool isAll() const noexcept { return count <= 1; }
};

/// Parse "i/N" (e.g. "0/4"). Throws std::invalid_argument on malformed input
/// or out-of-range indices.
[[nodiscard]] ShardSpec parseShard(const std::string& text);

/// Shard membership by FNV-1a 64 of the label bytes (fnv1a64). Stable across
/// platforms, compilers and standard libraries (unlike std::hash) — the
/// sharding contract is that the same label lands in the same shard on every
/// machine.
[[nodiscard]] bool inShard(std::string_view label, const ShardSpec& shard) noexcept;

/// Partition a point grid down to one shard, preserving order.
[[nodiscard]] std::vector<SweepPoint> shardPoints(std::vector<SweepPoint> points,
                                                  const ShardSpec& shard);

struct RunOptions {
  ShardSpec shard;
  int threads = 0;  // <= 0: hardware concurrency (runSweep convention)
  // Time every simulated point's phases (simulatePoint's sink) and end its
  // progress line on `log` with them, "gen …s inj …s walk …s"; the line is
  // printed even without `progress`. Points served from the result cache
  // never simulate, so they print no timers (timers don't change results).
  bool phaseTimers = false;
  std::string outDir;    // empty: resultsDir()
  bool progress = true;  // per-point progress lines on `log`
  // Consult the content-addressed result cache before simulating: points
  // whose canonical config key is already stored short-circuit to the cached
  // SimResult (bit-identical to re-simulation by the engine-equivalence
  // guarantee), misses simulate through the pool and are stored. Artifacts
  // are byte-identical either way.
  bool useCache = false;
  std::string cacheDir;  // empty: defaultCacheDir()
};

struct ExperimentRun {
  std::vector<SweepRow> rows;
  std::size_t totalPoints = 0;  // grid size before sharding
  std::string artifactPath;
  CacheStats cache;  // hit/miss/insert counts (all zero without useCache)
};

/// Artifact filename for a run: `<name>.csv` unsharded, or
/// `<name>.shard<i>-of-<N>.csv` so shard outputs never collide and can be
/// merged by concatenation (drop the header of all but the first).
[[nodiscard]] std::string artifactName(const ExperimentSpec& spec, const RunOptions& opt);

/// Build the grid, apply the shard, serve cache hits, simulate the misses
/// through simulatePoint on parallelFor's pool, print the paper-style table
/// to `log`, and write the CSV artifact. Rows keep grid order, so a fixed
/// seed reproduces byte-identical artifacts.
ExperimentRun runExperiment(const ExperimentSpec& spec, const RunOptions& opt,
                            std::ostream& log);

}  // namespace swft
