// swft_bench — one front-end for every registered experiment (the paper's
// figure sweeps, the ablations, and the beyond-paper workloads).
//
//   swft_bench --list
//   swft_bench --run fig6
//   swft_bench --run all --threads 8 --out results/
//   swft_bench --run fig3 --shard 2/4       # quarter of the grid, merge-safe
//
// Sharding partitions a grid by a stable label hash, so N machines each
// running `--shard i/N` produce disjoint artifacts whose union is exactly
// the unsharded run (concatenate, or stable-sort by label to compare).
#include <algorithm>
#include <charconv>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/experiment_registry.hpp"
#include "src/harness/table.hpp"
#include "src/traffic/patterns.hpp"

namespace {

void printUsage() {
  std::cout
      << "usage: swft_bench --list\n"
         "       swft_bench --run <name[,name...]|all> [--run <name>...] [options]\n"
         "       swft_bench --cache-stats [--cache-dir DIR]\n"
         "options:\n"
         "  --shard i/N        run only the points whose stable label hash lands in\n"
         "                     residue class i (0-based); outputs are merge-safe\n"
         "  --threads T        sweep thread-pool size: one simulation per thread\n"
         "                     (default, or T <= 0: hardware concurrency)\n"
         "  --phase-timers     end each simulated point's progress line with its\n"
         "                     per-phase wall-clock times (gen/inj/walk), also under\n"
         "                     --quiet; cache hits skip simulation and print nothing —\n"
         "                     combine with --no-cache to time every point\n"
         "  --out DIR          artifact directory (default: $SWFT_RESULTS_DIR or results/)\n"
         "  --no-cache         simulate every point, touch no cache state (default: the\n"
         "                     content-addressed result cache serves stored points,\n"
         "                     misses simulate and store)\n"
         "  --cache-dir DIR    cache store directory (default: $SWFT_CACHE_DIR or\n"
         "                     <results>/cache); re-enables the cache after --no-cache\n"
         "  --cache-stats      print aggregate hit/miss/insert counts and the on-disk\n"
         "                     store size after the runs (usable without --run)\n"
         "  --quiet            suppress per-point progress lines\n"
         "environment:\n"
         "  SWFT_SCALE=paper   full paper-scale runs (default: reduced, ~1/10 cost)\n";
}

void printList() {
  const auto specs = swft::ExperimentRegistry::instance().all();
  std::cout << specs.size() << " registered experiments:\n";
  std::size_t width = 4;
  for (const auto* spec : specs) width = std::max(width, spec->name.size());
  for (const auto* spec : specs) {
    std::cout << "  " << spec->name << std::string(width - spec->name.size() + 2, ' ')
              << "(" << spec->build().size() << " points)  " << spec->description << "\n";
  }
  std::cout << "traffic patterns:";
  for (const swft::TrafficPattern p : swft::kAllTrafficPatterns) {
    std::cout << " " << swft::trafficPatternName(p);
  }
  std::cout << "\n";
}

}  // namespace

/// Split a comma-separated --run value ("fig3,fig4,fig7") into names; empty
/// segments (",," or trailing commas) are rejected by the registry lookup
/// below, which already handles unknown names.
void appendNames(std::vector<std::string>& names, const std::string& value) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    names.push_back(value.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

int main(int argc, char** argv) {
  bool list = false;
  bool cacheStats = false;
  std::vector<std::string> names;
  swft::RunOptions opt;
  opt.useCache = true;  // the production default: re-runs pay only for misses

  auto needValue = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "error: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strcmp(arg, "--list") == 0) {
        list = true;
      } else if (std::strcmp(arg, "--run") == 0) {
        appendNames(names, needValue(i));
      } else if (std::strcmp(arg, "--shard") == 0) {
        opt.shard = swft::parseShard(needValue(i));
      } else if (std::strcmp(arg, "--threads") == 0) {
        const std::string_view value = needValue(i);
        const auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), opt.threads);
        if (ec != std::errc{} || ptr != value.data() + value.size()) {
          std::cerr << "error: --threads expects an integer, got '" << value << "'\n";
          return 2;
        }
      } else if (std::strcmp(arg, "--phase-timers") == 0) {
        opt.phaseTimers = true;
      } else if (std::strcmp(arg, "--out") == 0) {
        opt.outDir = needValue(i);
      } else if (std::strcmp(arg, "--no-cache") == 0) {
        opt.useCache = false;
      } else if (std::strcmp(arg, "--cache-dir") == 0) {
        opt.cacheDir = needValue(i);
        opt.useCache = true;
      } else if (std::strcmp(arg, "--cache-stats") == 0) {
        cacheStats = true;
      } else if (std::strcmp(arg, "--quiet") == 0) {
        opt.progress = false;
      } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        printUsage();
        return 0;
      } else {
        std::cerr << "error: unknown argument '" << arg << "'\n\n";
        printUsage();
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (list) {
    printList();
    return 0;
  }
  if (opt.cacheDir.empty()) opt.cacheDir = swft::defaultCacheDir();
  if (names.empty() && cacheStats) {
    // Inspect-only mode: report the store without running anything.
    const auto info = swft::ResultCache::scanDir(opt.cacheDir);
    std::cout << "cache stats: hits=0 misses=0 inserts=0 entries=" << info.entries
              << " bytes=" << info.bytes << " dir=" << opt.cacheDir << "\n";
    return 0;
  }
  if (names.empty()) {
    printUsage();
    return 2;
  }

  auto& registry = swft::ExperimentRegistry::instance();
  std::vector<const swft::ExperimentSpec*> toRun;
  auto addOnce = [&toRun](const swft::ExperimentSpec* spec) {
    // Dedup repeated --run names (and `--run x --run all`): running a spec
    // twice would redo the sweep and silently overwrite its artifact.
    if (std::find(toRun.begin(), toRun.end(), spec) == toRun.end()) toRun.push_back(spec);
  };
  for (const std::string& name : names) {
    if (name == "all") {
      for (const auto* spec : registry.all()) addOnce(spec);
      continue;
    }
    const swft::ExperimentSpec* spec = registry.find(name);
    if (spec == nullptr) {
      std::cerr << "error: unknown experiment '" << name << "' (see --list)\n";
      return 2;
    }
    addOnce(spec);
  }

  int failures = 0;
  swft::CacheStats totals;
  for (const auto* spec : toRun) {
    try {
      const swft::ExperimentRun run = swft::runExperiment(*spec, opt, std::cout);
      totals.hits += run.cache.hits;
      totals.misses += run.cache.misses;
      totals.inserts += run.cache.inserts;
      for (const swft::SweepRow& row : run.rows) {
        if (row.result.deadlockSuspected) {
          std::cerr << "warning: deadlock watchdog fired at " << spec->name << "/"
                    << row.point.label << "\n";
          ++failures;
        }
      }
      std::cout << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: experiment '" << spec->name << "' failed: " << e.what() << "\n";
      ++failures;
    }
  }
  if (cacheStats) {
    const auto info = swft::ResultCache::scanDir(opt.cacheDir);
    std::cout << "cache stats: hits=" << totals.hits << " misses=" << totals.misses
              << " inserts=" << totals.inserts << " entries=" << info.entries
              << " bytes=" << info.bytes << " dir=" << opt.cacheDir << "\n";
  }
  return failures == 0 ? 0 : 1;
}
