// The engine's before/after perf harness: times the dense reference engine
// (DenseReference, the test oracle) against the event-sparse engine on five
// pinned operating points (low load, three saturation knees, faulty
// adaptive), each measured in its own subprocess, and prints the figures.
// The saturation and saturation_16ary3 points also run a sparse-mt
// thread-scaling sweep (simThreads 1/2/4/8) recording mtN_cps, the best
// self-speedup over thread counts the machine can actually host, and
// hardware_concurrency.
//
//   --emit-json=F   writes the figures as machine-readable JSON (schema
//                   swft-bench-engine-v1, see README.md).
//   --check=REF     compares this run's sparse-engine cycles/sec against a
//                   checked-in reference JSON and exits 1 if any point falls
//                   more than kTolerance (30%) below it. Used by the
//                   perf-smoke CI job to catch order-of-magnitude
//                   regressions without flaking on runner noise. Per-point
//                   min_speedup and min_self_speedup entries in the
//                   reference gate the sparse/dense ratio and the sparse-mt
//                   scaling; the latter is derated by the runner's core
//                   count so the gate is runner-speed- and
//                   runner-width-insensitive (trivially satisfied on a
//                   single-core machine, armed on multi-core CI).
//   --point=NAME    measures one operating point in this process (how the
//                   harness runs each subprocess).
//
// Any other argument, or one of these without a value, exits 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/config_parse.hpp"
#include "src/sim/engine_dense.hpp"
#include "src/util/simd.hpp"

using namespace swft;

namespace {

/// How far sparse_cps may fall below the --check reference before the
/// absolute gate trips.
constexpr double kTolerance = 0.30;

struct OperatingPoint {
  const char* name;
  SimConfig cfg;
  std::uint64_t warmCycles;
  std::uint64_t chunkCycles;  // cycles per timed repetition
  bool threadScaling = false; // also sweep sparse-mt simThreads 1/2/4/8
};

std::vector<OperatingPoint> operatingPoints() {
  std::vector<OperatingPoint> points;

  // Low load: lambda ~4% of the saturation knee (~0.0073 for this config)
  // on a 256-node torus. Most PEs are idle most cycles — the event-sparse
  // engine's home turf, and the regime every latency-curve figure sweeps
  // through for most of its points.
  {
    OperatingPoint p{"low_load", {}, 4000, 60'000};
    p.cfg.radix = 16;
    p.cfg.dims = 2;
    p.cfg.vcs = 4;
    p.cfg.messageLength = 32;
    p.cfg.injectionRate = 0.0003;
    points.push_back(p);
  }

  // Saturation knee (accepted throughput peaks at ~0.0146 for this config):
  // every router busy every cycle with bounded queues — the worst case for
  // activity tracking, where any win must come from the contiguous arena
  // alone and the realistic expectation is parity.
  {
    OperatingPoint p{"saturation", {}, 8000, 20'000};
    p.cfg.radix = 8;
    p.cfg.dims = 2;
    p.cfg.vcs = 10;
    p.cfg.messageLength = 32;
    p.cfg.injectionRate = 0.015;
    p.threadScaling = true;
    points.push_back(p);
  }

  // Paper scale: a 4096-node 16-ary 3-cube at its saturation knee
  // (accepted throughput peaks at ~0.0057 msgs/node/cycle for this config;
  // probed empirically). Every router column of the arena is in play, so
  // cache behaviour — not just branch shape — differs from the 64-node
  // saturation point above. Short chunks keep the dense side of a full
  // harness run in tens of seconds.
  {
    OperatingPoint p{"saturation_16ary3", {}, 3000, 3'000};
    p.cfg.radix = 16;
    p.cfg.dims = 3;
    p.cfg.vcs = 4;
    p.cfg.messageLength = 32;
    p.cfg.injectionRate = 0.006;
    p.threadScaling = true;
    points.push_back(p);
  }

  // The paper's Fig. 4/7 router: an 8-ary 3-cube at V=10 has 7 ports x 10
  // VCs = 70 input units, the only point whose routers span two occupancy
  // words. Accepted throughput peaks at ~0.0139 msgs/node/cycle (probed
  // empirically); lambda sits just above it, like the other knee points.
  {
    OperatingPoint p{"saturation_8ary3_v10", {}, 3000, 3'000};
    p.cfg.radix = 8;
    p.cfg.dims = 3;
    p.cfg.vcs = 10;
    p.cfg.messageLength = 32;
    p.cfg.injectionRate = 0.014;
    points.push_back(p);
  }

  // Faulty adaptive: software-layer absorptions and reinjection queues in
  // the loop at a moderate load.
  {
    OperatingPoint p{"faulty_adaptive", {}, 4000, 20'000};
    p.cfg.radix = 8;
    p.cfg.dims = 2;
    p.cfg.vcs = 4;
    p.cfg.messageLength = 32;
    p.cfg.injectionRate = 0.004;
    p.cfg.routing = RoutingMode::Adaptive;
    p.cfg.faults.randomNodes = 10;
    p.cfg.reinjectDelay = 20;
    points.push_back(p);
  }

  for (OperatingPoint& p : points) {
    p.cfg.warmupMessages = 0;
    p.cfg.measuredMessages = ~std::uint32_t{0};
    p.cfg.maxCycles = ~std::uint64_t{0};
    p.cfg.seed = 1;
  }
  return points;
}

/// Median cycles/second for both engines, measured in interleaved pairs
/// (dense chunk, sparse chunk, dense chunk, ...) so slow machine-load drift
/// hits both sides equally instead of biasing whichever ran second.
struct MeasuredPair {
  double denseCps;
  double sparseCps;
};

MeasuredPair measureCyclesPerSecond(const OperatingPoint& point, int reps = 7) {
  DenseReference dense(point.cfg);
  Network sparse(point.cfg);
  dense.step(point.warmCycles);
  sparse.step(point.warmCycles);
  std::vector<double> denseSamples;
  std::vector<double> sparseSamples;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    dense.step(point.chunkCycles);
    auto t1 = std::chrono::steady_clock::now();
    sparse.step(point.chunkCycles);
    auto t2 = std::chrono::steady_clock::now();
    denseSamples.push_back(static_cast<double>(point.chunkCycles) /
                           std::chrono::duration<double>(t1 - t0).count());
    sparseSamples.push_back(static_cast<double>(point.chunkCycles) /
                            std::chrono::duration<double>(t2 - t1).count());
  }
  std::sort(denseSamples.begin(), denseSamples.end());
  std::sort(sparseSamples.begin(), sparseSamples.end());
  return MeasuredPair{denseSamples[denseSamples.size() / 2],
                      sparseSamples[sparseSamples.size() / 2]};
}

// The sparse-mt thread-scaling axis: the single-domain baseline, two
// intermediate widths, and the tentpole's 8-thread target.
constexpr int kMtThreadAxis[] = {1, 2, 4, 8};
constexpr std::size_t kMtAxisLen = sizeof(kMtThreadAxis) / sizeof(kMtThreadAxis[0]);

/// Thread counts worth crediting on this machine: no point demanding (or
/// rewarding) an 8-way speedup on a 2-core runner.
unsigned usableCores() {
  return std::min(std::max(1u, std::thread::hardware_concurrency()), 8u);
}

struct MtScaling {
  std::vector<double> cps;      // median cycles/sec per kMtThreadAxis entry
  std::vector<double> parFrac;  // measured parallel fraction per entry
};

/// Median sparse-mt cycles/sec at each axis thread count. Each count is
/// measured in its own scope — idle MtEngine workers spin (with yield)
/// between phases, so two mt networks alive at once would steal cycles from
/// each other and distort every sample on narrow machines. The
/// self-speedup gate consumes ratios of numbers taken seconds apart, which
/// machine-load drift moves together.
///
/// Each run also measures its *parallel fraction* from the engine's phase
/// shards: 1 - serial / work, where serial is the main thread's sparse-cycle
/// time (gen + inj + walk) and work is every thread's phase time excluding
/// barrier waits. This is the Amdahl input that explains the mtN_cps curve
/// — the PhaseClock overhead (a few steady_clock reads per cycle per
/// thread) is far below the run-to-run noise floor.
MtScaling measureMtScaling(const OperatingPoint& point, int reps = 5) {
  MtScaling out;
  out.cps.reserve(kMtAxisLen);
  out.parFrac.reserve(kMtAxisLen);
  for (const int t : kMtThreadAxis) {
    SimConfig cfg = point.cfg;
    cfg.engine = EngineKind::SparseMt;
    cfg.simThreads = t;
    cfg.phaseTimers = true;
    Network net(cfg);
    net.step(point.warmCycles);
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      net.step(point.chunkCycles);
      const auto t1 = std::chrono::steady_clock::now();
      samples.push_back(static_cast<double>(point.chunkCycles) /
                        std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(samples.begin(), samples.end());
    out.cps.push_back(samples[samples.size() / 2]);
    const std::vector<PhaseBreakdown>& shards = net.phaseShards();
    double serial = shards.empty() ? 0.0 : shards[0].serial();
    double work = 0.0;
    for (const PhaseBreakdown& s : shards) {
      work += s.total() - s.sec[PhaseBreakdown::kBarrier];
    }
    out.parFrac.push_back(work > 0.0 ? 1.0 - serial / work : 0.0);
  }
  return out;
}

struct PointResult {
  std::string name;
  std::string config;
  double denseCps = 0.0;
  double sparseCps = 0.0;
  std::vector<double> mtCps;      // per kMtThreadAxis entry; empty = no sweep
  std::vector<double> mtParFrac;  // measured parallel fraction per entry
};

/// Best sparse-mt self-speedup over the thread counts this machine can host
/// concurrently (1.0 when only the single-domain run fits).
double bestSelfSpeedup(const PointResult& r) {
  if (r.mtCps.size() != kMtAxisLen || r.mtCps[0] <= 0.0) return 0.0;
  const unsigned usable = usableCores();
  double best = 1.0;
  for (std::size_t i = 0; i < kMtAxisLen; ++i) {
    if (static_cast<unsigned>(kMtThreadAxis[i]) > usable) continue;
    best = std::max(best, r.mtCps[i] / r.mtCps[0]);
  }
  return best;
}

/// Compiler id + version, for the bench-metadata header.
std::string compilerString() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

std::string resultsToJson(const std::vector<PointResult>& results) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed;
  os << "{\n";
  os << "  \"schema\": \"swft-bench-engine-v1\",\n";
  os << "  \"description\": \"cycles/sec of the dense reference engine (the "
        "seed implementation) vs the event-sparse engine, medians of 7 "
        "interleaved steady-state chunks per point; saturation points also "
        "sweep the sparse-mt engine at 1/2/4/8 domain threads (mtN_cps), "
        "each run's measured parallel fraction from the engine phase timers "
        "(mtN_parallel_fraction = 1 - serial sparse-cycle time / total phase work), "
        "and record the best self-speedup over thread counts this machine's "
        "hardware_concurrency can host\",\n";
  // Machine/toolchain metadata, so cross-machine comparisons of the numbers
  // below are honest about what produced them.
  os << "  \"simd_isa\": \"" << simd::isaName() << "\",\n";
  os << "  \"compiler\": \"" << compilerString() << "\",\n";
  os << "  \"hardware_concurrency\": "
     << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"config\": \"" << r.config << "\",\n";
    os << "      \"dense_cps\": " << r.denseCps << ",\n";
    os << "      \"sparse_cps\": " << r.sparseCps << ",\n";
    if (r.mtCps.size() == kMtAxisLen) {
      for (std::size_t t = 0; t < kMtAxisLen; ++t) {
        os << "      \"mt" << kMtThreadAxis[t] << "_cps\": " << r.mtCps[t] << ",\n";
      }
      if (r.mtParFrac.size() == kMtAxisLen) {
        os.precision(3);
        for (std::size_t t = 0; t < kMtAxisLen; ++t) {
          os << "      \"mt" << kMtThreadAxis[t]
             << "_parallel_fraction\": " << r.mtParFrac[t] << ",\n";
        }
        os.precision(1);
      }
      os.precision(3);
      os << "      \"self_speedup\": " << bestSelfSpeedup(r) << ",\n";
      os.precision(1);
      os << "      \"hardware_concurrency\": "
         << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
    }
    os.precision(3);
    os << "      \"speedup\": " << (r.sparseCps / r.denseCps) << "\n";
    os.precision(1);
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal extraction from our own JSON schema: the number following
/// `"<key>": ` after the occurrence of `"name": "<point>"`. Returns -1 when
/// absent (treated as "no reference for this point").
double extractPointValue(const std::string& json, const std::string& point,
                         const std::string& key) {
  const std::string anchor = "\"name\": \"" + point + "\"";
  const std::size_t at = json.find(anchor);
  if (at == std::string::npos) return -1.0;
  const std::string field = "\"" + key + "\": ";
  const std::size_t fieldAt = json.find(field, at);
  if (fieldAt == std::string::npos) return -1.0;
  // Stay within this point's object: a key found past the next point's
  // "name" would silently read a different point's value.
  const std::size_t nextPoint = json.find("\"name\":", at + anchor.size());
  if (nextPoint != std::string::npos && fieldAt > nextPoint) return -1.0;
  return std::strtod(json.c_str() + fieldAt + field.size(), nullptr);
}

/// Measure one point in a child process re-running this binary with
/// --point=<name>. Measuring every point in a pristine process makes the
/// numbers independent of point order: a prior point's heap and
/// predictor history inside one process was observed to shift a later
/// point's sparse-engine figure by ~20%.
bool measureInSubprocess(const std::string& exe, PointResult& r) {
  const std::string part = "kernel_microbench." + r.name + ".part.json";
  const std::string cmd =
      "\"" + exe + "\" --point=" + r.name + " --emit-json=" + part;
  if (std::system(cmd.c_str()) != 0) return false;
  std::ifstream in(part);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(part.c_str());
  r.denseCps = extractPointValue(json, r.name, "dense_cps");
  r.sparseCps = extractPointValue(json, r.name, "sparse_cps");
  std::vector<double> mt;
  std::vector<double> frac;
  for (const int t : kMtThreadAxis) {
    const double v =
        extractPointValue(json, r.name, "mt" + std::to_string(t) + "_cps");
    if (v <= 0.0) break;
    mt.push_back(v);
    frac.push_back(extractPointValue(
        json, r.name, "mt" + std::to_string(t) + "_parallel_fraction"));
  }
  if (mt.size() == kMtAxisLen) {
    r.mtCps = std::move(mt);
    r.mtParFrac = std::move(frac);
  }
  return r.denseCps > 0.0 && r.sparseCps > 0.0;
}

int runHarness(const std::string& exe, const std::string& emitPath,
               const std::string& checkPath, const std::string& only) {
  std::vector<PointResult> results;
  for (const OperatingPoint& point : operatingPoints()) {
    if (!only.empty() && only != point.name) continue;
    PointResult r;
    r.name = point.name;
    r.config = describeConfig(point.cfg);
    if (only.empty() && !exe.empty()) {
      if (!measureInSubprocess(exe, r)) {
        std::fprintf(stderr, "subprocess measurement of %s failed\n",
                     r.name.c_str());
        return 2;
      }
    } else {
      const MeasuredPair pair = measureCyclesPerSecond(point);
      r.denseCps = pair.denseCps;
      r.sparseCps = pair.sparseCps;
      std::printf("%-16s dense %12.0f c/s   sparse %12.0f c/s   speedup %.2fx\n",
                  point.name, r.denseCps, r.sparseCps, r.sparseCps / r.denseCps);
      if (point.threadScaling) {
        MtScaling scaling = measureMtScaling(point);
        r.mtCps = std::move(scaling.cps);
        r.mtParFrac = std::move(scaling.parFrac);
        std::printf("%-16s sparse-mt", point.name);
        for (std::size_t t = 0; t < kMtAxisLen; ++t) {
          std::printf("  T=%d %10.0f c/s (par %.2f)", kMtThreadAxis[t],
                      r.mtCps[t], r.mtParFrac[t]);
        }
        std::printf("   self-speedup %.2fx (on %u cores)\n", bestSelfSpeedup(r),
                    std::max(1u, std::thread::hardware_concurrency()));
      }
    }
    results.push_back(r);
  }
  if (results.empty()) {
    std::fprintf(stderr, "kernel_microbench: unknown operating point '--point=%s'\n",
                 only.c_str());
    return 2;
  }

  if (!emitPath.empty()) {
    std::ofstream out(emitPath);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", emitPath.c_str());
      return 2;
    }
    out << resultsToJson(results);
    std::printf("wrote %s\n", emitPath.c_str());
  }

  if (!checkPath.empty()) {
    std::ifstream in(checkPath);
    if (!in) {
      std::fprintf(stderr, "cannot read reference %s\n", checkPath.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string ref = buf.str();
    int failures = 0;
    int matched = 0;
    for (const PointResult& r : results) {
      const double refCps = extractPointValue(ref, r.name, "sparse_cps");
      if (refCps <= 0.0) {
        std::fprintf(stderr, "reference has no sparse_cps for %s — skipping\n",
                     r.name.c_str());
        continue;
      }
      ++matched;
      const double floor = (1.0 - kTolerance) * refCps;
      if (r.sparseCps < floor) {
        std::fprintf(stderr,
                     "PERF REGRESSION at %s: %.0f cycles/sec < %.0f "
                     "(reference %.0f, tolerance %.0f%%)\n",
                     r.name.c_str(), r.sparseCps, floor, refCps, kTolerance * 100);
        ++failures;
      } else {
        std::printf("%s ok: %.0f cycles/sec vs reference %.0f (floor %.0f)\n",
                    r.name.c_str(), r.sparseCps, refCps, floor);
      }
      // Sparse-vs-dense ratio gate: unlike absolute cycles/sec, the ratio is
      // insensitive to runner speed, so it can be gated much tighter. The
      // reference carries an explicit (already derated) min_speedup per
      // point where the batched link pass must hold its win.
      const double minSpeedup = extractPointValue(ref, r.name, "min_speedup");
      if (minSpeedup > 0.0) {
        const double speedup = r.sparseCps / r.denseCps;
        if (speedup < minSpeedup) {
          std::fprintf(stderr,
                       "PERF REGRESSION at %s: sparse/dense speedup %.2fx < "
                       "required %.2fx\n",
                       r.name.c_str(), speedup, minSpeedup);
          ++failures;
        } else {
          std::printf("%s speedup ok: %.2fx >= %.2fx\n", r.name.c_str(), speedup,
                      minSpeedup);
        }
      }
      // Sparse-mt self-speedup gate: like min_speedup this is a ratio, so
      // it is insensitive to runner *speed* — but not to runner *width*, so
      // the reference value (the requirement on a full 8-core machine) is
      // scaled linearly down to the cores this runner can actually host and
      // then halved to absorb shared-vCPU jitter. A single-core machine
      // requires exactly 1.0 (the gate disarms rather than flakes); an
      // 8-core runner with min_self_speedup 3.5 requires 2.25x.
      const double minSelf = extractPointValue(ref, r.name, "min_self_speedup");
      if (minSelf > 0.0) {
        if (r.mtCps.size() != kMtAxisLen) {
          std::fprintf(stderr,
                       "PERF REGRESSION at %s: reference demands sparse-mt "
                       "scaling but this run has no mtN_cps sweep\n",
                       r.name.c_str());
          ++failures;
        } else {
          const unsigned usable = usableCores();
          const double required =
              1.0 + (minSelf - 1.0) * static_cast<double>(usable - 1) / 7.0 * 0.5;
          const double best = bestSelfSpeedup(r);
          if (best < required) {
            std::fprintf(stderr,
                         "PERF REGRESSION at %s: sparse-mt self-speedup %.2fx < "
                         "required %.2fx (reference %.2fx at 8 cores, %u usable)\n",
                         r.name.c_str(), best, required, minSelf, usable);
            ++failures;
          } else {
            std::printf("%s self-speedup ok: %.2fx >= %.2fx (%u usable cores)\n",
                        r.name.c_str(), best, required, usable);
          }
        }
      }
    }
    if (matched == 0) {
      // Every point unmatched means the reference is stale or malformed —
      // a vacuous pass here would disarm the CI gate permanently.
      std::fprintf(stderr, "no operating point matched the reference %s\n",
                   checkPath.c_str());
      return 2;
    }
    if (failures > 0) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emitPath;
  std::string checkPath;
  std::string only;  // restrict the harness to one operating point
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    std::string* value = flag == "--emit-json" ? &emitPath
                         : flag == "--check"   ? &checkPath
                         : flag == "--point"   ? &only
                                               : nullptr;
    if (value == nullptr || eq == std::string::npos || eq + 1 == arg.size()) {
      std::fprintf(stderr,
                   "kernel_microbench: bad argument '%s'\n"
                   "usage: kernel_microbench [--emit-json=FILE] [--check=REF] "
                   "[--point=NAME]\n",
                   arg.c_str());
      return 2;
    }
    *value = arg.substr(eq + 1);
  }
  return runHarness(argv[0] != nullptr ? argv[0] : "", emitPath, checkPath, only);
}
