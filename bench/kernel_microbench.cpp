// Kernel microbenchmarks: per-cycle engine cost, topology arithmetic, RNG
// throughput, CDG construction. Two modes:
//
//   (default)       google-benchmark microbenchmarks (adaptive iteration
//                   counts), used for interactive profiling. The engine
//                   benches time the production (sparse) engine only.
//
//   --emit-json=F   the repeatable before/after harness: times the dense
//                   reference engine (DenseReference, the test oracle)
//                   against the event-sparse engine on
//                   four pinned operating points (low load, saturation,
//                   faulty adaptive) and writes machine-readable JSON
//                   (schema swft-bench-engine-v1, see README.md). The two
//                   saturation points additionally run a sparse-mt
//                   thread-scaling sweep (sim_threads 1/2/4/8) recording
//                   mtN_cps, the best self-speedup over thread counts the
//                   machine can actually host, and hardware_concurrency.
//   --check=REF     additionally compares the sparse-engine cycles/sec of
//                   this run against a checked-in reference JSON and exits
//                   non-zero if any point regressed by more than
//                   --tolerance (default 0.30). Used by the perf-smoke CI
//                   job to catch order-of-magnitude regressions without
//                   flaking on runner noise. A per-point min_self_speedup
//                   in the reference gates the sparse-mt scaling; the
//                   requirement is derated by the runner's core count so
//                   the gate is runner-speed- and runner-width-insensitive
//                   (trivially satisfied on a single-core machine, armed on
//                   multi-core CI).
#ifdef SWFT_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/result_cache.hpp"
#include "src/sim/config_parse.hpp"
#include "src/sim/link_qual.hpp"
#include "src/sim/engine_dense.hpp"
#include "src/util/simd.hpp"
#include "src/verify/cdg.hpp"

using namespace swft;

#ifdef SWFT_HAVE_GBENCH
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngGeometric(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.geometric(0.01));
}
BENCHMARK(BM_RngGeometric);

void BM_TopoCoordsRoundTrip(benchmark::State& state) {
  const TorusTopology topo(8, static_cast<int>(state.range(0)));
  NodeId id = 0;
  for (auto _ : state) {
    const Coordinates c = topo.coordsOf(id);
    benchmark::DoNotOptimize(topo.idOf(c));
    id = (id + 97) % topo.nodeCount();
  }
}
BENCHMARK(BM_TopoCoordsRoundTrip)->Arg(2)->Arg(3)->Arg(4);

void BM_TopoNeighbor(benchmark::State& state) {
  const TorusTopology topo(8, 3);
  NodeId id = 0;
  int port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.neighbor(id, port));
    port = (port + 1) % topo.networkPorts();
    id = (id + 31) % topo.nodeCount();
  }
}
BENCHMARK(BM_TopoNeighbor);

void BM_EngineCyclesPerSecond(benchmark::State& state) {
  // Steady-state stepping cost of a loaded 8-ary n-cube.
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = static_cast<int>(state.range(0));
  cfg.vcs = 4;
  cfg.messageLength = 32;
  cfg.injectionRate = 0.004;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  Network net(cfg);
  net.step(2000);  // warm the network to steady state
  for (auto _ : state) {
    net.step(100);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EngineCyclesPerSecond)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_EngineSaturated(benchmark::State& state) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 10;
  cfg.messageLength = 32;
  cfg.injectionRate = 0.05;  // deep saturation: worst-case per-cycle cost
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  Network net(cfg);
  net.step(5000);
  for (auto _ : state) {
    net.step(100);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EngineSaturated)->Unit(benchmark::kMicrosecond);

void BM_LinkBatch(benchmark::State& state) {
  // The batched link pass in isolation-by-dominance: a knee-loaded 8-ary
  // 2-cube at the production router shape (V=4, depth 4). Warmed to steady
  // state, ~90% of per-cycle time is the router phase (per `phase_timers=1`),
  // so this kernel tracks the single-pass switch arbitration + traversal
  // commit rather than generation or injection.
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 32;
  cfg.injectionRate = 0.015;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  Network net(cfg);
  net.step(5000);
  for (auto _ : state) {
    net.step(100);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_LinkBatch)->Unit(benchmark::kMicrosecond);

void BM_Qualify(benchmark::State& state) {
  // The link-qualification pass in isolation on a synthetic saturated
  // 5-port V=10 router (the `saturation` operating-point router shape,
  // 50 units): arg 0 = the pre-bitmap per-candidate loop (route-word
  // gather + arrival compare + downstream size probe per live unit),
  // arg 1 = the arena-bitmap pass.
  constexpr int kPorts = 5, kVcs = 10, kDepth = 4;
  RouterArena a(2, kPorts, kPorts - 1, kVcs, kDepth);
  const int units = a.unitsPerRouter();
  // Node 0 is the router under test; spread its routed units across all
  // ports (ejection = port 4 targets the credit sink), downstream rows on
  // node 1, with every third downstream full so the credit axis is live.
  for (int u = 0; u < units; ++u) {
    a.push(0, u, Flit{static_cast<MsgId>(u), FlitKind::Body}, 0);
    const int port = u % kPorts;
    const int vc = u / kPorts % kVcs;
    const int du = port == kPorts - 1 ? a.creditSinkBase() + vc
                                      : a.unitIndex(1, port, vc);
    a.allocateRoute(0, u, port, vc, du);
    if (port != kPorts - 1 && u % 3 == 0) {
      for (int d = 0; d < kDepth; ++d) {
        a.push(1, du, Flit{static_cast<MsgId>(u), FlitKind::Body}, 0);
      }
    }
  }
  a.matureFreshness();  // mature: every front arrived before "cycle 1"
  const std::uint64_t cycle = 1;
  std::uint64_t okp[64];
  if (state.range(0) == 0) {
    const std::uint32_t* rw = a.routeRow(0);
    const auto fullDepth = a.depth();
    const int sink = a.creditSinkBase();
    for (auto _ : state) {
      for (int p = 0; p < kPorts; ++p) okp[p] = 0;
      std::uint64_t pm = 0;
      std::uint64_t m = a.occWords(0)[0] & a.routedWords(0)[0];
      while (m != 0) {
        const int u = std::countr_zero(m);
        m &= m - 1;
        const std::uint32_t r = rw[u];
        const int port = RouterArena::wordOutPort(r);
        const int down = port == kPorts - 1
                             ? sink
                             : a.unitIndex(1, port, 0);
        const auto fresh = static_cast<std::uint64_t>(a.frontArrival(u) < cycle);
        const auto cred = static_cast<std::uint64_t>(
            a.size(down + RouterArena::wordOutVc(r)) != fullDepth);
        const std::uint64_t q = fresh & cred;
        okp[port] |= q << u;
        pm |= q << port;
      }
      benchmark::DoNotOptimize(pm);
      benchmark::DoNotOptimize(okp[0]);
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(qualifyLinkCandidates(a, 0, okp, kPorts));
      benchmark::DoNotOptimize(okp[0]);
    }
  }
  state.SetItemsProcessed(state.iterations() * units);
}
BENCHMARK(BM_Qualify)->Arg(0)->Arg(1);

void BM_CdgBuild(benchmark::State& state) {
  const TorusTopology topo(static_cast<int>(state.range(0)), 2);
  const FaultSet faults(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildEcubeCdg(topo, faults, true).hasCycle());
  }
}
BENCHMARK(BM_CdgBuild)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SoftwareLayerTables(benchmark::State& state) {
  const TorusTopology topo(8, 3);
  FaultSet faults(topo);
  Rng rng(1);
  applyRandomNodeFaults(faults, 12, rng);
  for (auto _ : state) {
    const SoftwareLayer layer(topo, faults, 96);
    benchmark::DoNotOptimize(layer.tables(0).healthyLinkMask);
  }
}
BENCHMARK(BM_SoftwareLayerTables)->Unit(benchmark::kMicrosecond);

void BM_ResultCacheHit(benchmark::State& state) {
  // Full warm-path cost per sweep point: canonical key derivation + entry
  // read + key verification + exact-double deserialization.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "swft_bm_result_cache").string();
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  SimConfig cfg;
  cache.store(cfg, SimResult{});
  for (auto _ : state) benchmark::DoNotOptimize(cache.lookup(cfg));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ResultCacheHit)->Unit(benchmark::kMicrosecond);

}  // namespace
#endif  // SWFT_HAVE_GBENCH

namespace {

// --- before/after harness ---------------------------------------------------

struct OperatingPoint {
  const char* name;
  SimConfig cfg;
  std::uint64_t warmCycles;
  std::uint64_t chunkCycles;  // cycles per timed repetition
  bool threadScaling = false; // also sweep sparse-mt sim_threads 1/2/4/8
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
/// shards: 1 - serial / work, where serial is the baton thread's P2 time
/// (gen + inj + walk) and work is every thread's phase time excluding
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
  // The result-cache point (name "result_cache") carries per-operation
  // nanoseconds instead of engine cycles/sec.
  double cacheKeyNs = 0.0;    // canonical key derivation + FNV hash
  double cacheStoreNs = 0.0;  // serialize + temp write + atomic rename
  double cacheHitNs = 0.0;    // lookup: read + key verify + deserialize
};

/// Per-point cost of the content-addressed result cache, measured on a
/// store in the temp filesystem. This is the bookkeeping a cold sweep pays
/// per grid point (one key + one miss-lookup + one store) and a warm sweep
/// pays per hit (one key + one hit-lookup) — tracked here so cache overhead
/// regressions surface in perf-smoke artifacts like any other hot path.
/// Against even the cheapest real point (~10ms of simulation) the measured
/// few-microsecond totals are << the 2% cold-run overhead budget.
PointResult measureCachePoint(int reps = 2000) {
  PointResult r;
  r.name = "result_cache";

  SimConfig cfg;  // the default 8-ary 2-cube latency-curve point
  r.config = "canonical key + store round trip, " + describeConfig(cfg);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "swft_cache_bench").string() + "." +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  const SimResult result{};

  const auto perOpNs = [reps](auto&& op) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) op(static_cast<std::uint64_t>(i));
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
  };
  // Distinct seeds per iteration: every op touches a fresh content address,
  // as in a real sweep, instead of hammering one hot inode.
  r.cacheKeyNs = perOpNs([&](std::uint64_t i) {
    cfg.seed = i;
    volatile std::uint64_t h = canonicalConfigHash(cfg);
    (void)h;
  });
  r.cacheStoreNs = perOpNs([&](std::uint64_t i) {
    cfg.seed = i;
    cache.store(cfg, result);
  });
  r.cacheHitNs = perOpNs([&](std::uint64_t i) {
    cfg.seed = i;
    (void)cache.lookup(cfg);
  });
  std::filesystem::remove_all(dir);
  return r;
}

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
        "(mtN_parallel_fraction = 1 - serial baton time / total phase work), "
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
    if (r.cacheKeyNs > 0.0) {
      // The result-cache point: per-operation nanoseconds, no engine pair.
      os << "      \"cache_key_ns\": " << r.cacheKeyNs << ",\n";
      os << "      \"cache_store_ns\": " << r.cacheStoreNs << ",\n";
      os << "      \"cache_hit_ns\": " << r.cacheHitNs << "\n";
      os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
      continue;
    }
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
               const std::string& checkPath, double tolerance,
               const std::string& only) {
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

  // The result-cache bookkeeping point rides along with every harness run.
  // It is cheap and filesystem-bound, so it is measured in-process even in
  // subprocess mode; `--point=result_cache` restricts the run to it.
  if (only.empty() || only == "result_cache") {
    PointResult r = measureCachePoint();
    std::printf("%-16s key %7.0f ns   store %7.0f ns   hit %7.0f ns\n",
                r.name.c_str(), r.cacheKeyNs, r.cacheStoreNs, r.cacheHitNs);
    results.push_back(std::move(r));
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
      if (r.cacheKeyNs > 0.0) continue;  // bookkeeping point: no cps gates
      const double refCps = extractPointValue(ref, r.name, "sparse_cps");
      if (refCps <= 0.0) {
        std::fprintf(stderr, "reference has no sparse_cps for %s — skipping\n",
                     r.name.c_str());
        continue;
      }
      ++matched;
      const double floor = (1.0 - tolerance) * refCps;
      if (r.sparseCps < floor) {
        std::fprintf(stderr,
                     "PERF REGRESSION at %s: %.0f cycles/sec < %.0f "
                     "(reference %.0f, tolerance %.0f%%)\n",
                     r.name.c_str(), r.sparseCps, floor, refCps, tolerance * 100);
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
  std::string only;
  double tolerance = 0.30;
  bool harness = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--emit-json=", 12) == 0) {
      emitPath = arg + 12;
      harness = true;
    } else if (std::strncmp(arg, "--check=", 8) == 0) {
      checkPath = arg + 8;
      harness = true;
    } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      tolerance = std::strtod(arg + 12, nullptr);
    } else if (std::strncmp(arg, "--point=", 8) == 0) {
      only = arg + 8;  // restrict the harness to one operating point
      harness = true;
    }
  }
  if (harness) {
    return runHarness(argv[0] != nullptr ? argv[0] : "", emitPath, checkPath,
                      tolerance, only);
  }

#ifdef SWFT_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "kernel_microbench was built without google-benchmark; only the\n"
               "harness mode is available (--emit-json/--check/--point).\n");
  return 2;
#endif
}
