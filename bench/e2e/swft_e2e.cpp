// swft_e2e — end-to-end and per-layer benchmark of the simulator.
//
//   swft_e2e --workload NAME [--seed S] [--seconds T] [--work-dir DIR]
//            [--trace FILE] [--smoke]
//
// Runs one workload (fig3_cold, fig3_warm, knee_16ary3, faulty_8ary3; see
// README.md for why each exists) in this process. Only the set-up samples
// and fig3_warm's store fill run in child processes (runSelf).
//
//   untraced pass  times the user-facing call, runExperiment — the path
//                  `swft_bench --run` takes — repeating it for T seconds
//                  (T/2 with --trace) and checking every result;
//   traced pass    (--trace only) mirrors runExperiment from outside through
//                  the same public calls (spec.build, ResultCache lookup and
//                  store, Network + run with phase timers, formatTable, toCsv)
//                  with a span around each call into a layer, then probes the
//                  topology, fault, routing-table and engine layers directly.
//                  Spans are written to FILE as Chrome trace-event JSON.
//
// The last stdout line is one JSON object: attempted/failed operations, the
// result digest, the end-to-end metrics and (with --trace) the per-layer
// metrics. Exit status 0 iff every check passed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/span_trace.hpp"
#include "bench/experiments/experiment_common.hpp"
#include "src/fault/connectivity.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/experiment_registry.hpp"
#include "src/harness/result_cache.hpp"
#include "src/harness/table.hpp"
#include "src/sim/config_parse.hpp"
#include "src/sim/network.hpp"
#include "src/util/fnv.hpp"
#include "src/util/simd.hpp"

namespace swft::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics -------------------------------------------------------------

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads --------------------------------------------------------------

// Fixed run lengths of the two single-simulation workloads, sized so that a
// default-length benchmark run repeats each simulation several times.
constexpr std::uint64_t kKneeCycles = 4'000;
constexpr std::uint64_t kFaultyCycles = 100'000;
// The engine probe: warm-up, then a window timed in 100 equal step() chunks
// on the sparse engine and once per sparse-mt thread count.
constexpr std::uint64_t kProbeWarmCycles = 1'000;
constexpr std::uint64_t kProbeWindowCycles = 2'000;
constexpr int kProbeChunks = 100;
constexpr int kSetupReps = 11;  // fresh processes timing one set-up each
constexpr int kMaxTracedOps = 200;

struct Workload {
  std::string name;
  ExperimentSpec spec;  // the grid, every point's seed offset by --seed
  int poolWidth = 1;
  bool warm = false;    // replays against a store filled during set-up
  SimConfig probe;      // configuration the traced pass probes layer by layer
};

int poolWidth() {
  return static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
}

/// Smoke scale: every fig3 point stops after a few hundred messages.
void shrinkForSmoke(SimConfig& cfg) {
  cfg.warmupMessages = 20;
  cfg.measuredMessages = 60;
  cfg.maxCycles = 1'500;
}

/// The paper-scale knee: a 4096-node 16-ary 3-cube under e-cube routing at
/// lambda = 0.006, fault-free, for a fixed number of cycles.
SimConfig kneeConfig(bool smoke) {
  SimConfig c;
  c.radix = 16;
  c.dims = 3;
  c.vcs = 4;
  c.messageLength = 32;
  c.injectionRate = 0.006;
  c.routing = RoutingMode::Deterministic;
  bench::makeFixedDuration(c, smoke ? 150 : kKneeCycles);
  return c;
}

/// Fault-tolerant routing under load: Duato adaptive on a 512-node 8-ary
/// 3-cube with 40 random node faults and a 20-cycle software reinjection
/// delay, for a fixed number of cycles.
SimConfig faultyConfig(bool smoke) {
  SimConfig c;
  c.radix = 8;
  c.dims = 3;
  c.vcs = 6;
  c.messageLength = 32;
  c.injectionRate = 0.005;
  c.routing = RoutingMode::Adaptive;
  c.faults.randomNodes = 40;
  c.reinjectDelay = 20;
  bench::makeFixedDuration(c, smoke ? 3'000 : kFaultyCycles);
  return c;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string workDir = ".";
  std::string traceFile;  // non-empty: add the traced pass and write its spans here
  bool smoke = false;
  // Child-process modes (see runSelf): time the set-up once against an
  // existing store, or fill a store.
  std::string setupStore;
  std::string fillStore;
};

Workload makeWorkload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.poolWidth = poolWidth();
  if (name == "fig3_cold" || name == "fig3_warm") {
    const ExperimentSpec* fig3 = ExperimentRegistry::instance().find("fig3");
    if (fig3 == nullptr) throw std::runtime_error("the fig3 experiment is not registered");
    w.spec = *fig3;
    w.spec.build = [build = fig3->build, seed, smoke] {
      std::vector<SweepPoint> points = build();
      for (SweepPoint& p : points) {
        p.cfg.seed += seed;
        if (smoke) shrinkForSmoke(p.cfg);
      }
      return points;
    };
    w.warm = name == "fig3_warm";
    // The grid's heaviest point: adaptive, V=10, M=64, nf=5, highest rate.
    w.probe = w.spec.build().back().cfg;
  } else if (name == "knee_16ary3" || name == "faulty_8ary3") {
    SimConfig cfg = name == "knee_16ary3" ? kneeConfig(smoke) : faultyConfig(smoke);
    cfg.seed += seed;
    w.spec.name = name;
    w.spec.description = "one simulation, " + describeConfig(cfg);
    w.spec.build = [name, cfg] { return std::vector<SweepPoint>{SweepPoint{name, cfg}}; };
    w.spec.columns = {"latency", "throughput", "queued", "cycles"};
    w.probe = cfg;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  bench::makeFixedDuration(w.probe, ~std::uint64_t{0});
  return w;
}

// --- one operation: a full experiment run --------------------------------------

struct OpOutcome {
  double wall = 0.0;
  std::vector<SweepRow> rows;  // grid order
  CacheStats cache;
  std::string artifact;        // the CSV bytes the run wrote
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t totalCycles(const std::vector<SweepRow>& rows) {
  std::uint64_t c = 0;
  for (const SweepRow& r : rows) c += r.result.cycles;
  return c;
}

/// fnv1a64 over serializeResult of every point, concatenated in grid order.
std::uint64_t digestOf(const std::vector<SweepRow>& rows) {
  std::uint64_t h = kFnv1a64OffsetBasis;
  for (const SweepRow& r : rows) h = fnv1a64(serializeResult(r.result), h);
  return h;
}

/// What a store-filling child process reports back.
struct FillReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t artifactDigest = 0;
};

/// The untraced operation: runExperiment exactly as `swft_bench --run` calls it.
OpOutcome untracedOp(const Workload& w, const std::string& store, const std::string& outDir) {
  RunOptions opt;
  opt.threads = w.poolWidth;
  opt.useCache = true;
  opt.cacheDir = store;
  opt.outDir = outDir;
  opt.progress = false;
  std::ostream discard(nullptr);
  const auto t0 = Clock::now();
  ExperimentRun run = runExperiment(w.spec, opt, discard);
  OpOutcome o;
  o.wall = since(t0);
  o.rows = std::move(run.rows);
  o.cache = run.cache;
  o.artifact = readFile(run.artifactPath);
  return o;
}

/// What the traced pass learns about one simulated point.
struct PointTrace {
  double seconds = 0.0;  // the whole point: Network, run, store
  double setup = 0.0;    // Network construction
  double run = 0.0;      // Network::run
  PhaseBreakdown phases;
  SoftwareLayerStats sw;
  std::uint64_t inFlight = 0;  // messages still live when the run stopped
  SimResult result;
  int messageLength = 0;
};

struct TracedOp {
  bool measured = true;  // false for fig3_warm's set-up fill
  double wall = 0.0;
  double gridBuild = 0.0;
  double report = 0.0;
  std::vector<double> lookups;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<double> stores;
  std::uint64_t storeBytes = 0;
  int width = 0;
  double poolSeconds = 0.0;
  double poolTail = 0.0;  // last completion - first time a worker found no work
  std::vector<PointTrace> points;
};

/// The traced operation: runExperiment's steps re-done through the same
/// public calls, with one span per call into a layer.
OpOutcome tracedOp(const Workload& w, const std::string& store, const std::string& outDir,
                   TracedOp& t) {
  SpanRecorder& rec = SpanRecorder::instance();
  OpOutcome o;
  Span op(t.measured ? "op" : "setup.fill");
  std::vector<SweepPoint> points;
  {
    Span s("harness.grid_build");
    points = w.spec.build();
    t.gridBuild = s.elapsed();
  }
  std::unique_ptr<ResultCache> cache;
  {
    Span s("harness.cache.open");
    cache = std::make_unique<ResultCache>(store);
  }
  std::vector<SweepRow> rows(points.size());
  std::vector<std::size_t> missIdx;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Span s("harness.cache.lookup", points[i].label);
    if (std::optional<SimResult> hit = cache->lookup(points[i].cfg)) {
      rows[i] = SweepRow{points[i], *hit};
    } else {
      missIdx.push_back(i);
    }
    t.lookups.push_back(s.elapsed());
  }
  t.hits = cache->stats().hits;
  t.misses = cache->stats().misses;

  if (!missIdx.empty()) {
    Span pool("harness.pool");
    const std::uint64_t poolId = pool.id();
    const std::size_t width =
        std::min<std::size_t>(static_cast<std::size_t>(w.poolWidth), missIdx.size());
    t.width = static_cast<int>(width);
    t.points.resize(missIdx.size());
    std::atomic<std::size_t> next{0};
    std::mutex doneMu;  // guards the store, the fields below and t.stores
    double firstEmpty = std::numeric_limits<double>::infinity();
    double lastDone = 0.0;
    std::exception_ptr error;
    auto worker = [&] {
      for (;;) {
        const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= missIdx.size()) {
          const std::lock_guard<std::mutex> lock(doneMu);
          firstEmpty = std::min(firstEmpty, rec.now());
          return;
        }
        const SweepPoint& p = points[missIdx[j]];
        PointTrace& pt = t.points[j];
        Span point("harness.point", p.label, poolId);
        try {
          SimConfig cfg = p.cfg;
          cfg.phaseTimers = true;
          std::unique_ptr<Network> net;
          {
            Span s("sim.setup", p.label);
            net = std::make_unique<Network>(cfg);
            pt.setup = s.elapsed();
          }
          {
            Span s("sim.run", p.label);
            pt.result = net->run();
            pt.run = s.elapsed();
          }
          for (const PhaseBreakdown& shard : net->phaseShards()) pt.phases += shard;
          pt.sw = net->softwareLayer().stats();
          pt.inFlight = net->inFlight();
          pt.messageLength = cfg.messageLength;
          const std::lock_guard<std::mutex> lock(doneMu);
          Span s("harness.cache.store", p.label);
          cache->store(p.cfg, pt.result);
          t.stores.push_back(s.elapsed());
          lastDone = std::max(lastDone, rec.now());
        } catch (...) {
          const std::lock_guard<std::mutex> lock(doneMu);
          if (!error) error = std::current_exception();
        }
        rows[missIdx[j]] = SweepRow{p, pt.result};
        pt.seconds = point.elapsed();
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(width);
    for (std::size_t i = 1; i < width; ++i) threads.emplace_back(worker);
    worker();
    for (std::thread& th : threads) th.join();
    if (error) std::rethrow_exception(error);
    t.poolSeconds = pool.elapsed();
    t.poolTail = std::max(0.0, lastDone - firstEmpty);
  }

  {
    Span s("harness.report");
    std::ostream discard(nullptr);
    discard << formatTable(rows, w.spec.columns);
    if (w.spec.epilogue) discard << w.spec.epilogue(rows);
    const std::string path = outDir + "/" + artifactName(w.spec, RunOptions{});
    fs::create_directories(outDir);
    toCsv(rows).writeFile(path);
    t.report = s.elapsed();
    o.artifact = readFile(path);
  }
  o.cache = cache->stats();
  o.rows = std::move(rows);
  o.wall = op.elapsed();
  t.wall = o.wall;
  return o;
}

// --- correctness --------------------------------------------------------------

/// Checks every operation against the first one of this process: same
/// per-point results (so the traced pass, every repetition and every warm
/// replay reproduce the first fill bit for bit), no deadlock, exact cache
/// accounting and an identical artifact (compared by FNV-1a-64 digest).
/// fig3_warm's first replay is held to the child-process fill that filled its
/// store. Counts points attempted/failed.
class Checker {
 public:
  void check(const OpOutcome& o, std::uint64_t expectHits, const char* what) {
    const std::uint64_t n = o.rows.size();
    attempted_ += n;
    const bool first = reference_.empty();
    std::uint64_t bad = 0;
    if (first) {
      for (const SweepRow& r : o.rows) reference_.push_back(serializeResult(r.result));
      digest_ = digestOf(o.rows);
      if (!fillDigest_) artifact_ = fnv1a64(o.artifact);
      if (fillDigest_ && *fillDigest_ != digest_) {
        note(std::string(what) + ": results differ from the set-up fill's");
        bad = n;
      }
    }
    if (n != reference_.size()) {
      note(std::string(what) + ": grid size changed");
      bad = n;
    }
    for (std::size_t i = 0; i < n && bad < n; ++i) {
      const SimResult& r = o.rows[i].result;
      if (r.deadlockSuspected) {
        ++bad;
        note(std::string(what) + ": deadlock watchdog fired at " + o.rows[i].point.label);
      } else if (!first && serializeResult(r) != reference_[i]) {
        ++bad;
        note(std::string(what) + ": result differs from the first fill at " +
             o.rows[i].point.label);
      }
    }
    const std::uint64_t expectMisses = n - std::min(n, expectHits);
    if (o.cache.hits != expectHits || o.cache.misses != expectMisses ||
        o.cache.inserts != expectMisses) {
      note(std::string(what) + ": cache accounting " + std::to_string(o.cache.hits) + " hits/" +
           std::to_string(o.cache.misses) + " misses/" + std::to_string(o.cache.inserts) +
           " inserts, expected " + std::to_string(expectHits) + "/" +
           std::to_string(expectMisses) + "/" + std::to_string(expectMisses));
      bad = n;
    }
    if (fnv1a64(o.artifact) != artifact_) {
      note(std::string(what) + ": artifact differs from the first fill's");
      bad = n;
    }
    failed_ += bad;
  }

  /// Adopts a child-process fill: its counts, and its digests as the
  /// reference the first operation must reproduce.
  void expectFill(const FillReport& fill) {
    attempted_ += fill.attempted;
    failed_ += fill.failed;
    if (fill.failed != 0) note("the set-up fill failed its checks");
    artifact_ = fill.artifactDigest;
    fillDigest_ = fill.digest;
  }

  void fail(const std::string& why) {
    ++failed_;
    note(why);
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t artifactDigest() const noexcept { return artifact_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  void note(std::string why) {
    if (errors_.size() < 20) errors_.push_back(std::move(why));
  }

  std::vector<std::string> reference_;
  std::uint64_t artifact_ = 0;
  std::optional<std::uint64_t> fillDigest_;
  std::uint64_t digest_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// --- child processes ------------------------------------------------------------

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// Runs this executable again on the same workload with `extra` arguments and
/// returns its stdout; throws when it cannot start or exits non-zero. A fresh
/// process starts from what a user's run starts from: a heap that no earlier
/// operation has grown.
std::string runSelf(const Options& opt, const std::vector<std::string>& extra) {
  std::vector<std::string> args = {"--workload", opt.workload, "--seed",
                                   std::to_string(opt.seed), "--work-dir", opt.workDir};
  if (opt.smoke) args.emplace_back("--smoke");
  args.insert(args.end(), extra.begin(), extra.end());
  std::string cmd = shellQuote(fs::read_symlink("/proc/self/exe").string());
  for (const std::string& a : args) {
    cmd += ' ';
    cmd += shellQuote(a);
  }
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start " + cmd);
  std::string out;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) out.append(buf, n);
  if (::pclose(pipe) != 0) throw std::runtime_error("child process failed: " + cmd);
  return out;
}

/// Everything the workload does before its first simulated cycle or cache
/// lookup: build the grid, open the store, and construct a Network for every
/// point that will simulate (none on fig3_warm).
double setupOnce(const Workload& w, const std::string& store) {
  const auto t0 = Clock::now();
  const std::vector<SweepPoint> points = w.spec.build();
  const ResultCache cache(store);
  if (!w.warm) {
    for (const SweepPoint& p : points) const Network net(p.cfg);
  }
  return since(t0);
}

/// Median of `reps` set-ups, each timed once in a fresh process. The store
/// directory exists beforehand, as a user's store does, so no sample pays for
/// creating it.
double measureSetup(const Options& opt, const std::string& store, int reps) {
  fs::create_directories(store);
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    samples.push_back(std::stod(runSelf(opt, {"--setup-sample", store})));
  }
  return median(samples);
}

/// Fills fig3_warm's store in a child process, so that the measuring process
/// only ever replays: its memory and caches describe a warm run, not a fill.
FillReport fillInChild(const Options& opt, const std::string& store) {
  const std::string out = runSelf(opt, {"--fill", store});
  FillReport f;
  unsigned long long v[4] = {};
  if (std::sscanf(out.c_str(), "%llu %llu %llx %llx", &v[0], &v[1], &v[2], &v[3]) != 4) {
    throw std::runtime_error("unreadable fill report: " + out);
  }
  f.attempted = v[0];
  f.failed = v[1];
  f.digest = v[2];
  f.artifactDigest = v[3];
  return f;
}

// --- passes -------------------------------------------------------------------

struct Pass {
  std::vector<double> walls;      // one per measured operation
  std::vector<double> cps;        // simulated cycles per host second, per op
  double peakRssMb = 0.0;         // untraced pass: right after the first operation
  std::vector<TracedOp> traced;   // traced pass only, set-up fill included
};

/// This process's peak resident set (VmHWM). Not getrusage's ru_maxrss: that
/// survives execve, so it would report the launching process's peak whenever
/// that was larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Repeats the workload's operation until `budget` seconds are used (at least
/// once). Cold workloads get a fresh, empty store per operation; fig3_warm
/// replays against one store filled first.
Pass runPass(const Workload& w, const Options& opt, double budget, bool traced,
             const std::string& dir, Checker& chk) {
  Pass pass;
  fs::create_directories(dir);
  const std::string outDir = dir + "/out";
  const std::string warmStore = dir + "/warm-store";
  const char* label = traced ? "traced" : "untraced";

  const auto doOp = [&](const std::string& store, bool measured) {
    if (!traced) return untracedOp(w, store, outDir);
    TracedOp t;
    t.measured = measured;
    OpOutcome o = tracedOp(w, store, outDir, t);
    t.storeBytes = ResultCache::scanDir(store).bytes;
    pass.traced.push_back(std::move(t));
    return o;
  };

  if (w.warm && traced) {
    chk.check(doOp(warmStore, false), 0, "traced set-up fill");
  } else if (w.warm) {
    chk.expectFill(fillInChild(opt, warmStore));
  }

  const auto start = Clock::now();
  double wallSum = 0.0;
  for (int i = 0;; ++i) {
    const std::string store = w.warm ? warmStore : dir + "/store-" + std::to_string(i);
    const OpOutcome o = doOp(store, true);
    if (i == 0 && !traced) pass.peakRssMb = peakRssMb();
    {
      Span s("check");
      chk.check(o, w.warm ? o.rows.size() : 0, label);
      if (!w.warm) fs::remove_all(store);
    }
    pass.walls.push_back(o.wall);
    pass.cps.push_back(ratio(static_cast<double>(totalCycles(o.rows)), o.wall));
    wallSum += o.wall;
    // Stop once the next operation would overrun the budget by more than
    // half its expected length. The traced pass also stops at kMaxTracedOps,
    // which bounds the span file (fig3_warm records ~430 spans per replay).
    if (since(start) + 0.5 * wallSum / static_cast<double>(i + 1) > budget) break;
    if (traced && i + 1 >= kMaxTracedOps) break;
  }
  return pass;
}

// --- layer probes (traced pass) ---------------------------------------------------

struct Probe {
  double topologyBuild = 0.0;
  double faultBuild = 0.0;
  int faultyNodes = 0;
  double tablesBuild = 0.0;
  std::vector<double> chunks;  // sparse engine, kProbeChunks equal step() chunks
  double sparseCps = 0.0;
  double mtCps[3] = {};        // sim_threads 1, 2, 4 (clamped to the core count)
  double mtParallelFraction4 = 0.0;
  double mtBarrierShare4 = 0.0;
};

// Receives a value derived from every probed object, so none can be optimized away.
std::atomic<std::uint64_t> gProbeSink{0};

/// Times each layer's construction directly (median of `reps`) and the engine
/// over a fixed window of the workload's probe configuration.
Probe runProbe(const Workload& w, int reps, bool smoke) {
  const Span probe("probe");
  const SimConfig& cfg = w.probe;
  Probe pr;
  std::uint64_t sink = 0;
  std::vector<double> samples;
  const auto timeIt = [&](const char* name, auto&& body) {
    samples.clear();
    for (int r = 0; r < reps; ++r) {
      Span s(name);
      body();
      samples.push_back(s.elapsed());
    }
    return median(samples);
  };

  pr.topologyBuild = timeIt("topology.build", [&] {
    const TorusTopology topo(cfg.radix, cfg.dims);
    sink += topo.nodeCount();
  });
  const TorusTopology topo(cfg.radix, cfg.dims);
  // Network draws its random faults from this stream (network.cpp).
  pr.faultBuild = timeIt("fault.build", [&] {
    FaultSet faults(topo);
    Rng rng = Rng(cfg.seed).split(0xFA17);
    applyRandomNodeFaults(faults, cfg.faults.randomNodes, rng);
    sink += healthyNetworkConnected(faults) ? 1 : 0;
    pr.faultyNodes = faults.faultyNodeCount();
  });
  FaultSet faults(topo);
  Rng rng = Rng(cfg.seed).split(0xFA17);
  applyRandomNodeFaults(faults, cfg.faults.randomNodes, rng);
  pr.tablesBuild = timeIt("routing.sw.tables_build", [&] {
    const SoftwareLayer layer(topo, faults, cfg.livelockThreshold);
    sink += layer.tables(0).healthyLinkMask;
  });

  const std::uint64_t warmCycles = smoke ? 50 : kProbeWarmCycles;
  const std::uint64_t window = smoke ? kProbeChunks : kProbeWindowCycles;
  {
    Network net(cfg);
    net.step(warmCycles);
    for (int c = 0; c < kProbeChunks; ++c) {
      Span s("sim.chunk");
      net.step(window / kProbeChunks);
      pr.chunks.push_back(s.elapsed());
    }
    double total = 0.0;
    for (const double c : pr.chunks) total += c;
    pr.sparseCps = ratio(static_cast<double>(window), total);
    sink += net.delivered();
  }
  const int axis[3] = {1, 2, 4};
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 0; i < 3; ++i) {
    SimConfig m = cfg;
    m.engine = EngineKind::SparseMt;
    m.simThreads = std::min(axis[i], cores);
    m.phaseTimers = true;
    Span s("sim.mt.window");
    Network net(m);
    net.step(warmCycles);
    const std::vector<PhaseBreakdown> before = net.phaseShards();
    const auto t0 = Clock::now();
    net.step(window);
    pr.mtCps[i] = ratio(static_cast<double>(window), since(t0));
    if (i == 2) {
      // Over the window only: 1 - serial baton time / all non-barrier work.
      const std::vector<PhaseBreakdown>& after = net.phaseShards();
      double serial = 0.0, work = 0.0, barrier = 0.0, total = 0.0;
      for (std::size_t sh = 0; sh < after.size(); ++sh) {
        PhaseBreakdown d = after[sh];
        for (int p = 0; p < PhaseBreakdown::kPhaseCount; ++p) d.sec[p] -= before[sh].sec[p];
        if (sh == 0) serial = d.serial();
        work += d.total() - d.sec[PhaseBreakdown::kBarrier];
        barrier += d.sec[PhaseBreakdown::kBarrier];
        total += d.total();
      }
      pr.mtParallelFraction4 = work > 0.0 ? 1.0 - serial / work : 0.0;
      pr.mtBarrierShare4 = ratio(barrier, total);
    }
    sink += net.delivered();
  }
  gProbeSink.fetch_add(sink, std::memory_order_relaxed);
  return pr;
}

// --- metrics ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

Metrics endToEnd(const Pass& p, double setupSeconds) {
  return {
      {"wall_s", median(p.walls), "s"},
      {"sim_cycles_per_s", median(p.cps), "1/s"},
      {"setup_s", setupSeconds, "s"},
      {"peak_rss_mb", p.peakRssMb, "MB"},
  };
}

/// Per-layer metrics from the traced pass. Each is taken over the traced
/// operations that exercise its layer: on fig3_warm the sim and pool rows
/// come from the set-up fill, the only operation there that simulates, while
/// the cache hit ratio counts measured operations only.
Metrics perLayer(const Pass& traced, const Probe& pr, double untracedWall) {
  std::vector<double> grid, report, lookups, stores, bytes, busy, tail, pointS, setupS;
  std::vector<double> runS, genS, injS, walkS, walkShare, coverage, nsCycle, nsFlit, walls;
  double hits = 0.0, lookupsMeasured = 0.0;
  const TracedOp* sim = nullptr;  // the first simulating op: source of the exact counts
  for (const TracedOp& t : traced.traced) {
    grid.push_back(t.gridBuild);
    report.push_back(t.report);
    lookups.insert(lookups.end(), t.lookups.begin(), t.lookups.end());
    stores.insert(stores.end(), t.stores.begin(), t.stores.end());
    if (t.measured) {
      walls.push_back(t.wall);
      hits += static_cast<double>(t.hits);
      lookupsMeasured += static_cast<double>(t.hits + t.misses);
    }
    if (t.points.empty()) continue;
    if (sim == nullptr) sim = &t;
    bytes.push_back(static_cast<double>(t.storeBytes));
    double busySum = 0.0, run = 0.0, gen = 0.0, inj = 0.0, walk = 0.0, cycles = 0.0, flits = 0.0;
    for (const PointTrace& pt : t.points) {
      busySum += pt.seconds;
      pointS.push_back(pt.seconds);
      setupS.push_back(pt.setup);
      run += pt.run;
      gen += pt.phases.sec[PhaseBreakdown::kGen];
      inj += pt.phases.sec[PhaseBreakdown::kInj];
      walk += pt.phases.sec[PhaseBreakdown::kWalk];
      cycles += static_cast<double>(pt.result.cycles);
      flits += static_cast<double>(pt.result.deliveredTotal) * pt.messageLength;
    }
    busy.push_back(ratio(busySum, t.width * t.poolSeconds));
    tail.push_back(ratio(t.poolTail, t.poolSeconds));
    runS.push_back(run);
    genS.push_back(gen);
    injS.push_back(inj);
    walkS.push_back(walk);
    walkShare.push_back(ratio(walk, run));
    coverage.push_back(ratio(gen + inj + walk, run));
    nsCycle.push_back(1e9 * ratio(run, cycles));
    nsFlit.push_back(1e9 * ratio(run, flits));
  }

  // Simulated counts of one fill; every fill repeats them bit for bit. The
  // result rows are means over the fill's points.
  SoftwareLayerStats sw;
  double cycles = 0, delivered = 0, inFlight = 0, absorbed = 0;
  double latency = 0, p99 = 0, throughput = 0, hops = 0, n = 0;
  if (sim != nullptr) {
    for (const PointTrace& pt : sim->points) {
      sw.absorptions += pt.sw.absorptions;
      sw.reversals += pt.sw.reversals;
      sw.detours += pt.sw.detours;
      sw.escalations += pt.sw.escalations;
      sw.reEvaluations += pt.sw.reEvaluations;
      const SimResult& r = pt.result;
      cycles += static_cast<double>(r.cycles);
      delivered += static_cast<double>(r.deliveredTotal);
      inFlight += static_cast<double>(pt.inFlight);
      absorbed += static_cast<double>(r.absorbedMessages);
      latency += r.meanLatency;
      p99 += r.latencyP99;
      throughput += r.throughput;
      hops += r.meanHops;
    }
    n = static_cast<double>(sim->points.size());
  }

  const auto meanOf = [](const std::vector<double>& v, std::size_t from, std::size_t to) {
    double s = 0.0;
    for (std::size_t i = from; i < to; ++i) s += v[i];
    return to > from ? s / static_cast<double>(to - from) : 0.0;
  };
  const std::size_t decile = pr.chunks.size() / 10;
  const double drift = ratio(meanOf(pr.chunks, pr.chunks.size() - decile, pr.chunks.size()),
                             meanOf(pr.chunks, 0, decile));
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"harness.grid_build_s", median(grid), "s"},
      {"harness.report_s", median(report), "s"},
      {"harness.cache.lookup_s.p50", quantile(lookups, 0.5), "s"},
      {"harness.cache.lookup_s.p90", quantile(lookups, 0.9), "s"},
      {"harness.cache.hit_ratio", ratio(hits, lookupsMeasured), "ratio"},
      {"harness.cache.store_s.p50", quantile(stores, 0.5), "s"},
      {"harness.cache.store_s.p90", quantile(stores, 0.9), "s"},
      {"harness.cache.store_bytes", median(bytes), "B"},
      {"harness.pool.busy_frac", median(busy), "ratio"},
      {"harness.pool.tail_share", median(tail), "ratio"},
      {"harness.point_s.p50", quantile(pointS, 0.5), "s"},
      {"harness.point_s.p90", quantile(pointS, 0.9), "s"},
      {"harness.point_s.max", quantile(pointS, 1.0), "s"},
      {"sim.setup_s", median(setupS), "s"},
      {"sim.run_s", median(runS), "s"},
      {"sim.gen_s", median(genS), "s"},
      {"sim.inj_s", median(injS), "s"},
      {"sim.walk_s", median(walkS), "s"},
      {"sim.walk_share", median(walkShare), "ratio"},
      {"sim.phase_coverage", median(coverage), "ratio"},
      {"sim.ns_per_cycle", median(nsCycle), "ns"},
      {"sim.ns_per_delivered_flit", median(nsFlit), "ns"},
      {"sim.chunk_s.p50", quantile(pr.chunks, 0.5), "s"},
      {"sim.chunk_s.p90", quantile(pr.chunks, 0.9), "s"},
      {"sim.chunk_drift", drift, "ratio"},
      {"sim.cycles", cycles, "cycles"},
      {"sim.delivered", delivered, "count"},
      {"sim.in_flight_end", inFlight, "count"},
      {"result.latency_mean_cycles", ratio(latency, n), "cycles"},
      {"result.latency_p99_cycles", ratio(p99, n), "cycles"},
      {"result.throughput", ratio(throughput, n), "msg/node/cyc"},
      {"result.hops_mean", ratio(hops, n), "hops"},
      {"sim.mt.sparse_cps", pr.sparseCps, "1/s"},
      {"sim.mt.cps_t1", pr.mtCps[0], "1/s"},
      {"sim.mt.cps_t2", pr.mtCps[1], "1/s"},
      {"sim.mt.cps_t4", pr.mtCps[2], "1/s"},
      {"sim.mt.parallel_fraction_t4", pr.mtParallelFraction4, "ratio"},
      {"sim.mt.barrier_share_t4", pr.mtBarrierShare4, "ratio"},
      {"sim.mt.vs_sparse_t4", ratio(pr.mtCps[2], pr.sparseCps), "ratio"},
      {"routing.sw.absorptions", count(sw.absorptions), "count"},
      {"routing.sw.absorbed_msgs", absorbed, "count"},
      {"routing.sw.reversals", count(sw.reversals), "count"},
      {"routing.sw.detours", count(sw.detours), "count"},
      {"routing.sw.escalations", count(sw.escalations), "count"},
      {"routing.sw.reevaluations", count(sw.reEvaluations), "count"},
      {"routing.sw.absorptions_per_msg", ratio(count(sw.absorptions), delivered), "ratio"},
      {"routing.sw.tables_build_s", pr.tablesBuild, "s"},
      {"fault.build_s", pr.faultBuild, "s"},
      {"fault.faulty_nodes", static_cast<double>(pr.faultyNodes), "count"},
      {"topology.build_s", pr.topologyBuild, "s"},
      {"trace.overhead", ratio(median(walls), untracedWall) - 1.0, "ratio"},
  };
}

double metricValue(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

// --- span analysis ---------------------------------------------------------------------

/// Seconds of [start, end] covered by the union of the given intervals.
double covered(std::vector<std::pair<double, double>> iv, double start, double end) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, reach = start;
  for (auto [a, b] : iv) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

/// Self time per span name (duration minus the part its children cover),
/// printed to stderr; returns the share of `root` its children cover.
double reportSelfTimes(const std::vector<SpanRecord>& spans, std::uint64_t root) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  std::vector<std::pair<std::uint64_t, std::size_t>> index;  // span id -> position
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace_back(spans[i].span, i);
  std::sort(index.begin(), index.end());
  for (const SpanRecord& s : spans) {
    const auto it = std::lower_bound(index.begin(), index.end(),
                                     std::make_pair(s.parent, std::size_t{0}));
    if (it != index.end() && it->first == s.parent) {
      kids[it->second].emplace_back(s.start, s.end);
    }
  }
  std::vector<std::pair<std::string, std::pair<double, int>>> byName;
  double rootCoverage = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double inKids = covered(kids[i], s.start, s.end);
    if (s.span == root) rootCoverage = ratio(inKids, s.duration());
    auto it = std::find_if(byName.begin(), byName.end(),
                           [&](const auto& e) { return e.first == s.name; });
    if (it == byName.end()) it = byName.insert(byName.end(), {s.name, {0.0, 0}});
    it->second.first += s.duration() - inKids;
    it->second.second += 1;
  }
  std::sort(byName.begin(), byName.end(),
            [](const auto& a, const auto& b) { return a.second.first > b.second.first; });
  std::fprintf(stderr, "%-28s %12s %8s\n", "span", "self_s", "count");
  for (const auto& [name, v] : byName) {
    std::fprintf(stderr, "%-28s %12.6f %8d\n", name.c_str(), v.first, v.second);
  }
  return rootCoverage;
}

// --- output ------------------------------------------------------------------------------

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string jsonMetrics(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", " : "") + jsonString(m[i].name) + ": {\"value\": " + jsonNumber(m[i].value) +
           ", \"unit\": " + jsonString(m[i].unit) + "}";
  }
  out += "}";
  return out;
}

std::string compilerString() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

int run(const Options& opt) {
  const Workload w = makeWorkload(opt.workload, opt.seed, opt.smoke);
  const std::string dir = opt.workDir + "/swft_e2e." + std::to_string(::getpid());
  // Stores and artifacts live under `dir` only while the benchmark runs.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } removeOnExit{dir};

  if (!opt.setupStore.empty()) {
    std::printf("%.9g\n", setupOnce(w, opt.setupStore));
    return 0;
  }
  if (!opt.fillStore.empty()) {
    Checker chk;
    chk.check(untracedOp(w, opt.fillStore, dir + "/out"), 0, "set-up fill");
    for (const std::string& e : chk.errors()) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    std::printf("%llu %llu %016llx %016llx\n", static_cast<unsigned long long>(chk.attempted()),
                static_cast<unsigned long long>(chk.failed()),
                static_cast<unsigned long long>(chk.digest()),
                static_cast<unsigned long long>(chk.artifactDigest()));
    return 0;
  }

  const bool traced = !opt.traceFile.empty();
  const double budget = traced ? opt.seconds / 2.0 : opt.seconds;
  const int reps = opt.smoke ? 3 : kSetupReps;
  Checker chk;
  const double setupSeconds = measureSetup(opt, dir + "/setup-store", reps);
  const Pass plain = runPass(w, opt, budget, false, dir + "/untraced", chk);
  const Metrics e2e = endToEnd(plain, setupSeconds);

  Metrics layers;
  if (traced) {
    SpanRecorder& rec = SpanRecorder::instance();
    rec.enable(true);
    Pass tp;
    Probe pr;
    std::uint64_t rootId = 0;
    {
      Span root("e2e.traced", w.name);
      rootId = root.id();
      tp = runPass(w, opt, budget, true, dir + "/traced", chk);
      pr = runProbe(w, reps, opt.smoke);
    }
    rec.enable(false);
    const std::vector<SpanRecord> spans = rec.collect();
    const double rootCoverage = reportSelfTimes(spans, rootId);
    std::fprintf(stderr, "root span coverage %.4f (%zu spans)\n", rootCoverage, spans.size());
    if (rootCoverage < 0.95) {
      chk.fail("the traced root span's children cover " + std::to_string(rootCoverage) +
               " of it, below 0.95");
    }
    layers = perLayer(tp, pr, median(plain.walls));
    const double phaseCoverage = metricValue(layers, "sim.phase_coverage");
    if (phaseCoverage < 0.95) {
      chk.fail("sim.phase_coverage " + std::to_string(phaseCoverage) + " is below 0.95");
    }
    if (!SpanRecorder::writeChromeJson(opt.traceFile, spans)) {
      chk.fail("cannot write the span file " + opt.traceFile);
    }
  }

  for (const Metrics* m : std::initializer_list<const Metrics*>{&e2e, &layers}) {
    for (const Metric& x : *m) {
      std::fprintf(stderr, "%-34s %-22s %s\n", x.name.c_str(), jsonNumber(x.value).c_str(),
                   x.unit.c_str());
    }
  }
  for (const std::string& e : chk.errors()) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(chk.digest()));
  std::string errors = "[";
  for (std::size_t i = 0; i < chk.errors().size(); ++i) {
    errors += (i ? ", " : "") + jsonString(chk.errors()[i]);
  }
  errors += "]";
  std::cout << "{\"workload\": " << jsonString(w.name) << ", \"seed\": " << opt.seed
            << ", \"smoke\": " << (opt.smoke ? "true" : "false")
            << ", \"attempted\": " << chk.attempted() << ", \"failed\": " << chk.failed()
            << ", \"errors\": " << errors << ", \"digest\": \"" << digest << "\""
            << ", \"machine\": {\"nproc\": " << std::max(1u, std::thread::hardware_concurrency())
            << ", \"pool_width\": " << w.poolWidth
            << ", \"compiler\": " << jsonString(compilerString())
            << ", \"simd_isa\": " << jsonString(simd::isaName()) << "}"
            << ", \"metrics\": " << jsonMetrics(e2e) << ", \"per_layer\": " << jsonMetrics(layers)
            << "}" << std::endl;
  return chk.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fputs(
      "usage: swft_e2e --workload fig3_cold|fig3_warm|knee_16ary3|faulty_8ary3\n"
      "                [--seed S] [--seconds T] [--work-dir DIR] [--trace FILE] [--smoke]\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace swft::e2e

int main(int argc, char** argv) {
  using namespace swft::e2e;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--work-dir") {
        opt.workDir = value();
      } else if (arg == "--trace") {
        opt.traceFile = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--setup-sample") {
        opt.setupStore = value();
      } else if (arg == "--fill") {
        opt.fillStore = value();
      } else {
        return usage();
      }
    }
    if (opt.workload.empty() || !(opt.seconds >= 0.0)) return usage();
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swft_e2e: %s\n", e.what());
    return 1;
  }
}
