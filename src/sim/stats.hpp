// Statistics collection (paper §5.2): mean message latency, throughput over
// the measurement window, and the "messages queued" absorption counter.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace swft {

/// Streaming accumulator for a scalar sample (mean / min / max / variance).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Latency sample accumulator: streaming moments plus a logarithmic-bucket
/// histogram for percentiles and batch means for a 95% confidence interval
/// on the mean (standard steady-state simulation methodology; the paper's
/// warm-up-then-measure protocol assumes it implicitly).
class LatencyTracker {
 public:
  static constexpr int kBuckets = 64;       // bucket b covers [2^(b/2)-ish)
  static constexpr std::uint64_t kBatchSize = 512;

  void add(double x) noexcept {
    stat_.add(x);
    ++hist_[bucketOf(x)];
    batchSum_ += x;
    if (++batchCount_ == kBatchSize) {
      batchMeans_.add(batchSum_ / static_cast<double>(kBatchSize));
      batchSum_ = 0.0;
      batchCount_ = 0;
    }
  }

  [[nodiscard]] const RunningStat& stat() const noexcept { return stat_; }

  /// Approximate percentile (0 < q < 1) from the histogram; the value is
  /// exact to within the bucket resolution (~sqrt(2) relative).
  [[nodiscard]] double percentile(double q) const noexcept {
    const std::uint64_t n = stat_.count();
    if (n == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += hist_[b];
      if (seen > target) return bucketMid(b);
    }
    return stat_.max();
  }

  /// Half-width of the 95% confidence interval on the mean, from batch
  /// means (0 when fewer than two complete batches exist).
  [[nodiscard]] double ciHalfWidth95() const noexcept {
    const std::uint64_t k = batchMeans_.count();
    if (k < 2) return 0.0;
    const double se = std::sqrt(batchMeans_.variance() / static_cast<double>(k));
    return 1.96 * se;
  }

 private:
  static int bucketOf(double x) noexcept {
    if (x < 1.0) return 0;
    // Two buckets per octave: resolution ~ +/-19%.
    const int b = static_cast<int>(2.0 * std::log2(x));
    return b >= kBuckets ? kBuckets - 1 : b;
  }
  static double bucketMid(int b) noexcept {
    return std::exp2((static_cast<double>(b) + 0.5) / 2.0);
  }

  RunningStat stat_;
  RunningStat batchMeans_;
  std::uint64_t hist_[kBuckets] = {};
  double batchSum_ = 0.0;
  std::uint64_t batchCount_ = 0;
};

/// Wall-clock seconds spent in each phase of the cycle loop, collected when
/// `SimConfig::phaseTimers` is set (runtime flag — no rebuild needed). Each
/// engine thread owns one shard; shards merge by order-insensitive summation,
/// so the totals are identical no matter which thread finished first.
///
/// Phase meanings by engine:
///   sparse    — kGen/kInj/kWalk only (single shard)
///   sparse-mt — every slot: kCards is its share of the parallel route-card
///               step (P1), kBarrier the launch/await time around it; slot 0
///               (the main thread) also runs the sparse cycle, charged to
///               kGen/kInj/kWalk.
struct PhaseBreakdown {
  enum Phase : int {
    kCards = 0,  // P1: route precomputation (route cards)
    kGen,        // sparse cycle: generation heap
    kInj,        // sparse cycle: injection
    kWalk,       // sparse cycle: router walk
    kBarrier,    // launch/await overhead around P1
    kPhaseCount,
  };

  double sec[kPhaseCount] = {};

  PhaseBreakdown& operator+=(const PhaseBreakdown& o) noexcept {
    for (int p = 0; p < kPhaseCount; ++p) sec[p] += o.sec[p];
    return *this;
  }
  [[nodiscard]] double total() const noexcept {
    double t = 0.0;
    for (double s : sec) t += s;
    return t;
  }
  /// Seconds of the serial sparse cycle (gen + inj + walk).
  [[nodiscard]] double serial() const noexcept {
    return sec[kGen] + sec[kInj] + sec[kWalk];
  }

  /// "gen 0.005s inj 0.010s walk 0.099s": the three phases the sparse cycle
  /// charges, for the front-ends that print timers.
  [[nodiscard]] std::string toString() const;
};

/// Scoped-ish phase stopwatch: `mark(p)` charges the time since the previous
/// mark to phase `p` and restarts the clock. A null sink makes every call a
/// cheap no-op, so instrumented code needs no compile-time guard.
class PhaseClock {
 public:
  explicit PhaseClock(PhaseBreakdown* sink) noexcept : sink_(sink) {
    if (sink_ != nullptr) last_ = std::chrono::steady_clock::now();
  }
  void mark(PhaseBreakdown::Phase p) noexcept {
    if (sink_ == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    sink_->sec[p] += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  /// Restart the clock without charging anyone (skip untimed stretches).
  void reset() noexcept {
    if (sink_ != nullptr) last_ = std::chrono::steady_clock::now();
  }

 private:
  PhaseBreakdown* sink_;
  std::chrono::steady_clock::time_point last_{};
};

/// Aggregate result of one simulation run.
struct SimResult {
  // Latency over measured (post-warm-up) delivered messages, in cycles, from
  // generation to the last data flit reaching the destination PE.
  double meanLatency = 0.0;
  double latencyStddev = 0.0;
  double maxLatency = 0.0;
  double latencyP50 = 0.0;   // histogram-resolution percentiles
  double latencyP95 = 0.0;
  double latencyP99 = 0.0;
  double latencyCi95 = 0.0;  // 95% CI half-width on the mean (batch means)
  double meanHops = 0.0;

  std::uint64_t cycles = 0;
  std::uint64_t generatedTotal = 0;
  std::uint64_t deliveredTotal = 0;
  std::uint64_t deliveredMeasured = 0;

  // Messages/node/cycle delivered during the measurement window.
  double throughput = 0.0;
  // Offered load for reference (the configured lambda).
  double offeredLoad = 0.0;

  // Software-based routing counters.
  std::uint64_t messagesQueued = 0;    // absorption events (Fig. 7 metric)
  std::uint64_t absorbedMessages = 0;  // distinct messages absorbed >= once
  std::uint64_t reversals = 0;
  std::uint64_t detours = 0;
  std::uint64_t escalations = 0;

  // Health flags.
  bool saturated = false;          // could not sustain the offered load
  bool deadlockSuspected = false;  // watchdog fired (must never happen)
  bool completed = false;          // reached the measured-message target
};

/// The one list of SimResult's fields: calls `f(name, column, member)` once
/// per field, in declaration order, with the field's result-cache name and
/// its table column (resultField, table.hpp), empty for a field that has no
/// column. `R` is SimResult or const SimResult. The structured binding names every member,
/// so a field added to or removed from the struct without this list changing
/// is a compile error, not a field that silently goes unserialized or
/// uncompared.
template <class R, class F>
void forEachResultField(R& r, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<R>, SimResult>);
  using namespace std::string_view_literals;
  auto& [meanLatency, latencyStddev, maxLatency, latencyP50, latencyP95, latencyP99,
         latencyCi95, meanHops, cycles, generatedTotal, deliveredTotal, deliveredMeasured,
         throughput, offeredLoad, messagesQueued, absorbedMessages, reversals, detours,
         escalations, saturated, deadlockSuspected, completed] = r;
  f("mean_latency"sv, "latency"sv, meanLatency);
  f("latency_stddev"sv, "latency_stddev"sv, latencyStddev);
  f("max_latency"sv, ""sv, maxLatency);
  f("latency_p50"sv, "latency_p50"sv, latencyP50);
  f("latency_p95"sv, "latency_p95"sv, latencyP95);
  f("latency_p99"sv, "latency_p99"sv, latencyP99);
  f("latency_ci95"sv, "latency_ci95"sv, latencyCi95);
  f("mean_hops"sv, "hops"sv, meanHops);
  f("cycles"sv, "cycles"sv, cycles);
  f("generated_total"sv, "generated"sv, generatedTotal);
  f("delivered_total"sv, "delivered"sv, deliveredTotal);
  f("delivered_measured"sv, ""sv, deliveredMeasured);
  f("throughput"sv, "throughput"sv, throughput);
  f("offered_load"sv, "offered"sv, offeredLoad);
  f("messages_queued"sv, "queued"sv, messagesQueued);
  f("absorbed_messages"sv, "absorbed"sv, absorbedMessages);
  f("reversals"sv, "reversals"sv, reversals);
  f("detours"sv, "detours"sv, detours);
  f("escalations"sv, "escalations"sv, escalations);
  f("saturated"sv, "saturated"sv, saturated);
  f("deadlock_suspected"sv, ""sv, deadlockSuspected);
  f("completed"sv, ""sv, completed);
}

}  // namespace swft
