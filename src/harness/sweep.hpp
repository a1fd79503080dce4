// Parameter-sweep harness: runs a grid of independent simulations across a
// thread pool (each simulation owns all of its state, so points are
// embarrassingly parallel) and collects paper-style result rows.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/network.hpp"

namespace swft {

struct SweepPoint {
  std::string label;  // row label, e.g. "M=32 nf=3 V=4"
  SimConfig cfg;
};

struct SweepRow {
  SweepPoint point;
  SimResult result;
};

/// Calls `fn(i)` exactly once for every i in [0, n) on a pool of workers that
/// take indices in ascending order. `threads` <= 0 means hardware concurrency
/// (at least one), and the pool is never wider than `n`; a width of 1 runs
/// every index inline on the calling thread and starts no thread. The first
/// exception `fn` throws stops the pool from handing out further indices and
/// is rethrown to the caller once the workers have joined (indices already
/// running finish; the rest never run). `fn` must be safe to call
/// concurrently for distinct indices.
void parallelFor(std::size_t n, int threads, const std::function<void(std::size_t)>& fn);

/// Reject a point that validateConfig rejects, with the point's label
/// prefixed to the std::invalid_argument's message.
void validatePoint(const SweepPoint& point);

/// Simulate one grid point: build its Network and run it to completion. A
/// std::invalid_argument or std::runtime_error it throws is rethrown as the
/// same type with the point's label prefixed to its message. Given a sink,
/// the run collects its phase timers (SimConfig::phaseTimers) and adds every
/// shard into `*phases`; a null sink times nothing.
SimResult simulatePoint(const SweepPoint& point, PhaseBreakdown* phases = nullptr);

/// Run all points through simulatePoint on parallelFor's pool. Points start
/// in submission order but complete out of order; the returned rows are in
/// the original order. Every point is validated (validatePoint) before the
/// pool starts.
std::vector<SweepRow> runSweep(std::vector<SweepPoint> points, int threads = 0);

/// Standard λ grids used by the latency-vs-traffic figures: `maxRate` spread
/// over `steps` points (excluding zero).
[[nodiscard]] std::vector<double> rateGrid(double maxRate, int steps);

}  // namespace swft
