#include "src/harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/sim/config_parse.hpp"

namespace swft {

namespace {

/// Rethrow `failure` with the failing point's label in its message, keeping
/// the two exception types callers tell apart (bad config vs a fault
/// pattern that cannot be placed). Other types pass through unchanged.
[[noreturn]] void rethrowLabelled(const std::exception_ptr& failure, const std::string& label) {
  const std::string where = "sweep point '" + label + "': ";
  try {
    std::rethrow_exception(failure);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(where + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(where + e.what());
  }
}

}  // namespace

void parallelFor(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t width = std::min<std::size_t>(
      threads > 0 ? static_cast<std::size_t>(threads)
                  : std::max(1u, std::thread::hardware_concurrency()),
      n);

  std::atomic<std::size_t> nextIndex{0};
  std::mutex failureMutex;
  // The first exception fn throws (guarded by failureMutex). Once it is set,
  // workers stop taking indices; the caller rethrows it after the join.
  std::exception_ptr failure;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = nextIndex.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failureMutex);
        if (!failure) failure = std::current_exception();
        nextIndex.store(n, std::memory_order_relaxed);
      }
    }
  };

  if (width <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);
}

void validatePoint(const SweepPoint& point) {
  try {
    validateConfig(point.cfg);
  } catch (...) {
    rethrowLabelled(std::current_exception(), point.label);
  }
}

SimResult simulatePoint(const SweepPoint& point, PhaseBreakdown* phases) {
  try {
    if (phases == nullptr) return runSimulation(point.cfg);
    SimConfig timed = point.cfg;
    timed.phaseTimers = true;
    Network net(timed);
    SimResult result = net.run();
    for (const PhaseBreakdown& shard : net.phaseShards()) *phases += shard;
    return result;
  } catch (...) {
    rethrowLabelled(std::current_exception(), point.label);
  }
}

std::vector<SweepRow> runSweep(std::vector<SweepPoint> points, int threads) {
  // Reject a bad point before any simulation starts.
  for (const SweepPoint& p : points) validatePoint(p);

  std::vector<SweepRow> rows(points.size());
  parallelFor(points.size(), threads, [&](std::size_t i) {
    rows[i].result = simulatePoint(points[i]);
    rows[i].point = std::move(points[i]);
  });
  return rows;
}

std::vector<double> rateGrid(double maxRate, int steps) {
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(steps));
  for (int i = 1; i <= steps; ++i) {
    grid.push_back(maxRate * static_cast<double>(i) / static_cast<double>(steps));
  }
  return grid;
}

}  // namespace swft
