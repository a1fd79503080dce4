#include "src/harness/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/sim/config_parse.hpp"
#include "src/sim/engine_mt.hpp"

namespace swft {

unsigned sweepPoolThreads(int requested, unsigned hardwareConcurrency,
                          int maxSimThreads) noexcept {
  const unsigned hc = std::max(1u, hardwareConcurrency);
  const unsigned sim = static_cast<unsigned>(std::max(1, maxSimThreads));
  const unsigned budget = std::max(1u, hc / sim);
  if (requested <= 0) return budget;
  const unsigned want = static_cast<unsigned>(requested);
  return sim <= 1 ? want : std::min(want, budget);
}

std::vector<SweepRow> runSweep(std::vector<SweepPoint> points, int threads,
                               const std::function<void(const SweepRow&)>& onDone) {
  std::vector<SweepRow> rows(points.size());
  if (points.empty()) return rows;

  // Reject a bad point before any simulation starts (this also keeps the
  // node-count product below from overflowing on an unchecked radix).
  for (const SweepPoint& p : points) validateConfig(p.cfg);

  // Oversubscription guard: a sparse-mt point spins up its own domain
  // workers, so the pool budget shrinks by the widest point in the grid.
  int maxSim = 1;
  for (const SweepPoint& p : points) {
    if (p.cfg.engine != EngineKind::SparseMt) continue;
    int nodes = 1;
    for (int d = 0; d < p.cfg.dims; ++d) nodes *= p.cfg.radix;
    maxSim = std::max(maxSim, mtEffectiveDomains(nodes, p.cfg.simThreads));
  }
  unsigned nThreads =
      sweepPoolThreads(threads, std::thread::hardware_concurrency(), maxSim);
  nThreads = std::min<unsigned>(nThreads, static_cast<unsigned>(points.size()));

  std::atomic<std::size_t> nextIndex{0};
  std::mutex doneMutex;
  // The first exception any point throws (guarded by doneMutex). Once it is
  // set, workers stop taking points; the caller rethrows it after the join.
  std::exception_ptr failure;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = nextIndex.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      try {
        SweepRow row;
        row.point = points[i];
        row.result = runSimulation(points[i].cfg);
        if (onDone) {
          const std::lock_guard<std::mutex> lock(doneMutex);
          onDone(row);
        }
        rows[i] = std::move(row);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(doneMutex);
        if (!failure) failure = std::current_exception();
        nextIndex.store(points.size(), std::memory_order_relaxed);
      }
    }
  };

  if (nThreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);
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
