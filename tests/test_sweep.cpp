#include "src/harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tests/naming.hpp"
#include "tests/result_compare.hpp"

namespace swft {
namespace {

std::string pointLabel(int i) { return catName({"p", std::to_string(i)}); }

SweepPoint tinyPoint(const std::string& label, double rate, std::uint64_t seed) {
  SweepPoint p;
  p.label = label;
  p.cfg.radix = 4;
  p.cfg.dims = 2;
  p.cfg.vcs = 2;
  p.cfg.messageLength = 4;
  p.cfg.injectionRate = rate;
  p.cfg.warmupMessages = 50;
  p.cfg.measuredMessages = 300;
  p.cfg.maxCycles = 200'000;
  p.cfg.seed = seed;
  return p;
}

TEST(Sweep, PreservesSubmissionOrder) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back(tinyPoint(pointLabel(i), 0.002 * (i + 1), 10 + i));
  }
  const auto rows = runSweep(points, 1);
  ASSERT_EQ(rows.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rows[static_cast<std::size_t>(i)].point.label,
                                        pointLabel(i));
}

TEST(Sweep, ParallelAndSerialResultsIdentical) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(tinyPoint(pointLabel(i), 0.003, 20 + i));
  }
  const auto serial = runSweep(points, 1);
  const auto parallel = runSweep(points, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectSameResult(serial[i].result, parallel[i].result);
  }
}

TEST(Sweep, SimulatePointTimesOnlyWithASink) {
  const SweepPoint p = tinyPoint(pointLabel(0), 0.003, 30);
  PhaseBreakdown phases;
  const SimResult timed = simulatePoint(p, &phases);
  expectSameResult(simulatePoint(p), timed);
  EXPECT_GT(phases.serial(), 0.0);
  EXPECT_EQ(phases.serial(), phases.total()) << "a sparse run charges gen, inj and walk only";
}

TEST(Sweep, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(runSweep({}, 4).empty());
}

TEST(Sweep, SparseMtPointsMatchDefaultEngineThroughThePool) {
  std::vector<SweepPoint> points, mtPoints;
  for (int i = 0; i < 4; ++i) {
    SweepPoint p = tinyPoint(pointLabel(i), 0.003, 40 + i);
    points.push_back(p);
    p.cfg.engine = EngineKind::SparseMt;
    p.cfg.simThreads = 1 + i;  // mixed widths in one grid
    mtPoints.push_back(p);
  }
  const auto base = runSweep(points, 2);
  const auto mt = runSweep(mtPoints, 2);
  ASSERT_EQ(base.size(), mt.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    expectSameResult(base[i].result, mt[i].result);
  }
}

// A point that throws must reach the caller from a multi-threaded pool too
// (an escaping exception in a pool thread would call std::terminate).
std::vector<SweepPoint> gridWithBadMiddle(const SweepPoint& bad) {
  return {tinyPoint(pointLabel(0), 0.002, 50), bad,
          tinyPoint(pointLabel(2), 0.002, 52)};
}

TEST(Sweep, InvalidPointThrowsToCallerFromThreadedPool) {
  SweepPoint bad = tinyPoint(pointLabel(1), 0.002, 51);
  bad.cfg.radix = 1;  // rejected by validateConfig before the pool starts
  EXPECT_THROW((void)runSweep(gridWithBadMiddle(bad), 3), std::invalid_argument);
  EXPECT_THROW((void)runSweep(gridWithBadMiddle(bad), 1), std::invalid_argument);
}

TEST(Sweep, FaultPlacementErrorThrowsToCallerFromThreadedPool) {
  // Valid config, but after the 14 explicit faults only 2 of the 16 nodes
  // are healthy, too few for 2 random faults: the fault placement inside
  // the point's simulation throws.
  SweepPoint bad = tinyPoint(pointLabel(1), 0.002, 51);
  for (NodeId id = 0; id < 14; ++id) bad.cfg.faults.explicitNodes.push_back(id);
  bad.cfg.faults.randomNodes = 2;
  try {
    (void)runSweep(gridWithBadMiddle(bad), 3);
    FAIL() << "runSweep should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.starts_with("sweep point '" + pointLabel(1) + "': ")) << what;
  }
}

TEST(Sweep, ParallelForRunsEachIndexOnceAndRethrowsFirstFailure) {
  int calls = 0;
  parallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0) << "n = 0 runs nothing";

  // Every index exactly once: inline, narrower than n, wider than n, and at
  // hardware concurrency (threads <= 0). The pool is never wider than n, and
  // width 1 runs on the calling thread.
  constexpr std::size_t kN = 5;
  for (const int threads : {1, 3, 64, 0, -2}) {
    std::vector<std::atomic<int>> runs(kN);
    std::mutex idsMutex;
    std::set<std::thread::id> ids;
    parallelFor(kN, threads, [&](std::size_t i) {
      runs[i].fetch_add(1);
      const std::lock_guard<std::mutex> lock(idsMutex);
      ids.insert(std::this_thread::get_id());
    });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads;
    EXPECT_LE(ids.size(), kN) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
    }
  }

  // A throwing index stops the pool; the exception reaches the caller only
  // after every index already running has finished.
  constexpr std::size_t kLong = 1000;
  std::vector<std::atomic<int>> runs(kLong);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    parallelFor(kLong, 4, [&](std::size_t i) {
      runs[i].fetch_add(1);
      started.fetch_add(1);
      if (i == 5) throw std::runtime_error("index 5");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "parallelFor must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 5");
    EXPECT_EQ(finished.load() + 1, started.load()) << "rethrown before the join";
  }
  EXPECT_LT(started.load(), static_cast<int>(kLong)) << "the pool kept taking indices";
  for (std::size_t i = 0; i < kLong; ++i) EXPECT_LE(runs[i].load(), 1) << "index " << i;

  // Of several failures, the first one thrown is the one rethrown.
  try {
    parallelFor(3, 1, [](std::size_t i) { throw std::runtime_error(std::to_string(i)); });
    ADD_FAILURE() << "parallelFor must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(Sweep, RateGridSpansToMaximum) {
  const auto grid = rateGrid(0.014, 7);
  ASSERT_EQ(grid.size(), 7u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.002);
  EXPECT_DOUBLE_EQ(grid.back(), 0.014);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
}

}  // namespace
}  // namespace swft
