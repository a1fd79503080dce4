#include "src/harness/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/fnv.hpp"

namespace swft {
namespace {

SweepRow fakeRow(const std::string& label, double latency, double throughput,
                 std::uint64_t queued) {
  SweepRow row;
  row.point.label = label;
  row.point.cfg = SimConfig{};
  row.result.meanLatency = latency;
  row.result.throughput = throughput;
  row.result.messagesQueued = queued;
  row.result.completed = true;
  return row;
}

TEST(Table, ResultFieldLookup) {
  const SweepRow row = fakeRow("a", 123.5, 0.004, 7);
  EXPECT_EQ(resultField(row.result, "latency"), 123.5);
  EXPECT_EQ(resultField(row.result, "throughput"), 0.004);
  EXPECT_EQ(resultField(row.result, "queued"), 7.0);
  EXPECT_EQ(resultField(row.result, "saturated"), 0.0);
  EXPECT_THROW(static_cast<void>(resultField(row.result, "nonsense")),
               std::invalid_argument);
}

TEST(Table, FormatContainsLabelsAndValues) {
  const std::vector<SweepRow> rows{fakeRow("lambda=0.002", 100.25, 0.002, 0),
                                   fakeRow("lambda=0.004", 222.5, 0.004, 3)};
  const std::string out = formatTable(rows, {"latency", "throughput", "queued"});
  EXPECT_NE(out.find("lambda=0.002"), std::string::npos);
  EXPECT_NE(out.find("lambda=0.004"), std::string::npos);
  EXPECT_NE(out.find("100.25"), std::string::npos);
  EXPECT_NE(out.find("222.5"), std::string::npos);
  EXPECT_NE(out.find("latency"), std::string::npos);
}

TEST(Table, SaturationAnnotated) {
  SweepRow row = fakeRow("hot", 900, 0.01, 0);
  row.result.saturated = true;
  const std::string out = formatTable({row}, {"latency"});
  EXPECT_NE(out.find("[saturated]"), std::string::npos);
}

TEST(Table, CsvHasOneLinePerRowPlusHeader) {
  const std::vector<SweepRow> rows{fakeRow("a", 1, 2, 3), fakeRow("b", 4, 5, 6)};
  const std::string text = toCsv(rows).str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("mean_latency"), std::string::npos);
  EXPECT_NE(text.find("deterministic"), std::string::npos);
}

// The artifact bytes, pinned by digest across versions of the formatter:
// a warm-cache rerun compares one binary's artifact with itself, so only a
// recorded digest catches a formatting change between versions. The rows
// carry many-digit doubles, %g exponent and rounding edges, counter extremes,
// fault counts and a label that needs quoting.
TEST(Table, CsvAndTableBytesArePinned) {
  std::vector<SweepRow> rows;
  const double latencies[] = {1000.0 / 3.0,  123456789.0, 0.00233333333, 999999.5,
                              1e-5,          2.0 / 7.0,   0.0,           1e300};
  for (int i = 0; i < 8; ++i) {
    std::string label = "p";
    label += i == 3 ? "M=32, nf=5" : std::to_string(i);
    SweepRow row = fakeRow(label, latencies[i], 0.0146 * (i + 1) / 3.0,
                           std::uint64_t{1} << (8 * i));
    SimConfig& c = row.point.cfg;
    c.routing = i % 2 ? RoutingMode::Adaptive : RoutingMode::Deterministic;
    c.radix = 8 + i;
    c.dims = 2 + i % 2;
    c.vcs = 4 + 2 * i;
    c.messageLength = 32 << (i % 2);
    c.injectionRate = 0.02 * (i + 1) / 6.0;
    c.faults.randomNodes = i % 3;
    c.faults.explicitNodes.assign(static_cast<std::size_t>(i % 2), 7);
    SimResult& r = row.result;
    r.latencyStddev = std::sqrt(latencies[i]) / 7.0;
    r.absorbedMessages = 41u * static_cast<unsigned>(i);
    r.meanHops = 5.0 + 1.0 / (i + 3);
    r.cycles = ~std::uint64_t{0} - static_cast<std::uint64_t>(i);
    r.deliveredMeasured = 8000u + static_cast<unsigned>(i);
    r.maxLatency = std::nextafter(latencies[i], 1e308);
    r.latencyP99 = latencies[i] * 1.5;
    r.generatedTotal = 123456789ULL * static_cast<unsigned>(i);
    r.deliveredTotal = 987654321ULL + static_cast<unsigned>(i);
    r.reversals = static_cast<unsigned>(i);
    r.escalations = static_cast<unsigned>(i * i);
    r.offeredLoad = c.injectionRate;
    r.saturated = i % 3 == 1;
    r.deadlockSuspected = i == 5;
    rows.push_back(row);
  }
  const std::string csv = toCsv(rows).str();
  const std::string table =
      formatTable(rows, {"latency", "latency_stddev", "latency_p99", "throughput", "queued",
                         "hops", "generated", "delivered", "absorbed", "reversals",
                         "escalations", "cycles", "saturated", "offered"});
  EXPECT_EQ(fnv1a64(csv), 0x717390762330573aULL) << csv;
  EXPECT_EQ(fnv1a64(table), 0xe19ab30791fe2b47ULL) << table;
}

TEST(Table, ResultsDirHonoursEnv) {
  setenv("SWFT_RESULTS_DIR", "/tmp/swft_results_test", 1);
  EXPECT_EQ(resultsDir(), "/tmp/swft_results_test");
  // Empty counts as unset: "" would put the default store at "/cache".
  setenv("SWFT_RESULTS_DIR", "", 1);
  EXPECT_EQ(resultsDir(), "results");
  unsetenv("SWFT_RESULTS_DIR");
  EXPECT_EQ(resultsDir(), "results");
}

}  // namespace
}  // namespace swft
