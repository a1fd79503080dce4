#include "src/harness/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "src/fault/fault_set.hpp"
#include "src/fault/regions.hpp"

namespace swft {

double resultField(const SimResult& r, const std::string& name) {
  double value = 0.0;
  bool found = false;
  forEachResultField(r, [&](std::string_view, std::string_view column, const auto& v) {
    if (!column.empty() && column == name) {
      value = static_cast<double>(v);
      found = true;
    }
  });
  if (!found) throw std::invalid_argument("resultField: unknown column " + name);
  return value;
}

namespace {

/// `text` padded with spaces to `width`: on the right when `left`-aligned,
/// else on the left, as `std::setw` pads (never truncating).
void appendPadded(std::string& out, std::string_view text, std::size_t width, bool left) {
  const std::size_t pad = width > text.size() ? width - text.size() : 0;
  if (!left) out.append(pad, ' ');
  out += text;
  if (left) out.append(pad, ' ');
}

constexpr std::size_t kCellWidth = 14;

/// The distinct faulty nodes of `c`: its explicit and region nodes, plus its
/// random faults, which are drawn among the nodes still healthy.
int faultyNodeCount(const SimConfig& c) {
  const FaultSpec& f = c.faults;
  if (f.regions.empty() && f.explicitNodes.empty()) return f.randomNodes;
  const TorusTopology topo(c.radix, c.dims);
  FaultSet faults(topo);
  for (const NodeId id : f.explicitNodes) faults.failNode(id);
  for (const RegionSpec& region : f.regions) applyRegion(faults, region);
  return faults.faultyNodeCount() + f.randomNodes;
}

}  // namespace

// The bytes of `os << std::setw(14) << std::setprecision(6) << v` per cell,
// built without a stream: std::to_chars at %g precision 6 is the stream's
// default float format (the CSV cells use the same rule).
std::string formatTable(const std::vector<SweepRow>& rows,
                        const std::vector<std::string>& columns) {
  std::size_t labelWidth = 5;
  for (const auto& row : rows) labelWidth = std::max(labelWidth, row.point.label.size());

  std::string out;
  out.reserve((rows.size() + 1) * (labelWidth + 2 + kCellWidth * columns.size() + 16));
  appendPadded(out, "point", labelWidth + 2, true);
  for (const auto& col : columns) appendPadded(out, col, kCellWidth, false);
  out += '\n';
  for (const auto& row : rows) {
    appendPadded(out, row.point.label, labelWidth + 2, true);
    for (const auto& col : columns) {
      char buf[32];  // "-1.23457e+308" is the longest double at %g precision 6
      const auto res = std::to_chars(buf, buf + sizeof buf, resultField(row.result, col),
                                     std::chars_format::general, 6);
      appendPadded(out, std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)),
                   kCellWidth, false);
    }
    if (row.result.saturated) out += "  [saturated]";
    if (row.result.deadlockSuspected) out += "  [DEADLOCK?]";
    out += '\n';
  }
  return out;
}

CsvWriter toCsv(const std::vector<SweepRow>& rows) {
  CsvWriter csv({"label", "routing", "radix", "dims", "vcs", "msg_length", "offered_load",
                 "faulty_nodes", "mean_latency", "latency_stddev", "throughput",
                 "messages_queued", "absorbed_messages", "mean_hops", "cycles",
                 "delivered_measured", "saturated", "deadlock"});
  for (const auto& row : rows) {
    const SimConfig& c = row.point.cfg;
    const SimResult& r = row.result;
    csv.addRowOf(row.point.label, routingModeName(c.routing), c.radix, c.dims, c.vcs,
                 c.messageLength, c.injectionRate, faultyNodeCount(c),
                 r.meanLatency, r.latencyStddev, r.throughput, r.messagesQueued,
                 r.absorbedMessages, r.meanHops, r.cycles, r.deliveredMeasured,
                 r.saturated ? 1 : 0, r.deadlockSuspected ? 1 : 0);
  }
  return csv;
}

std::string resultsDir() {
  const char* env = std::getenv("SWFT_RESULTS_DIR");
  return env != nullptr && *env != '\0' ? env : "results";
}

}  // namespace swft
