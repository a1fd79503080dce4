// Paper-style table formatting for bench output, plus CSV persistence.
#pragma once

#include <string>
#include <vector>

#include "src/harness/sweep.hpp"
#include "src/util/csv.hpp"

namespace swft {

/// Render sweep rows as an aligned text table. `columns` selects result
/// fields by name: latency, throughput, queued, hops, generated, delivered,
/// absorbed, reversals, detours, escalations, cycles, saturated.
[[nodiscard]] std::string formatTable(const std::vector<SweepRow>& rows,
                                      const std::vector<std::string>& columns);

/// Convert sweep rows into a CSV with the standard column set.
[[nodiscard]] CsvWriter toCsv(const std::vector<SweepRow>& rows);

/// Look up one result field by name (used by both emitters).
[[nodiscard]] double resultField(const SimResult& r, const std::string& name);

/// Results directory: $SWFT_RESULTS_DIR, else (unset or empty) "results".
/// Only names it: whoever writes there creates it.
[[nodiscard]] std::string resultsDir();

}  // namespace swft
