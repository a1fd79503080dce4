// Paper-style table formatting for bench output, plus CSV persistence.
#pragma once

#include <string>
#include <vector>

#include "src/harness/sweep.hpp"
#include "src/util/csv.hpp"

namespace swft {

/// Render sweep rows as an aligned text table. `columns` selects result
/// fields by the table column forEachResultField (stats.hpp) gives them:
/// latency, throughput, queued, hops, generated, delivered, absorbed, ...
[[nodiscard]] std::string formatTable(const std::vector<SweepRow>& rows,
                                      const std::vector<std::string>& columns);

/// Convert sweep rows into a CSV with the standard column set. Its
/// faulty_nodes cell counts each distinct explicit, region and random fault.
[[nodiscard]] CsvWriter toCsv(const std::vector<SweepRow>& rows);

/// The result field whose table column is `name`, as a double; throws
/// std::invalid_argument for a name no field has.
[[nodiscard]] double resultField(const SimResult& r, const std::string& name);

/// Results directory: $SWFT_RESULTS_DIR, else (unset or empty) "results".
/// Only names it: whoever writes there creates it.
[[nodiscard]] std::string resultsDir();

}  // namespace swft
