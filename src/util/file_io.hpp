// Whole-file reads and writes through POSIX calls: no stream is built, and a
// write reports every failure, the final close included (a full disk often
// shows up only there).
#pragma once

#include <string>
#include <string_view>

namespace swft {

/// Appends the whole file at `path` to `out`; false when it cannot be
/// opened or read.
bool readWholeFile(const std::string& path, std::string& out);

/// Creates (or truncates) `path` and writes all of `bytes`; false on any
/// open, write or close failure.
bool writeWholeFile(const std::string& path, std::string_view bytes);

}  // namespace swft
