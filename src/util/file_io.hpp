// Whole-file reads and writes through POSIX calls: no stream is built, and a
// write reports every failure, the final close included (a full disk often
// shows up only there). Both name their file relative to a directory
// descriptor (`dirFd`), or take a plain path with AT_FDCWD.
#pragma once

#include <string>
#include <string_view>

namespace swft {

/// Appends the whole file `name` to `out`; false when it cannot be opened or
/// read.
bool readWholeFile(int dirFd, const char* name, std::string& out);

/// Writes all of `bytes` to `name`, creating it when missing, and leaves the
/// file exactly that long; false on any open, write, truncate or close
/// failure. An existing file is overwritten in place, not truncated first:
/// on ext4, closing a file that was truncated to zero forces its writeback
/// (auto_da_alloc), which made rewriting a 24 KB artifact ~20x slower.
bool writeWholeFile(int dirFd, const char* name, std::string_view bytes);

}  // namespace swft
