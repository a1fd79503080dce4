// The test suites' one SimResult comparator.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/harness/result_cache.hpp"

namespace swft {

/// Expects `a` and `b` to be the same result bit for bit. It compares the
/// result-cache texts, which carry every field that forEachResultField lists
/// and every double as its bit pattern; on failure the string diff names
/// each field that differs. `context` is printed with a failure.
inline void expectSameResult(const SimResult& a, const SimResult& b,
                             const std::string& context = "") {
  EXPECT_EQ(serializeResult(a), serializeResult(b)) << context;
}

}  // namespace swft
