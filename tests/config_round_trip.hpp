// The test suites' one check that describeConfig is a command line.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/config_canon.hpp"
#include "src/sim/config_parse.hpp"

namespace swft {

/// `line` split on single spaces, as a shell splits a pasted command line.
inline std::vector<std::string> splitOnSpaces(const std::string& line) {
  std::vector<std::string> words;
  std::size_t start = 0;
  for (std::size_t space; (space = line.find(' ', start)) != std::string::npos;
       start = space + 1) {
    words.push_back(line.substr(start, space - start));
  }
  words.push_back(line.substr(start));
  return words;
}

/// Expects parseConfig of describeConfig(cfg), split on spaces, to have
/// `cfg`'s canonical key. `context` is printed with a failure.
inline void expectDescribeRoundTrips(const SimConfig& cfg, const std::string& context = "") {
  const std::string line = describeConfig(cfg);
  try {
    EXPECT_EQ(canonicalConfigKey(parseConfig(splitOnSpaces(line))), canonicalConfigKey(cfg))
        << context << ": " << line;
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << context << ": " << line << ": " << e.what();
  }
}

}  // namespace swft
