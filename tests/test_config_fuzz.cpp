// Config-string fuzz: random `key=value` lists over every key the parser
// accepts, with valid, negative, NaN, huge and malformed values mixed in.
// Every list must end one of three ways:
//
//   rejected  parseConfig throws std::invalid_argument;
//   unplaced  the Network constructor throws std::runtime_error because the
//             fault pattern cannot be placed (it disconnects the network, or
//             leaves too few healthy nodes for the random faults) — a
//             property of the drawn fault positions, not of the config's
//             ranges; the message names `nf` and `seed`;
//   ran       the Network builds, steps a few hundred cycles and still
//             passes validateInvariants().
//
// Anything else — an exception of another type, invalid_argument escaping
// the constructor (a range validateConfig missed), a crash, a hang — fails.
// Valid draws stay small (k <= 6 when drawn, n <= 3) so each case builds in
// milliseconds. The seed is fixed; a failure prints the list so it can be
// pasted onto a swft_sim command line.
//
// Registered under the `fuzz` ctest label, which the sanitizer CI jobs run.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/config_parse.hpp"
#include "src/sim/network.hpp"
#include "src/util/rng.hpp"

namespace swft {
namespace {

struct KeyValues {
  const char* key;
  std::vector<std::string> values;
};

// Values shared by every integer key: malformed, sign and range edges.
const std::vector<std::string> kIntJunk = {
    "", "abc", "4x", "1.5", "nan", "-1", "0", "2147483647", "-2147483648",
    "99999999999", "18446744073709551616"};

const std::vector<KeyValues> kKeys = {
    {"k", {"2", "3", "4", "5", "6", "1", "32768", "4097"}},
    {"n", {"1", "2", "3", "9", "-3"}},
    {"vcs", {"2", "3", "4", "8", "16", "1", "17"}},
    {"escape_vcs", {"2", "4", "1", "3", "6", "18"}},
    {"buffer_depth", {"1", "2", "4", "16", "17"}},
    {"msg_length", {"1", "2", "8", "32", "65535", "65536"}},
    {"rate", {"0", "0.001", "0.02", "0.3", "1", "nan", "-nan", "inf", "-0.1",
              "1.5", "1e308", "0x1p-4", "2e-3x"}},
    {"delta", {"0", "5", "40"}},
    {"td", {"0", "1", "3"}},
    {"nf", {"0", "1", "2", "5", "15", "63"}},
    {"warmup", {"0", "10", "4294967295"}},
    {"measured", {"0", "50", "4294967295"}},
    {"max_cycles", {"0", "100", "18446744073709551615"}},
    {"seed", {"1", "7", "18446744073709551615"}},
    {"livelock_threshold", {"0", "3", "96"}},
    {"routing", {"det", "deterministic", "adaptive", "adp", "zigzag", ""}},
    {"traffic", {"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado",
                 "hotspot", "worst", ""}},
    {"pattern", {"hotspot", "tornado", "bit-complement", "x"}},
    {"hotspot_fraction", {"0", "0.5", "1", "nan", "-nan", "inf", "-1", "2", "lots"}},
    {"phase_timers", {"0", "1", "yes"}},
    {"region", {}},  // drawn by regionValue
};

TEST(ConfigFuzz, KeyTableCoversEveryParseKey) {
  // kKeys is written by hand as an independent check on the parser; it
  // must still draw every key the field list parses.
  const SimConfig cfg;
  forEachConfigField(cfg, [](auto parseKey, auto, const auto&) {
    if constexpr (!std::is_null_pointer_v<decltype(parseKey)>) {
      const bool listed = std::any_of(kKeys.begin(), kKeys.end(),
                                      [&](const KeyValues& kv) { return parseKey == kv.key; });
      EXPECT_TRUE(listed) << "kKeys does not draw '" << parseKey << "'";
    }
  });
}

// Integer keys take kIntJunk besides their own values.
bool isIntKey(const std::string& key) {
  return key != "rate" && key != "hotspot_fraction" && key != "routing" &&
         key != "traffic" && key != "pattern" && key != "region";
}

std::string pick(const std::vector<std::string>& v, Rng& rng) {
  return v[rng.uniform(static_cast<std::uint32_t>(v.size()))];
}

std::string regionValue(Rng& rng) {
  static const std::vector<std::string> kShapes = {"I", "II", "rect", "L", "U",
                                                   "plus", "T", "H", "blob"};
  static const std::vector<std::string> kNums = {"-1", "0", "1", "2", "3", "5",
                                                 "7", "40", "70000", "x", ""};
  std::string v = pick(kShapes, rng);
  if (rng.uniform(10) != 0) v += ':';
  v += pick(kNums, rng);
  if (rng.uniform(10) != 0) v += 'x';
  v += pick(kNums, rng);
  if (rng.uniform(2) == 0) {
    v += '@';
    const std::uint32_t digits = rng.uniform(5);
    for (std::uint32_t d = 0; d < digits; ++d) {
      if (d != 0) v += ',';
      v += pick(kNums, rng);
    }
  }
  if (rng.uniform(4) == 0) {
    v += '/';
    v += pick(kNums, rng);
    if (rng.uniform(10) != 0) v += ',';
    v += pick(kNums, rng);
  }
  return v;
}

std::vector<std::string> drawAssignments(Rng& rng) {
  std::vector<std::string> out;
  const std::uint32_t count = 1 + rng.uniform(6);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t shape = rng.uniform(40);
    if (shape == 0) {
      out.emplace_back("k");  // no '='
      continue;
    }
    if (shape == 1) {
      out.emplace_back("bogus=1");
      continue;
    }
    const KeyValues& kv = kKeys[rng.uniform(static_cast<std::uint32_t>(kKeys.size()))];
    const std::string key = kv.key;
    std::string value;
    if (key == "region") {
      value = regionValue(rng);
    } else if (isIntKey(key) && rng.uniform(5) == 0) {
      value = pick(kIntJunk, rng);
    } else {
      value = pick(kv.values, rng);
    }
    out.push_back(key + "=" + value);
  }
  return out;
}

std::string joined(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& a : v) {
    if (!s.empty()) s += ' ';
    s += a;
  }
  return s;
}

TEST(ConfigFuzz, EveryListIsRejectedOrRuns) {
  constexpr int kCases = 2000;
  constexpr std::uint64_t kCycles = 300;
  const Rng base(0xC0F16F022ULL);
  int rejected = 0, unplaced = 0, ran = 0;
  for (int i = 0; i < kCases; ++i) {
    Rng rng = base.split(static_cast<std::uint64_t>(i));
    const std::vector<std::string> args = drawAssignments(rng);
    const std::string repro = "case " + std::to_string(i) + ": " + joined(args);
    SimConfig cfg;
    try {
      cfg = parseConfig(args);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    // Parse-accepted configs also pass validateConfig when built in code.
    ASSERT_NO_THROW(validateConfig(cfg)) << repro;
    try {
      Network net(cfg);
      net.step(kCycles);
      ASSERT_EQ(net.validateInvariants(), "") << repro;
      ++ran;
    } catch (const std::invalid_argument& e) {
      FAIL() << "invalid_argument escaped validateConfig: " << e.what() << "\n" << repro;
    } catch (const std::runtime_error& e) {
      // A placement failure names the inputs that fixed the positions.
      const std::string what = e.what();
      EXPECT_NE(what.find("nf="), std::string::npos) << what << "\n" << repro;
      EXPECT_NE(what.find("seed="), std::string::npos) << what << "\n" << repro;
      ++unplaced;
    }
  }
  RecordProperty("configs_rejected", rejected);
  RecordProperty("configs_unplaced", unplaced);
  RecordProperty("configs_ran", ran);
  // Not vacuous: both sides of the contract are exercised.
  EXPECT_GE(rejected, kCases / 5);
  EXPECT_GE(ran, kCases / 5);
}

}  // namespace
}  // namespace swft
