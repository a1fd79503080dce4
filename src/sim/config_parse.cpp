#include "src/sim/config_parse.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "src/router/flit.hpp"
#include "src/router/message.hpp"
#include "src/routing/vc_partition.hpp"
#include "src/util/text.hpp"

namespace swft {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument(what); }

// One parseValue per SimConfig member type; `key` names the field in errors.
// A number parses whole as the field's type T with std::from_chars: no
// leading whitespace or '+', no hex, no locale. An integer outside T's range
// (a negative one for an unsigned field included) is rejected, not wrapped.
template <typename T>
  requires std::is_arithmetic_v<T>
void parseValue(const std::string& key, const std::string& value, T& out) {
  T parsed{};  // from_chars writes a parsed prefix; `out` changes only on success
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    if constexpr (std::is_floating_point_v<T>) {
      fail("config: '" + key + "' expects a number, got '" + value + "'");
    } else {
      fail("config: '" + key + "' expects an integer in [" +
           std::to_string(std::numeric_limits<T>::min()) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "], got '" + value + "'");
    }
  }
  out = parsed;
}

/// The shape whose regionShapeName is `name`; H is the last RegionShape.
RegionShape parseShape(const std::string& name) {
  for (int s = 0; s <= static_cast<int>(RegionShape::H); ++s) {
    if (regionShapeName(static_cast<RegionShape>(s)) == name) return static_cast<RegionShape>(s);
  }
  fail("config: unknown region shape '" + name + "'");
}

/// Each `region=` assignment adds one region. Value syntax:
/// shape:E0xE1[@x,y][/p,q], e.g. "U:4x3@2,2", "rect:3x3" or
/// "rect:2x2@0,0,1/0,2". The anchor keeps only the digits given;
/// sizeRegionAnchors pads it to the final `n` once every assignment is
/// applied. `/p,q` names the plane's two dimensions (RegionSpec::dim0/dim1,
/// default 0,1); validateRegion checks them against `n`.
void parseValue(const std::string&, const std::string& value, std::vector<RegionSpec>& regions) {
  const auto colon = value.find(':');
  if (colon == std::string::npos) fail("config: region needs 'shape:E0xE1[@x,y][/p,q]'");
  RegionSpec spec;
  spec.shape = parseShape(value.substr(0, colon));
  std::string rest = value.substr(colon + 1);
  if (const auto slash = rest.find('/'); slash != std::string::npos) {
    const std::string plane = rest.substr(slash + 1);
    rest = rest.substr(0, slash);
    const auto comma = plane.find(',');
    if (comma == std::string::npos) fail("config: region plane needs 'p,q', got '" + plane + "'");
    parseValue("region plane", plane.substr(0, comma), spec.dim0);
    parseValue("region plane", plane.substr(comma + 1), spec.dim1);
  }
  std::string anchorPart;
  if (const auto at = rest.find('@'); at != std::string::npos) {
    anchorPart = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }
  const auto x = rest.find('x');
  if (x == std::string::npos) fail("config: region extents need 'E0xE1'");
  parseValue("region", rest.substr(0, x), spec.extent0);
  parseValue("region", rest.substr(x + 1), spec.extent1);
  if (!anchorPart.empty()) {
    std::stringstream ss(anchorPart);
    std::string digit;
    while (std::getline(ss, digit, ',')) {
      if (spec.anchor.digit.size() == spec.anchor.digit.capacity()) {
        fail("config: region anchor '" + anchorPart + "' has more than " +
             std::to_string(kMaxDims) + " digits");
      }
      spec.anchor.digit.push_back(0);
      parseValue("region anchor", digit, spec.anchor.digit.back());
    }
  }
  regions.push_back(spec);
}

/// A flag reads as the result cache writes one: exactly 0 or 1.
void parseValue(const std::string& key, const std::string& value, bool& out) {
  if (value != "0" && value != "1") {
    fail("config: '" + key + "' expects 0 or 1, got '" + value + "'");
  }
  out = value == "1";
}

void parseValue(const std::string&, const std::string& value, RoutingMode& out) {
  if (value == "det" || value == "deterministic") {
    out = RoutingMode::Deterministic;
  } else if (value == "adaptive" || value == "adp") {
    out = RoutingMode::Adaptive;
  } else {
    fail("config: routing must be det|adaptive, got '" + value + "'");
  }
}

void parseValue(const std::string&, const std::string& value, TrafficPattern& out) {
  const std::optional<TrafficPattern> p = parseTrafficPattern(value);
  if (!p) fail("config: unknown traffic pattern '" + value + "'");
  out = *p;
}

/// Size every region anchor to the final `cfg.dims`: missing trailing digits
/// default to 1 (inside the torus), extra digits are an error.
void sizeRegionAnchors(SimConfig& cfg) {
  for (RegionSpec& r : cfg.faults.regions) {
    if (cfg.dims < 1 || cfg.dims > kMaxDims) {
      fail("config: region needs 1 <= n <= " + std::to_string(kMaxDims) + ", got n=" +
           std::to_string(cfg.dims));
    }
    if (r.anchor.dims() > cfg.dims) {
      fail("config: region anchor has " + std::to_string(r.anchor.dims()) +
           " digits but n=" + std::to_string(cfg.dims));
    }
    r.anchor.digit.resize(static_cast<std::size_t>(cfg.dims), std::int16_t{1});
  }
}

}  // namespace

void applyConfigAssignment(SimConfig& cfg, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    fail("config: expected key=value, got '" + assignment + "'");
  }
  const std::string key = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);
  bool known = false;
  forEachConfigField(cfg, [&](auto parseKey, auto, auto& member) {
    if constexpr (!std::is_null_pointer_v<decltype(parseKey)>) {
      if (parseKey == key) {
        parseValue(key, value, member);
        known = true;
      }
    }
  });
  if (!known) fail("config: unknown key '" + key + "'");
}

SimConfig parseConfig(std::span<const std::string> assignments, const SimConfig& defaults) {
  SimConfig cfg = defaults;
  for (const std::string& a : assignments) applyConfigAssignment(cfg, a);
  sizeRegionAnchors(cfg);
  validateConfig(cfg);
  return cfg;
}

namespace {

/// "config: 'key' must be <rule>, got <value>".
template <typename T>
[[noreturn]] void failRange(const char* key, const std::string& rule, T got) {
  std::ostringstream os;
  os << "config: '" << key << "' must be " << rule << ", got " << got;
  fail(os.str());
}

void validateRegion(const SimConfig& cfg, const RegionSpec& r) {
  const std::string k = std::to_string(cfg.radix);
  if (r.dim0 == r.dim1 || r.dim0 < 0 || r.dim1 < 0 || r.dim0 >= cfg.dims ||
      r.dim1 >= cfg.dims) {
    fail("config: 'region' needs two distinct plane dimensions below n=" +
         std::to_string(cfg.dims) + ", got " + std::to_string(r.dim0) + " and " +
         std::to_string(r.dim1));
  }
  if (r.anchor.dims() != cfg.dims) {
    fail("config: 'region' anchor has " + std::to_string(r.anchor.dims()) +
         " digits but n=" + std::to_string(cfg.dims));
  }
  for (int d = 0; d < cfg.dims; ++d) {
    if (r.anchor[d] < 0 || r.anchor[d] >= cfg.radix) {
      fail("config: 'region' anchor digit " + std::to_string(d) + " must be in [0, " +
           k + "), got " + std::to_string(r.anchor[d]));
    }
  }
  // A plus is two cells thick in both bars.
  const int minExtent = r.shape == RegionShape::Plus ? 2 : 1;
  for (const int e : {r.extent0, r.extent1}) {
    if (e < minExtent || e > cfg.radix) {
      fail("config: 'region' extents must be in [" + std::to_string(minExtent) + ", " +
           k + "], got " + std::to_string(r.extent0) + "x" + std::to_string(r.extent1));
    }
  }
}

}  // namespace

void validateConfig(const SimConfig& cfg) {
  // Topology first: the node count bounds `nf`, the radix bounds regions.
  if (cfg.radix < 2) failRange("k", ">= 2", cfg.radix);
  if (cfg.dims < 1 || cfg.dims > kMaxDims) {
    failRange("n", "in [1, " + std::to_string(kMaxDims) + "]", cfg.dims);
  }
  constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 24;  // AddressSpace limit
  std::uint64_t nodes = 1;
  for (int d = 0; d < cfg.dims; ++d) {
    nodes *= static_cast<std::uint64_t>(cfg.radix);
    if (nodes > kMaxNodes) {
      fail("config: 'k' and 'n' give more than 2^24 nodes (k=" +
           std::to_string(cfg.radix) + ", n=" + std::to_string(cfg.dims) + ")");
    }
  }
  // Router geometry: both wrap classes need a VC, the arena keeps at most
  // 16 VCs and FlitFifo::kMaxDepth slots per VC, and Duato's escape pool is
  // split evenly between the wrap classes.
  if (cfg.vcs < 2 || cfg.vcs > kMaxVcs) {
    failRange("vcs", "in [2, " + std::to_string(kMaxVcs) + "]", cfg.vcs);
  }
  if (cfg.bufferDepth < 1 || cfg.bufferDepth > FlitFifo::kMaxDepth) {
    failRange("buffer_depth", "in [1, " + std::to_string(FlitFifo::kMaxDepth) + "]",
              cfg.bufferDepth);
  }
  if (cfg.routing == RoutingMode::Adaptive &&
      (cfg.escapeVcs < 2 || cfg.escapeVcs > cfg.vcs || cfg.escapeVcs % 2 != 0)) {
    failRange("escape_vcs", "even and in [2, vcs=" + std::to_string(cfg.vcs) + "]",
              cfg.escapeVcs);
  }
  // Each range below is one the engine would otherwise wrap or misread
  // silently: Message::length is a uint16_t, Delta is cast to a uint64_t
  // cycle offset, Rng::geometric reads a NaN or negative rate as
  // "never", a rate above 1 as 1 and a rate below kMinRate as a gap that
  // may not fit 64 bits, and a NaN hotspot fraction never compares true.
  constexpr int kMaxLength = std::numeric_limits<decltype(Message::length)>::max();
  if (cfg.messageLength < 1 || cfg.messageLength > kMaxLength) {
    failRange("msg_length", "in [1, " + std::to_string(kMaxLength) + "]",
              cfg.messageLength);
  }
  // A message waiting out Delta in the software layer, or a header waiting
  // out Td in its buffer, moves no flit, so a wait as long as the watchdog
  // window reads as a deadlock.
  const auto checkWait = [&](const char* key, int wait) {
    if (wait < 0) failRange(key, ">= 0", wait);
    if (static_cast<std::uint64_t>(wait) >= cfg.deadlockWindow) {
      failRange(key,
                "below the deadlock watchdog window (" +
                    std::to_string(cfg.deadlockWindow) + " cycles)",
                wait);
    }
  };
  checkWait("delta", cfg.reinjectDelay);
  checkWait("td", cfg.routerDecisionTime);
  // At kMinRate the longest geometric gap is ~4e16 cycles, far inside 64
  // bits; much below it (about 2e-18) gaps overflow.
  constexpr double kMinRate = 1e-15;
  if (!(cfg.injectionRate == 0.0 ||
        (cfg.injectionRate >= kMinRate && cfg.injectionRate <= 1.0))) {
    failRange("rate", "0 or in [1e-15, 1]", cfg.injectionRate);
  }
  if (!(cfg.hotspotFraction >= 0.0 && cfg.hotspotFraction <= 1.0)) {
    failRange("hotspot_fraction", "in [0, 1]", cfg.hotspotFraction);
  }
  if (cfg.livelockThreshold < 0) {
    failRange("livelock_threshold", ">= 0", cfg.livelockThreshold);
  }
  if (cfg.faults.randomNodes < 0 ||
      static_cast<std::uint64_t>(cfg.faults.randomNodes) >= nodes) {
    failRange("nf", "in [0, " + std::to_string(nodes) + ")", cfg.faults.randomNodes);
  }
  for (const RegionSpec& r : cfg.faults.regions) validateRegion(cfg, r);
}

namespace {

// One appendValue per SimConfig member type, in the grammar parseValue
// reads. Doubles are written in shortest round-trip form, so the value
// parses back to the same bits.
template <DecimalInteger T>
void appendValue(std::string& out, T v) {
  appendDecimal(out, v);
}

void appendValue(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void appendValue(std::string& out, bool v) { out += v ? '1' : '0'; }

void appendValue(std::string& out, TrafficPattern p) { out += trafficPatternName(p); }

void appendValue(std::string& out, RoutingMode m) { out += routingModeName(m); }

void appendValue(std::string& out, const RegionSpec& r) {
  out += regionShapeName(r.shape);
  out += ':';
  appendDecimal(out, r.extent0);
  out += 'x';
  appendDecimal(out, r.extent1);
  for (int d = 0; d < r.anchor.dims(); ++d) {
    out += d == 0 ? '@' : ',';
    appendDecimal(out, r.anchor[d]);
  }
  if (r.dim0 != 0 || r.dim1 != 1) {
    out += '/';
    appendDecimal(out, r.dim0);
    out += ',';
    appendDecimal(out, r.dim1);
  }
}

}  // namespace

std::string describeConfig(const SimConfig& cfg) {
  std::string line;
  forEachConfigField(cfg, [&line](auto parseKey, auto, const auto& member) {
    if constexpr (!std::is_null_pointer_v<decltype(parseKey)>) {
      const auto assign = [&](const auto& value) {
        if (!line.empty()) line += ' ';
        line += parseKey;
        line += '=';
        appendValue(line, value);
      };
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(member)>,
                                   std::vector<RegionSpec>>) {
        for (const RegionSpec& r : member) assign(r);
      } else {
        assign(member);
      }
    }
  });
  return line;
}

}  // namespace swft
