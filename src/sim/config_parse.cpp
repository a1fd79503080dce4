#include "src/sim/config_parse.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/router/message.hpp"

namespace swft {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument(what); }

/// Parse `value` as an integer of the destination field's type T. A value
/// outside T's range (a negative one for an unsigned field included) is
/// rejected rather than wrapped by a narrowing cast.
template <typename T>
T parseInt(const std::string& key, const std::string& value) {
  T out{};
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    fail("config: '" + key + "' expects an integer in [" +
         std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "], got '" + value + "'");
  }
  return out;
}

double parseDouble(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double out = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return out;
  } catch (const std::exception&) {
    fail("config: '" + key + "' expects a number, got '" + value + "'");
  }
}

RegionShape parseShape(const std::string& name) {
  if (name == "I") return RegionShape::I;
  if (name == "II") return RegionShape::II;
  if (name == "rect") return RegionShape::Rect;
  if (name == "L") return RegionShape::L;
  if (name == "U") return RegionShape::U;
  if (name == "plus") return RegionShape::Plus;
  if (name == "T") return RegionShape::T;
  if (name == "H") return RegionShape::H;
  fail("config: unknown region shape '" + name + "'");
}

/// region value syntax: shape:E0xE1[@x,y], e.g. "U:4x3@2,2" or "rect:3x3".
/// The anchor keeps only the digits given; sizeRegionAnchors pads it to the
/// final `n` once every assignment is applied.
RegionSpec parseRegion(const std::string& value) {
  const auto colon = value.find(':');
  if (colon == std::string::npos) fail("config: region needs 'shape:E0xE1[@x,y]'");
  RegionSpec spec;
  spec.shape = parseShape(value.substr(0, colon));
  std::string rest = value.substr(colon + 1);
  std::string anchorPart;
  if (const auto at = rest.find('@'); at != std::string::npos) {
    anchorPart = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }
  const auto x = rest.find('x');
  if (x == std::string::npos) fail("config: region extents need 'E0xE1'");
  spec.extent0 = parseInt<int>("region", rest.substr(0, x));
  spec.extent1 = parseInt<int>("region", rest.substr(x + 1));
  if (!anchorPart.empty()) {
    std::stringstream ss(anchorPart);
    std::string digit;
    while (std::getline(ss, digit, ',')) {
      if (spec.anchor.digit.size() == spec.anchor.digit.capacity()) {
        fail("config: region anchor '" + anchorPart + "' has more than " +
             std::to_string(kMaxDims) + " digits");
      }
      spec.anchor.digit.push_back(parseInt<std::int16_t>("region anchor", digit));
    }
  }
  return spec;
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

  if (key == "k") {
    cfg.radix = parseInt<int>(key, value);
  } else if (key == "n") {
    cfg.dims = parseInt<int>(key, value);
  } else if (key == "vcs") {
    cfg.vcs = parseInt<int>(key, value);
  } else if (key == "escape_vcs") {
    cfg.escapeVcs = parseInt<int>(key, value);
  } else if (key == "buffer_depth") {
    cfg.bufferDepth = parseInt<int>(key, value);
  } else if (key == "msg_length") {
    cfg.messageLength = parseInt<int>(key, value);
  } else if (key == "rate") {
    cfg.injectionRate = parseDouble(key, value);
  } else if (key == "delta") {
    cfg.reinjectDelay = parseInt<int>(key, value);
  } else if (key == "td") {
    cfg.routerDecisionTime = parseInt<int>(key, value);
  } else if (key == "nf") {
    cfg.faults.randomNodes = parseInt<int>(key, value);
  } else if (key == "warmup") {
    cfg.warmupMessages = parseInt<std::uint32_t>(key, value);
  } else if (key == "measured") {
    cfg.measuredMessages = parseInt<std::uint32_t>(key, value);
  } else if (key == "max_cycles") {
    cfg.maxCycles = parseInt<std::uint64_t>(key, value);
  } else if (key == "seed") {
    cfg.seed = parseInt<std::uint64_t>(key, value);
  } else if (key == "livelock_threshold") {
    cfg.livelockThreshold = parseInt<int>(key, value);
  } else if (key == "routing") {
    if (value == "det" || value == "deterministic") {
      cfg.routing = RoutingMode::Deterministic;
    } else if (value == "adaptive" || value == "adp") {
      cfg.routing = RoutingMode::Adaptive;
    } else {
      fail("config: routing must be det|adaptive, got '" + value + "'");
    }
  } else if (key == "traffic" || key == "pattern") {  // `pattern` is the legacy key
    const std::optional<TrafficPattern> p = parseTrafficPattern(value);
    if (!p) fail("config: unknown traffic pattern '" + value + "'");
    cfg.pattern = *p;
  } else if (key == "hotspot_fraction") {
    cfg.hotspotFraction = parseDouble(key, value);
    if (cfg.hotspotFraction < 0.0 || cfg.hotspotFraction > 1.0) {
      fail("config: hotspot_fraction must be in [0, 1], got '" + value + "'");
    }
  } else if (key == "engine") {
    if (value == "sparse") {
      cfg.engine = EngineKind::Sparse;
    } else if (value == "sparse-mt") {
      cfg.engine = EngineKind::SparseMt;
    } else {
      fail("config: engine must be sparse|sparse-mt, got '" + value + "'");
    }
  } else if (key == "sim_threads") {
    cfg.simThreads = parseInt<int>(key, value);
    if (cfg.simThreads < 1) {
      fail("config: sim_threads must be >= 1, got '" + value + "'");
    }
  } else if (key == "phase_timers") {
    cfg.phaseTimers = parseInt<int>(key, value) != 0;
  } else if (key == "region") {
    cfg.faults.regions.push_back(parseRegion(value));
  } else {
    fail("config: unknown key '" + key + "'");
  }
}

SimConfig parseConfig(std::span<const std::string> assignments, const SimConfig& defaults) {
  SimConfig cfg = defaults;
  for (const std::string& a : assignments) applyConfigAssignment(cfg, a);
  sizeRegionAnchors(cfg);
  validateConfig(cfg);
  return cfg;
}

void validateConfig(const SimConfig& cfg) {
  // Each range below is one the engine would otherwise wrap or misread
  // silently: Message::length is a uint16_t, Delta and Td are cast to
  // uint64_t cycle offsets, and Rng::geometric reads a NaN or negative rate
  // as "never" and a rate above 1 as 1.
  constexpr int kMaxLength = std::numeric_limits<decltype(Message::length)>::max();
  if (cfg.messageLength < 1 || cfg.messageLength > kMaxLength) {
    fail("config: 'msg_length' must be in [1, " + std::to_string(kMaxLength) +
         "], got " + std::to_string(cfg.messageLength));
  }
  if (cfg.reinjectDelay < 0) {
    fail("config: 'delta' must be >= 0, got " + std::to_string(cfg.reinjectDelay));
  }
  if (cfg.routerDecisionTime < 0) {
    fail("config: 'td' must be >= 0, got " + std::to_string(cfg.routerDecisionTime));
  }
  if (!(cfg.injectionRate >= 0.0 && cfg.injectionRate <= 1.0)) {
    std::ostringstream os;
    os << "config: 'rate' must be in [0, 1], got " << cfg.injectionRate;
    fail(os.str());
  }
}

std::string describeConfig(const SimConfig& cfg) {
  std::ostringstream os;
  os << cfg.radix << "-ary " << cfg.dims << "-cube, " << cfg.routingName()
     << " routing, V=" << cfg.vcs << ", M=" << cfg.messageLength
     << ", lambda=" << cfg.injectionRate << ", traffic=" << trafficPatternName(cfg.pattern);
  if (cfg.pattern == TrafficPattern::Hotspot) {
    os << " (fraction " << cfg.hotspotFraction << ")";
  }
  os << ", nf=" << cfg.faults.randomNodes;
  if (!cfg.faults.regions.empty()) {
    os << ", regions=" << cfg.faults.regions.size();
  }
  os << ", Delta=" << cfg.reinjectDelay << ", seed=" << cfg.seed;
  return os.str();
}

}  // namespace swft
