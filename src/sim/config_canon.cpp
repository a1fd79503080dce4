#include "src/sim/config_canon.hpp"

#include <array>
#include <bit>
#include <type_traits>
#include <vector>

#include "src/fault/regions.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/fnv.hpp"
#include "src/util/text.hpp"

namespace swft {

namespace {

// One key value per SimConfig member type; a list is its elements, each
// followed by ';'.
template <DecimalInteger T>
void appendKeyValue(std::string& k, T v) {
  appendDecimal(k, v);
}

void appendKeyValue(std::string& k, double v) {
  // Canonicalize the zero sign: -0.0 and +0.0 compare equal and behave
  // identically in every config field, but their bit patterns differ.
  if (v == 0.0) v = 0.0;
  appendHex16(k, std::bit_cast<std::uint64_t>(v));
}

void appendKeyValue(std::string& k, TrafficPattern p) { k += trafficPatternName(p); }

void appendKeyValue(std::string& k, RoutingMode m) { k += routingModeName(m); }

void appendKeyValue(std::string& k, const RegionSpec& r) {
  const auto num = [&k](char sep, int v) {
    k += sep;
    appendDecimal(k, v);
  };
  k += regionShapeName(r.shape);
  num(':', r.dim0);
  num('.', r.dim1);
  num(':', r.extent0);
  num('x', r.extent1);
  k += '@';
  for (int d = 0; d < r.anchor.dims(); ++d) {
    if (d != 0) k += ',';
    appendDecimal(k, r.anchor[d]);
  }
}

void appendKeyValue(std::string& k, const std::array<std::uint32_t, 3>& link) {
  for (std::size_t i = 0; i < link.size(); ++i) {
    if (i != 0) k += '.';
    appendDecimal(k, link[i]);
  }
}

template <class T>
void appendKeyValue(std::string& k, const std::vector<T>& list) {
  for (const T& e : list) {
    appendKeyValue(k, e);
    k += ';';
  }
}

}  // namespace

std::string exactDoubleToken(double v) {
  std::string out;
  appendKeyValue(out, v);
  return out;
}

std::string canonicalConfigKey(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  std::string k;
  k.reserve(320);
  k += "swft-cfg-v1|sem=";
  appendDecimal(k, semanticsVersion);
  forEachConfigField(cfg, [&k](auto, auto tag, const auto& member) {
    if constexpr (!std::is_null_pointer_v<decltype(tag)>) {
      k += tag;
      appendKeyValue(k, member);
    }
  });
  return k;
}

std::uint64_t canonicalConfigHash(const SimConfig& cfg, std::uint32_t semanticsVersion) {
  return fnv1a64(canonicalConfigKey(cfg, semanticsVersion));
}

}  // namespace swft
