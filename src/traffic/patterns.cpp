#include "src/traffic/patterns.hpp"

namespace swft {

namespace {

[[nodiscard]] constexpr bool isPowerOfTwo(int k) noexcept { return k > 0 && (k & (k - 1)) == 0; }

[[nodiscard]] constexpr int log2Exact(int k) noexcept {
  int b = 0;
  while ((1 << b) < k) ++b;
  return b;
}

}  // namespace

std::string_view trafficPatternName(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::Uniform: return "uniform";
    case TrafficPattern::Transpose: return "transpose";
    case TrafficPattern::BitComplement: return "bitcomp";
    case TrafficPattern::BitReversal: return "bitrev";
    case TrafficPattern::Shuffle: return "shuffle";
    case TrafficPattern::Tornado: return "tornado";
    case TrafficPattern::Hotspot: return "hotspot";
  }
  return "?";
}

std::optional<TrafficPattern> parseTrafficPattern(std::string_view name) noexcept {
  for (const TrafficPattern p : kAllTrafficPatterns) {
    if (name == trafficPatternName(p)) return p;
  }
  return std::nullopt;
}

TrafficGenerator::TrafficGenerator(TrafficPattern pattern, const FaultSet& faults,
                                   double hotspotFraction)
    : pattern_(pattern),
      faults_(&faults),
      healthy_(faults.healthyNodes()),
      hotspotFraction_(hotspotFraction) {
  if (!healthy_.empty()) hotspot_ = healthy_[healthy_.size() / 2];
  const TorusTopology& topo = faults.topology();
  if (isPowerOfTwo(topo.radix())) {
    addressBits_ = topo.dims() * log2Exact(topo.radix());
  }
}

NodeId TrafficGenerator::permutationGuard(NodeId src, NodeId dest) const {
  if (dest == src || faults_->nodeFaulty(dest)) return kInvalidNode;
  return dest;
}

NodeId TrafficGenerator::pickDestination(NodeId src, Rng& rng) const {
  const TorusTopology& topo = faults_->topology();
  switch (pattern_) {
    case TrafficPattern::Uniform: {
      if (healthy_.size() < 2) return kInvalidNode;
      for (;;) {
        const NodeId d = healthy_[rng.uniform(static_cast<std::uint32_t>(healthy_.size()))];
        if (d != src) return d;
      }
    }
    case TrafficPattern::Transpose: {
      Coordinates c = topo.coordsOf(src);
      Coordinates t = c;
      for (int d = 0; d < topo.dims(); ++d) t[d] = c[(d + 1) % topo.dims()];
      return permutationGuard(src, topo.idOf(t));
    }
    case TrafficPattern::BitComplement: {
      Coordinates c = topo.coordsOf(src);
      for (int d = 0; d < topo.dims(); ++d) {
        c[d] = static_cast<std::int16_t>(topo.radix() - 1 - c[d]);
      }
      return permutationGuard(src, topo.idOf(c));
    }
    case TrafficPattern::BitReversal: {
      // Power-of-two radix: reverse the n*log2(k)-bit address. Otherwise the
      // address has no binary digit decomposition, so fall back to reversing
      // the base-k digit order (dimension reversal) — the same map for n=2.
      if (addressBits_ > 0) {
        NodeId rev = 0;
        for (int b = 0; b < addressBits_; ++b) {
          rev = static_cast<NodeId>((rev << 1) | ((src >> b) & 1u));
        }
        return permutationGuard(src, rev);
      }
      const Coordinates c = topo.coordsOf(src);
      Coordinates t = c;
      for (int d = 0; d < topo.dims(); ++d) t[d] = c[topo.dims() - 1 - d];
      return permutationGuard(src, topo.idOf(t));
    }
    case TrafficPattern::Shuffle: {
      // Perfect shuffle: rotate the address left by one bit; for a non-binary
      // radix, rotate the base-k digit string left by one digit instead.
      if (addressBits_ > 0) {
        const NodeId top = (src >> (addressBits_ - 1)) & 1u;
        const NodeId mask = (NodeId{1} << addressBits_) - 1u;
        return permutationGuard(src, ((src << 1) & mask) | top);
      }
      const Coordinates c = topo.coordsOf(src);
      Coordinates t = c;
      for (int d = 0; d < topo.dims(); ++d) t[d] = c[(d + 1) % topo.dims()];
      return permutationGuard(src, topo.idOf(t));
    }
    case TrafficPattern::Tornado: {
      // Dally & Towles: each digit moves just under half-way around its ring,
      // stressing the wrap links in one direction.
      const int offset = (topo.radix() + 1) / 2 - 1;
      Coordinates c = topo.coordsOf(src);
      for (int d = 0; d < topo.dims(); ++d) {
        c[d] = static_cast<std::int16_t>((c[d] + offset) % topo.radix());
      }
      return permutationGuard(src, topo.idOf(c));
    }
    case TrafficPattern::Hotspot: {
      if (hotspot_ != src && !faults_->nodeFaulty(hotspot_) &&
          rng.uniform01() < hotspotFraction_) {
        return hotspot_;
      }
      if (healthy_.size() < 2) return kInvalidNode;
      for (;;) {
        const NodeId d = healthy_[rng.uniform(static_cast<std::uint32_t>(healthy_.size()))];
        if (d != src) return d;
      }
    }
  }
  return kInvalidNode;
}

}  // namespace swft
