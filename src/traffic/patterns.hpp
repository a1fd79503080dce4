// Traffic patterns. The paper evaluates uniform random traffic (assumption
// (a)); the classical permutations are provided as extensions and exercised
// by tests, the ablation experiments, and the beyond-paper workloads
// (scan_radix, faultscape).
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "src/fault/fault_set.hpp"
#include "src/util/rng.hpp"

namespace swft {

enum class TrafficPattern : std::uint8_t {
  Uniform,        // destination uniform over healthy nodes != src
  Transpose,      // (x, y, ...) -> digits rotated by one dimension
  BitComplement,  // digit a -> k-1-a in every dimension
  BitReversal,    // address bits reversed (digit order reversed if k not 2^b)
  Shuffle,        // address bits rotated left by one (digits if k not 2^b)
  Tornado,        // digit a -> (a + ceil(k/2) - 1) mod k in every dimension
  Hotspot,        // uniform, but a fraction of traffic targets one node
};

/// Every pattern, in declaration order — the single source for iteration
/// (CLI help, `swft_bench --list`, exhaustiveness tests).
inline constexpr std::array<TrafficPattern, 7> kAllTrafficPatterns = {
    TrafficPattern::Uniform,   TrafficPattern::Transpose, TrafficPattern::BitComplement,
    TrafficPattern::BitReversal, TrafficPattern::Shuffle, TrafficPattern::Tornado,
    TrafficPattern::Hotspot,
};

/// Canonical config token for a pattern. Inverse of parseTrafficPattern:
/// `parseTrafficPattern(trafficPatternName(p)) == p` for every pattern, so
/// the CLI, the config parser and `swft_bench --list` can never drift.
[[nodiscard]] std::string_view trafficPatternName(TrafficPattern p) noexcept;

/// Parse a canonical pattern token. Returns nullopt for unknown tokens.
[[nodiscard]] std::optional<TrafficPattern> parseTrafficPattern(std::string_view name) noexcept;

/// Destination chooser. Deterministic permutations returning the source
/// itself or a faulty node yield kInvalidNode (the PE skips that message),
/// mirroring the convention that faulty PEs neither send nor receive.
class TrafficGenerator {
 public:
  TrafficGenerator(TrafficPattern pattern, const FaultSet& faults, double hotspotFraction = 0.1);

  [[nodiscard]] NodeId pickDestination(NodeId src, Rng& rng) const;
  [[nodiscard]] TrafficPattern pattern() const noexcept { return pattern_; }

 private:
  [[nodiscard]] NodeId permutationGuard(NodeId src, NodeId dest) const;

  TrafficPattern pattern_;
  const FaultSet* faults_;
  std::vector<NodeId> healthy_;
  NodeId hotspot_ = kInvalidNode;
  double hotspotFraction_;
  int addressBits_ = 0;  // log2(k^n) when k is a power of two, else 0
};

}  // namespace swft
