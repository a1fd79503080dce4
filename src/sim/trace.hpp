// Per-message event tracing.
//
// When a TraceRecorder is attached to a Network, the engine records every
// injection, header link traversal, software absorption, re-injection and
// delivery. Tests use the traces to verify *path-level* properties that
// aggregate statistics cannot see: that every in-network segment of a
// deterministic message is dimension-ordered (the premise of the paper's
// deadlock-freedom argument), that fault-free adaptive hops are minimal,
// and that absorption/re-injection pairs alternate correctly.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/router/flit.hpp"
#include "src/topology/coordinates.hpp"

namespace swft {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    Inject,    // first flit of a fresh message enters an injection buffer
    Hop,       // header crosses a network link (node -> neighbor via port)
    Absorb,    // tail ejected into the messaging layer due to a fault
    Reinject,  // absorbed message re-enters an injection buffer
    Deliver,   // tail ejected at the final destination PE
  };

  Kind kind = Kind::Inject;
  std::uint64_t cycle = 0;
  NodeId node = kInvalidNode;  // where the event happened
  std::uint8_t port = 0;       // Hop only: output port taken
  std::uint32_t seq = 0;       // message generation sequence number
};

class TraceRecorder {
 public:
  void record(TraceEvent event) {
    byMessage_[event.seq].push_back(event);
    ++count_;
  }

  [[nodiscard]] const std::vector<TraceEvent>& eventsFor(std::uint32_t seq) const {
    static const std::vector<TraceEvent> kEmpty;
    const auto it = byMessage_.find(seq);
    return it == byMessage_.end() ? kEmpty : it->second;
  }

  [[nodiscard]] std::size_t messageCount() const noexcept { return byMessage_.size(); }
  [[nodiscard]] std::size_t eventCount() const noexcept { return count_; }

  /// Sequence numbers of all traced messages (unordered).
  [[nodiscard]] std::vector<std::uint32_t> tracedMessages() const {
    std::vector<std::uint32_t> out;
    out.reserve(byMessage_.size());
    for (const auto& [seq, events] : byMessage_) out.push_back(seq);
    return out;
  }

  void clear() {
    byMessage_.clear();
    count_ = 0;
  }

 private:
  std::unordered_map<std::uint32_t, std::vector<TraceEvent>> byMessage_;
  std::size_t count_ = 0;
};

}  // namespace swft
