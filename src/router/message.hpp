// Message (packet) state, including the header fields the Software-Based
// scheme rewrites when the messaging layer re-routes an absorbed message.
#pragma once

#include <cstdint>

#include "src/router/flit.hpp"
#include "src/topology/coordinates.hpp"

namespace swft {

/// Which routing family drives the message (paper §4): deterministic
/// (e-cube-based) or Duato fully adaptive. An adaptive message that is
/// absorbed by a fault is downgraded to Deterministic for the rest of its
/// life ("from this point, faulted messages are always routed using
/// detRouting2D").
enum class RoutingMode : std::uint8_t { Deterministic = 0, Adaptive = 1 };

inline constexpr std::int8_t kNoOverride = 0;

// Fields are ordered so the message fits one 64-byte cache line.
struct Message {
  // --- identity / workload -------------------------------------------------
  std::uint64_t genCycle = 0;     // when the PE generated it
  NodeId src = kInvalidNode;
  NodeId finalDest = kInvalidNode;
  std::uint32_t seq = 0;          // global generation sequence number
  std::uint16_t length = 1;       // flits, header included
  RoutingMode mode = RoutingMode::Deterministic;

  // --- software-based routing header state ---------------------------------
  /// True iff curTarget is a software intermediate: the message is absorbed
  /// there and re-routed, rather than consumed.
  bool absorbAtTarget = false;
  /// Current routing target: the final destination, or an intermediate node
  /// address computed by the messaging layer (assumption (i), option ii).
  NodeId curTarget = kInvalidNode;
  /// Second leg of a two-leg detour (used when the sidestep dimension is
  /// lower than the blocked dimension, where a single intermediate would be
  /// undone immediately by dimension-order routing). Promoted to curTarget
  /// when the first leg completes.
  NodeId pendingTarget = kInvalidNode;
  /// Per-dimension ring-direction override: 0 = minimal, +1 / -1 = forced
  /// direction (assumption (i), option i: "modifies the header so the
  /// message may follow an alternative path").
  std::int8_t dirOverride[kMaxDims] = {};
  /// Wrap-around crossing flags, one bit per dimension; selects the
  /// Dally-Seitz virtual-channel class. Reset at every (re-)injection.
  std::uint8_t wrappedMask = 0;

  // --- fault bookkeeping ----------------------------------------------------
  bool blockedValid = false;  // the absorption was caused by a faulty link
  std::uint8_t blockedDim = 0;
  std::int8_t blockedDirStep = 0;
  std::uint16_t absorptions = 0;       // software absorption events so far
  std::uint8_t consecutiveDetours = 0; // orthogonal detours without progress
  std::int8_t lastDetourDim = -1;      // boundary-following memory
  std::int8_t lastDetourDirStep = 0;

  // --- transport progress ---------------------------------------------------
  std::uint16_t flitsEjected = 0;  // consumed at an ejection channel
  std::uint32_t hops = 0;          // header link traversals (all segments)
  /// Cycle the header entered the buffer it occupies (or last occupied):
  /// written wherever a header is pushed, read by the router decision time
  /// (Td) gate.
  std::uint64_t headerArrival = 0;

  [[nodiscard]] bool wrapped(int dim) const noexcept {
    return (wrappedMask >> dim) & 1u;
  }
  void setWrapped(int dim) noexcept { wrappedMask |= static_cast<std::uint8_t>(1u << dim); }
  void resetTransit() noexcept { wrappedMask = 0; }

  [[nodiscard]] FlitKind flitKindAt(int index) const noexcept {
    return swft::flitKindAt(index, length);
  }
};
static_assert(sizeof(Message) == 64);

}  // namespace swft
