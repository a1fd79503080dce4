// Processing-element side of a node: message generation, the source queue,
// and the messaging-layer queue of absorbed messages awaiting re-injection
// (paper assumptions (a), (d), (i)).
#pragma once

#include <cstdint>

#include "src/router/message.hpp"
#include "src/util/ring_queue.hpp"
#include "src/util/rng.hpp"

namespace swft {

/// A generated message waiting at its source. It holds only what the
/// message's pool slot is filled from when injection starts
/// (Network::takeQueuedMessage); the source is the queue's own node.
struct QueuedMessage {
  std::uint64_t genCycle = 0;
  NodeId dest = kInvalidNode;
  std::uint32_t seq = 0;
  std::uint16_t length = 1;
  RoutingMode mode = RoutingMode::Deterministic;
};
static_assert(sizeof(QueuedMessage) <= 24);

struct PendingReinjection {
  MsgId msg = kInvalidMsg;
  std::uint64_t readyCycle = 0;
};

struct NodeState {
  /// Locally generated messages waiting to enter the network, as records:
  /// none holds a pool slot yet. Both queues own no storage until their
  /// first push, so an idle node allocates nothing.
  RingQueue<QueuedMessage> sourceQueue;
  /// Absorbed messages being held by the messaging layer for Δ cycles.
  /// FIFO: Δ is constant, so the queue stays sorted by readyCycle.
  RingQueue<PendingReinjection> swQueue;

  /// Message currently being streamed into an injection virtual channel.
  MsgId streaming = kInvalidMsg;
  int streamVc = -1;
  int nextFlit = 0;
  /// Length of the streaming message, cached so per-flit kind computation
  /// does not re-read the message pool (sparse engine).
  std::uint16_t streamLen = 0;

  /// Next cycle at which the Poisson (geometric inter-arrival) source fires.
  std::uint64_t nextGenCycle = 0;

  /// Per-node random stream: generation times, destinations.
  Rng rng;

  [[nodiscard]] std::size_t queuedMessages() const noexcept {
    return sourceQueue.size() + swQueue.size();
  }
};
static_assert(sizeof(NodeState) == 120);

}  // namespace swft
