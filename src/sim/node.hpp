// Processing-element side of a node: message generation, the source queue,
// and the messaging-layer queue of absorbed messages awaiting re-injection
// (paper assumptions (a), (d), (i)).
#pragma once

#include <cstdint>

#include "src/router/message.hpp"
#include "src/util/ring_queue.hpp"
#include "src/util/rng.hpp"

namespace swft {

/// A message queued by Network::injectTestMessage. A generated message's
/// destination and generation cycle are recomputed from its node's
/// generator when injection starts (NodeState::replayRng); an explicit one
/// has no generator to replay, so the network keeps this record of it until
/// Network::takeQueuedMessage fills its pool slot from it.
struct QueuedMessage {
  std::uint64_t genCycle = 0;
  NodeId dest = kInvalidNode;
  std::uint32_t seq = 0;
  std::uint16_t length = 1;
  RoutingMode mode = RoutingMode::Deterministic;
};

struct PendingReinjection {
  MsgId msg = kInvalidMsg;
  std::uint64_t readyCycle = 0;
};

struct NodeState {
  /// Sequence numbers of the messages waiting to enter the network, oldest
  /// first: none holds a pool slot yet, and a generated one is replayed
  /// from replayRng when its injection starts. Both queues own no storage
  /// until their first push, so an idle node allocates nothing.
  RingQueue<std::uint32_t> sourceQueue;
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

  /// A second copy of the generator (rng, nextGenCycle), kept at the
  /// node's oldest queued generated message: the generator draws nothing
  /// from network state, so stepping this copy gives back each queued
  /// message's destination and generation cycle in queue order.
  Rng replayRng;
  std::uint64_t replayNextGen = 0;

  [[nodiscard]] std::size_t queuedMessages() const noexcept {
    return sourceQueue.size() + swQueue.size();
  }
};
static_assert(sizeof(decltype(NodeState::sourceQueue)::value_type) == 4,
              "a queued generated message costs one 4-byte sequence number");
static_assert(sizeof(NodeState) == 160);

}  // namespace swft
