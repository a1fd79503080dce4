// Regression tests for the injection-side message selection (paper §4,
// starvation prevention): an absorbed message that finds every injection VC
// busy must stay at the *front of the messaging-layer queue* with its
// readyCycle intact — the seed engine pushed it into the source queue, where
// it lost its absorbed-over-new priority against later absorptions.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/network.hpp"

namespace swft {

struct NetworkTestAccess {
  static NodeState& node(Network& net, NodeId id) { return net.nodes_[id]; }
  static RouterArena& arena(Network& net) { return net.arena_; }
  static void runInjection(Network& net, NodeId id) { net.stepInjection(id); }
  static void setCycle(Network& net, std::uint64_t c) { net.cycle_ = c; }
  static void runGeneration(Network& net, NodeId id) { net.stepGeneration(id); }
  static MsgId take(Network& net, NodeId id) { return net.takeQueuedMessage(id); }
  static const TrafficGenerator& traffic(const Network& net) { return net.traffic_; }
  // Queue a message at `src` and give it a pool slot at once, as injection
  // does, without streaming it: the slot id a flit or the messaging layer
  // would hold.
  static MsgId slotMessage(Network& net, NodeId src, NodeId dest, int length) {
    net.injectTestMessage(src, dest, length, RoutingMode::Deterministic);
    return net.takeQueuedMessage(src);
  }
};

namespace {

SimConfig quietConfig() {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 4;
  cfg.injectionRate = 0.0;  // no background traffic: full manual control
  cfg.warmupMessages = 0;
  return cfg;
}

TEST(InjectionRequeue, BusyVcsLeaveAbsorbedMessageQueuedWithReadyCycle) {
  Network net(quietConfig());
  const int injPort = net.topology().localPort();
  RouterArena& arena = NetworkTestAccess::arena(net);
  NodeState& node = NetworkTestAccess::node(net, 0);

  // An "absorbed" message waiting in the messaging-layer queue (readyCycle 5)
  // and a competing new message in the source queue.
  const MsgId absorbed = NetworkTestAccess::slotMessage(net, 0, 5, 4);
  node.swQueue.push_back(PendingReinjection{absorbed, 5});
  const std::uint32_t fresh = net.injectTestMessage(0, 6, 4, RoutingMode::Deterministic);

  // Both injection VCs hold flits of other messages: no VC is allocatable.
  const MsgId fillerA = NetworkTestAccess::slotMessage(net, 1, 2, 1);
  const MsgId fillerB = NetworkTestAccess::slotMessage(net, 2, 3, 1);
  arena.push(0, arena.unitIndex(0, injPort, 0), Flit{fillerA, FlitKind::Header}, 0);
  arena.push(0, arena.unitIndex(0, injPort, 1), Flit{fillerB, FlitKind::Header}, 0);

  NetworkTestAccess::setCycle(net, 10);  // the absorbed message is ready
  NetworkTestAccess::runInjection(net, 0);

  EXPECT_EQ(node.streaming, kInvalidMsg) << "nothing must start streaming";
  ASSERT_EQ(node.swQueue.size(), 1u)
      << "the absorbed message must stay in the messaging-layer queue";
  EXPECT_EQ(node.swQueue.front().msg, absorbed);
  EXPECT_EQ(node.swQueue.front().readyCycle, 5u) << "readyCycle must survive";
  ASSERT_EQ(node.sourceQueue.size(), 1u);
  EXPECT_EQ(node.sourceQueue.front(), fresh)
      << "the source queue must not receive the absorbed message";

  // Free one VC: the absorbed message must win over the queued new one.
  arena.pop(0, arena.unitIndex(0, injPort, 0));
  NetworkTestAccess::runInjection(net, 0);
  EXPECT_EQ(node.streaming, absorbed);
  EXPECT_TRUE(node.swQueue.empty());
  ASSERT_EQ(node.sourceQueue.size(), 1u);
  EXPECT_EQ(node.sourceQueue.front(), fresh);
}

TEST(InjectionRequeue, NotReadyAbsorbedMessageDoesNotBlockNewOnes) {
  Network net(quietConfig());
  NodeState& node = NetworkTestAccess::node(net, 0);

  const MsgId absorbed = NetworkTestAccess::slotMessage(net, 0, 5, 4);
  node.swQueue.push_back(PendingReinjection{absorbed, 100});  // far future
  const std::uint32_t fresh = net.injectTestMessage(0, 6, 4, RoutingMode::Deterministic);

  NetworkTestAccess::setCycle(net, 10);
  NetworkTestAccess::runInjection(net, 0);
  ASSERT_NE(node.streaming, kInvalidMsg) << "a not-yet-ready reinjection must not stall";
  EXPECT_EQ(net.pool().get(node.streaming).seq, fresh);
  EXPECT_TRUE(node.sourceQueue.empty());
  ASSERT_EQ(node.swQueue.size(), 1u);
  EXPECT_EQ(node.swQueue.front().readyCycle, 100u);
}

// A node's source queue holds generated and explicit messages mixed, as
// sequence numbers. Taken in queue order, each explicit message comes out
// with its own record, and each generated one with the destination and
// generation cycle a hand-stepped copy of the node's generator draws:
// pickDestination, then the geometric gap to the next event.
TEST(InjectionRequeue, MixedExplicitAndGeneratedMessagesKeepTheirRecords) {
  SimConfig cfg = quietConfig();
  cfg.injectionRate = 0.05;
  Network net(cfg);
  const NodeId src = 0;
  Rng hand = net.node(src).rng;
  std::uint64_t handNext = net.node(src).nextGenCycle;
  const auto generateAt = [&](std::uint64_t cycle) {
    NetworkTestAccess::setCycle(net, cycle);
    NetworkTestAccess::runGeneration(net, src);
  };

  // Queue: explicit A, generated G1, explicit B, generated G2.
  const std::uint64_t firstEvent = net.node(src).nextGenCycle;
  NetworkTestAccess::setCycle(net, firstEvent - 1);  // geometric gaps are >= 1
  const std::uint64_t cycleA = net.now();
  const std::uint32_t seqA = net.injectTestMessage(src, 5, 3, RoutingMode::Adaptive);
  generateAt(firstEvent);
  const std::uint32_t seqB = net.injectTestMessage(src, 9, 7, RoutingMode::Deterministic);
  generateAt(net.node(src).nextGenCycle);
  ASSERT_EQ(net.node(src).sourceQueue.size(), 4u);
  ASSERT_EQ(net.validateInvariants(), "");

  std::vector<std::uint32_t> seqs;
  for (std::size_t i = 0; i < 4; ++i) seqs.push_back(net.node(src).sourceQueue[i]);
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1, 2, 3}));

  const auto expectGenerated = [&](std::uint32_t seq) {
    const Message m = net.pool().get(NetworkTestAccess::take(net, src));
    NodeId dest = kInvalidNode;
    std::uint64_t genCycle = 0;
    while (dest == kInvalidNode) {
      dest = NetworkTestAccess::traffic(net).pickDestination(src, hand);
      genCycle = handNext;
      handNext += hand.geometric(cfg.injectionRate);
    }
    EXPECT_EQ(m.seq, seq);
    EXPECT_EQ(m.src, src);
    EXPECT_EQ(m.finalDest, dest);
    EXPECT_EQ(m.curTarget, dest);
    EXPECT_EQ(m.genCycle, genCycle);
    EXPECT_EQ(m.length, cfg.messageLength);
    EXPECT_EQ(m.mode, cfg.routing);
  };
  const auto expectExplicit = [&](std::uint32_t seq, NodeId dest, std::uint64_t genCycle,
                                  int length, RoutingMode mode) {
    const Message m = net.pool().get(NetworkTestAccess::take(net, src));
    EXPECT_EQ(m.seq, seq);
    EXPECT_EQ(m.finalDest, dest);
    EXPECT_EQ(m.curTarget, dest);
    EXPECT_EQ(m.genCycle, genCycle);
    EXPECT_EQ(m.length, length);
    EXPECT_EQ(m.mode, mode);
  };
  expectExplicit(seqA, 5, cycleA, 3, RoutingMode::Adaptive);
  expectGenerated(seqs[1]);
  expectExplicit(seqB, 9, firstEvent, 7, RoutingMode::Deterministic);
  expectGenerated(seqs[3]);
  EXPECT_TRUE(net.node(src).sourceQueue.empty());
  EXPECT_EQ(handNext, net.node(src).nextGenCycle) << "both generated events replayed";
  EXPECT_TRUE(hand == net.node(src).rng);
  EXPECT_EQ(net.validateInvariants(), "");
}

// The seed chose the injection VC with `static_cast<int>(rng + i) % V`, which
// is negative for half of all draws — silently probing (and claiming) units
// of *network* ports as injection channels. The rotation draw is now a single
// unsigned draw; the streamed VC must always be a real injection VC.
TEST(InjectionRequeue, StreamVcAlwaysWithinInjectionRange) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 3;
  cfg.messageLength = 6;
  cfg.injectionRate = 0.03;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  Network net(cfg);
  for (int c = 0; c < 400; ++c) {
    net.step(1);
    for (NodeId id = 0; id < net.topology().nodeCount(); ++id) {
      const int vc = net.node(id).streamVc;
      ASSERT_TRUE(vc == -1 || (vc >= 0 && vc < cfg.vcs))
          << "node " << id << " streams into VC " << vc << " at cycle " << c;
    }
  }
  EXPECT_EQ(net.validateInvariants(), "");
}

}  // namespace
}  // namespace swft
