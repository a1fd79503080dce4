#include <gtest/gtest.h>

#include "src/sim/network.hpp"

namespace swft {

struct NetworkTestAccess {
  static void setGenSeq(Network& net, std::uint32_t seq) { net.genSeq_ = seq; }
};

namespace {

NodeId at(const TorusTopology& topo, std::initializer_list<int> digits) {
  Coordinates c;
  c.digit.resize(digits.size());
  int i = 0;
  for (int d : digits) c[i++] = static_cast<std::int16_t>(d);
  return topo.idOf(c);
}

SimConfig quietConfig(int k, int n, int vcs = 4) {
  SimConfig cfg;
  cfg.radix = k;
  cfg.dims = n;
  cfg.vcs = vcs;
  cfg.injectionRate = 0.0;  // no background traffic
  cfg.warmupMessages = 0;
  cfg.measuredMessages = 1;
  cfg.maxCycles = 50'000;
  return cfg;
}

TEST(NetworkBasics, ConstructionAppliesFaultSpec) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.faults.explicitNodes = {7, 13};
  const Network net(cfg);
  EXPECT_TRUE(net.faults().nodeFaulty(7));
  EXPECT_TRUE(net.faults().nodeFaulty(13));
  EXPECT_EQ(net.faults().faultyNodeCount(), 2);
}

TEST(NetworkBasics, RejectsDisconnectingFaultPattern) {
  SimConfig cfg = quietConfig(8, 2);
  const TorusTopology topo(8, 2);
  const NodeId centre = at(topo, {4, 4});
  for (int port = 0; port < topo.networkPorts(); ++port) {
    cfg.faults.explicitNodes.push_back(topo.neighbor(centre, port));
  }
  EXPECT_THROW(Network net(cfg), std::runtime_error);
}

TEST(NetworkBasics, SingleMessageDeliveredWithPipelinedLatency) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.messageLength = 4;
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  net.injectTestMessage(at(topo, {0, 0}), at(topo, {3, 0}), 4, RoutingMode::Deterministic);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 3.0);
  // Wormhole pipelining: ~hops + M cycles, small constant slack allowed.
  EXPECT_GE(r.meanLatency, 3 + 4 - 1);
  EXPECT_LE(r.meanLatency, 3 + 4 + 4);
}

TEST(NetworkBasics, LatencyScalesWithMessageLength) {
  for (const int len : {8, 16, 32}) {
    SimConfig cfg = quietConfig(8, 2);
    Network net(cfg);
    const TorusTopology& topo = net.topology();
    net.injectTestMessage(at(topo, {0, 0}), at(topo, {2, 2}), len,
                          RoutingMode::Deterministic);
    const SimResult r = net.run();
    ASSERT_EQ(r.deliveredTotal, 1u);
    EXPECT_GE(r.meanLatency, 4 + len - 1);
    EXPECT_LE(r.meanLatency, 4 + len + 4);
  }
}

TEST(NetworkBasics, MessageCrossingWrapUsesWrapClass) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.messageLength = 2;
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  // 6 -> 1 in dim 0: minimal route crosses the wrap (6,7,0,1).
  net.injectTestMessage(at(topo, {6, 0}), at(topo, {1, 0}), 2, RoutingMode::Deterministic);
  const SimResult r = net.run();
  EXPECT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 3.0);
}

TEST(NetworkBasics, AdaptiveSingleMessageTakesMinimalPath) {
  SimConfig cfg = quietConfig(8, 2, 6);
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 5}), 8, RoutingMode::Adaptive);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 7.0) << "3 hops in x + 4 hops in y, any interleaving";
  EXPECT_EQ(r.messagesQueued, 0u);
}

TEST(NetworkBasics, BlockedMessageIsAbsorbedAndStillDelivered) {
  SimConfig cfg = quietConfig(8, 2);
  const TorusTopology topo(8, 2);
  // Wall in front of the e-cube path.
  cfg.faults.explicitNodes = {at(topo, {2, 1})};
  cfg.messageLength = 4;
  Network net(cfg);
  net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 1}), 4, RoutingMode::Deterministic);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_GE(r.messagesQueued, 1u) << "the fault forces at least one absorption";
  EXPECT_GE(r.reversals, 1u) << "first recovery step is the same-dim reversal";
  EXPECT_GT(r.meanHops, 3.0) << "the detour is non-minimal";
  EXPECT_EQ(r.escalations, 0u);
  EXPECT_FALSE(r.deadlockSuspected);
}

TEST(NetworkBasics, ReinjectionDelayAddsToLatency) {
  const TorusTopology topo(8, 2);
  double latency[2];
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = quietConfig(8, 2);
    cfg.faults.explicitNodes = {at(topo, {2, 1})};
    cfg.reinjectDelay = i == 0 ? 0 : 50;
    Network net(cfg);
    net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 1}), 4,
                          RoutingMode::Deterministic);
    const SimResult r = net.run();
    EXPECT_EQ(r.deliveredTotal, 1u);
    latency[i] = r.meanLatency;
  }
  // Delta = 0 already implies a 1-cycle software turnaround, so the
  // incremental cost of Delta = 50 is 49 extra cycles per absorption.
  EXPECT_GE(latency[1], latency[0] + 49) << "Delta cycles per absorption (assumption i)";
}

TEST(NetworkBasics, InjectTestMessageRejectsFaultyEndpoints) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.faults.explicitNodes = {5};
  Network net(cfg);
  EXPECT_THROW(net.injectTestMessage(5, 9, 4, RoutingMode::Deterministic),
               std::invalid_argument);
  EXPECT_THROW(net.injectTestMessage(9, 5, 4, RoutingMode::Deterministic),
               std::invalid_argument);
}

TEST(NetworkBasics, StepAdvancesClock) {
  SimConfig cfg = quietConfig(4, 2);
  Network net(cfg);
  EXPECT_EQ(net.now(), 0u);
  net.step(10);
  EXPECT_EQ(net.now(), 10u);
}

TEST(NetworkBasics, SnapshotConservationInvariant) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.injectionRate = 0.01;
  cfg.warmupMessages = 100;
  cfg.measuredMessages = 500;
  Network net(cfg);
  const SimResult r = net.run();
  EXPECT_TRUE(r.completed);
  // Every generated message is delivered or still alive (in flight/queued).
  EXPECT_EQ(r.generatedTotal, r.deliveredTotal + net.inFlight());
  EXPECT_FALSE(r.deadlockSuspected);
}

TEST(NetworkBasics, TdDelaysEveryHop) {
  // Router decision time Td adds ~Td cycles per hop to a lone message.
  double latency[2];
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = quietConfig(8, 2);
    cfg.routerDecisionTime = i == 0 ? 0 : 2;
    Network net(cfg);
    const TorusTopology& topo = net.topology();
    net.injectTestMessage(at(topo, {0, 0}), at(topo, {3, 0}), 4,
                          RoutingMode::Deterministic);
    latency[i] = net.run().meanLatency;
  }
  EXPECT_GT(latency[1], latency[0]);
}

// Message::seq is 32 bits, and statistics read `seq >= warmupMessages` as
// "measured": a wrapped counter would silently count message 2^32 as
// warm-up. The last sequence number is handed out; the next message throws
// naming the limit.
TEST(NetworkBasics, RefusesToWrapTheSequenceCounter) {
  Network net(quietConfig(4, 2));
  NetworkTestAccess::setGenSeq(net, static_cast<std::uint32_t>(Network::kMaxMessages - 1));
  EXPECT_EQ(net.injectTestMessage(0, 5, 4, RoutingMode::Deterministic),
            Network::kMaxMessages - 1);
  try {
    net.injectTestMessage(0, 5, 4, RoutingMode::Deterministic);
    FAIL() << "message 2^32 must not get a wrapped sequence number";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("4294967295"), std::string::npos) << e.what();
  }
  EXPECT_EQ(net.generated(), 1u) << "the refused message is not counted";
  EXPECT_EQ(net.node(0).sourceQueue.size(), 1u) << "nor queued";
}

// A saturated source backlog waits as QueuedMessage records: only messages
// that are injecting (at most one per node), held by the messaging layer, or
// have a flit in some buffer hold a pool slot. So the pool's high-water mark
// stays under that bound while the backlog grows well past it. An 8-ary
// 2-cube with V=4 and M=32 at rate 0.03 runs about 2.5x past its knee.
TEST(NetworkBasics, SaturatedPoolHoldsOnlyInjectedMessages) {
  SimConfig cfg = quietConfig(8, 2, 4);
  cfg.messageLength = 32;
  cfg.injectionRate = 0.03;
  cfg.measuredMessages = ~std::uint32_t{0};
  cfg.seed = 3;
  Network net(cfg);
  const RouterArena& a = net.arena();
  const auto bufferSlots =
      static_cast<std::size_t>(a.nodes() * a.unitsPerRouter() * a.depth());
  std::size_t backlog = 0;
  std::size_t bound = 0;
  for (int window = 0; window < 10; ++window) {
    net.step(2000);
    backlog = 0;
    std::size_t held = 0;
    for (NodeId id = 0; id < net.topology().nodeCount(); ++id) {
      backlog += net.node(id).sourceQueue.size();
      held += net.node(id).swQueue.size();
    }
    bound = net.topology().nodeCount() + held + bufferSlots;
    ASSERT_LE(net.pool().capacity(), bound) << "cycle " << net.now();
  }
  EXPECT_FALSE(net.deadlockSuspected());
  EXPECT_GT(backlog, 3 * bound) << "the run must be saturated";
  EXPECT_EQ(net.validateInvariants(), "");
}

}  // namespace
}  // namespace swft
