// Microarchitectural invariants checked live while the engine runs: the
// validator inspects occupancy masks, the free output-VC masks, wormhole
// framing and message accounting after every stepping window.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "tests/naming.hpp"

#include "src/sim/network.hpp"

namespace swft {

struct NetworkTestAccess {
  static RouterArena& arena(Network& net) { return net.arena_; }
  static Message& message(Network& net, MsgId id) { return net.pool_.get(id); }
  static void clearWork(Network& net, NodeId id) {
    net.nodeWork_[static_cast<std::size_t>(id) >> 6] &= ~(1ULL << (id & 63));
  }
  static NodeState& node(Network& net, NodeId id) { return net.nodes_[id]; }
  // Step the node's replay generator one event past where it should sit.
  static void desyncReplay(Network& net, NodeId id) {
    NodeState& n = net.nodes_[id];
    (void)net.nextGenEvent(id, n.replayRng, n.replayNextGen);
  }
};

namespace {

struct InvariantCase {
  int k, n, vcs;
  RoutingMode mode;
  int nf;
  double rate;
};

class LiveInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(LiveInvariants, HoldAtEveryCheckpoint) {
  const auto& p = GetParam();
  SimConfig cfg;
  cfg.radix = p.k;
  cfg.dims = p.n;
  cfg.vcs = p.vcs;
  cfg.routing = p.mode;
  cfg.messageLength = 8;
  cfg.injectionRate = p.rate;
  cfg.faults.randomNodes = p.nf;
  cfg.seed = 55;
  Network net(cfg);
  for (int window = 0; window < 40; ++window) {
    net.step(250);
    const std::string violation = net.validateInvariants();
    ASSERT_TRUE(violation.empty()) << violation << " at cycle " << net.now();
  }
  EXPECT_GT(net.delivered(), 0u);
  EXPECT_FALSE(net.deadlockSuspected());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LiveInvariants,
    ::testing::Values(InvariantCase{8, 2, 4, RoutingMode::Deterministic, 0, 0.01},
                      InvariantCase{8, 2, 4, RoutingMode::Adaptive, 0, 0.01},
                      InvariantCase{8, 2, 6, RoutingMode::Deterministic, 5, 0.006},
                      InvariantCase{8, 2, 6, RoutingMode::Adaptive, 5, 0.006},
                      InvariantCase{4, 3, 4, RoutingMode::Deterministic, 4, 0.008},
                      InvariantCase{4, 3, 4, RoutingMode::Adaptive, 4, 0.008},
                      InvariantCase{8, 2, 10, RoutingMode::Adaptive, 0, 0.03},  // saturated
                      InvariantCase{5, 2, 3, RoutingMode::Deterministic, 2, 0.01},
                      // 7 ports x 10 VCs: 70 units, two occupancy words.
                      InvariantCase{4, 3, 10, RoutingMode::Adaptive, 3, 0.05}),
    [](const auto& info) {
      const auto& p = info.param;
      return catName({knName(p.k, p.n), "V", std::to_string(p.vcs),
                      p.mode == RoutingMode::Adaptive ? "adp" : "det", "nf",
                      std::to_string(p.nf)});
    });

TEST(Invariants, FreshNetworkIsConsistent) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  const Network net(cfg);
  EXPECT_EQ(net.validateInvariants(), "");
}

// The free-VC mask is the only VC state VC allocation reads; the
// validator must catch it drifting from the route words either way. Mid-run,
// claim a VC no routed unit holds, then (after undoing that) release one a
// routed unit does hold: each desync is reported with its node and port.
TEST(Invariants, CatchFreeVcMaskDesyncFromRouteWords) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.03;
  cfg.seed = 5;
  Network net(cfg);
  net.step(300);
  ASSERT_EQ(net.validateInvariants(), "");
  RouterArena& a = NetworkTestAccess::arena(net);
  const auto where = [](NodeId id, int port) {
    return "at node " + std::to_string(id) + " port " + std::to_string(port) + " ";
  };

  // A held VC: the output of some routed unit on a network port.
  NodeId heldNode = 0;
  int heldPort = -1;
  int heldVc = -1;
  for (NodeId id = 0; id < net.topology().nodeCount() && heldPort < 0; ++id) {
    for (int u = 0; u < a.unitsPerRouter(); ++u) {
      const int g = a.base(id) + u;
      if (a.routed(g) && a.outPort(g) < a.networkPorts()) {
        heldNode = id;
        heldPort = a.outPort(g);
        heldVc = a.outVc(g);
        break;
      }
    }
  }
  ASSERT_GE(heldPort, 0) << "the load must keep some VC held";

  // An unheld VC: any free bit.
  NodeId freeNode = 0;
  int freePort = -1;
  int freeVc = -1;
  for (NodeId id = 0; id < net.topology().nodeCount() && freePort < 0; ++id) {
    for (int port = 0; port < a.networkPorts() && freePort < 0; ++port) {
      const std::uint16_t m = a.freeVcMask(id, port);
      if (m != 0) {
        freeNode = id;
        freePort = port;
        freeVc = std::countr_zero(m);
      }
    }
  }
  ASSERT_GE(freePort, 0);

  a.claimVc(freeNode, freePort, freeVc);
  const std::string claimed = net.validateInvariants();
  EXPECT_NE(claimed.find(where(freeNode, freePort)), std::string::npos) << claimed;
  EXPECT_NE(claimed.find("claimed with 0 routed holders"), std::string::npos) << claimed;
  a.releaseVc(freeNode, freePort, freeVc);
  ASSERT_EQ(net.validateInvariants(), "");

  a.releaseVc(heldNode, heldPort, heldVc);
  const std::string released = net.validateInvariants();
  EXPECT_NE(released.find(where(heldNode, heldPort)), std::string::npos) << released;
  EXPECT_NE(released.find("free with 1 routed holders"), std::string::npos) << released;
}

// The Td gate reads a front header's Message::headerArrival and the link
// pass reads its unit's 32-bit push stamp: two records of one push. Mid-run,
// shift a lone header's arrival one cycle back, then date it in the cycle
// that has not executed yet; the validator must report each.
TEST(Invariants, CatchHeaderArrivalDesyncFromPushStamp) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.03;
  cfg.routerDecisionTime = 2;  // headers wait in their buffers
  cfg.seed = 5;
  Network net(cfg);
  net.step(300);
  ASSERT_EQ(net.validateInvariants(), "");
  const RouterArena& a = NetworkTestAccess::arena(net);
  int lone = -1;
  for (int g = 0; g < a.creditSinkBase() && lone < 0; ++g) {
    if (a.size(g) == 1 && a.front(g).isHeader()) lone = g;
  }
  ASSERT_GE(lone, 0) << "the load must leave some header alone in its buffer";
  Message& msg = NetworkTestAccess::message(net, a.front(lone).msg);
  const std::uint64_t arrival = msg.headerArrival;

  msg.headerArrival = arrival - 1;
  const std::string shifted = net.validateInvariants();
  EXPECT_NE(shifted.find("differs from its unit's push stamp"), std::string::npos)
      << shifted;
  msg.headerArrival = net.now();
  const std::string future = net.validateInvariants();
  EXPECT_NE(future.find("header arrival from the future"), std::string::npos) << future;
  msg.headerArrival = arrival;
  EXPECT_EQ(net.validateInvariants(), "");
}

// A PE streaming into a full injection buffer is busy: the sparse walk must
// keep visiting it, so its work bit must stay set. Find such a PE in a
// saturated run, clear its bit, and the validator must name the node.
TEST(Invariants, CatchWorkBitClearedOnFullInjectionBuffer) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 32;
  cfg.injectionRate = 0.05;
  cfg.seed = 5;
  Network net(cfg);
  net.step(300);
  ASSERT_EQ(net.validateInvariants(), "");
  const RouterArena& a = NetworkTestAccess::arena(net);
  NodeId blocked = kInvalidNode;
  for (NodeId id = 0; id < net.topology().nodeCount() && blocked == kInvalidNode; ++id) {
    const NodeState& n = net.node(id);
    if (n.streaming != kInvalidMsg &&
        a.full(a.unitIndex(id, net.topology().localPort(), n.streamVc))) {
      blocked = id;
    }
  }
  ASSERT_NE(blocked, kInvalidNode) << "the load must block some PE on a full buffer";

  NetworkTestAccess::clearWork(net, blocked);
  EXPECT_EQ(net.validateInvariants(),
            "work-set bit clear for busy node " + std::to_string(blocked));
}

// Every message generated and not yet delivered is a source-queue entry
// or a live pool slot, and every slot id a node holds is live. Mid-run in a
// saturated fault-free network (so no re-injection queue holds anything),
// hand the messaging layer an id the pool never allocated, then (after
// undoing that) queue a sequence number that was never generated; the
// validator must report each.
TEST(Invariants, CatchMessageAccountingMismatch) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 16;
  cfg.injectionRate = 0.05;
  cfg.seed = 5;
  Network net(cfg);
  net.step(300);
  ASSERT_EQ(net.validateInvariants(), "");
  NodeId busy = kInvalidNode;
  for (NodeId id = 0; id < net.topology().nodeCount() && busy == kInvalidNode; ++id) {
    if (!net.node(id).sourceQueue.empty()) busy = id;
  }
  ASSERT_NE(busy, kInvalidNode) << "the load must leave a source backlog";
  NodeState& n = NetworkTestAccess::node(net, busy);
  ASSERT_TRUE(n.swQueue.empty());

  const auto neverAllocated = static_cast<MsgId>(net.pool().capacity());
  n.swQueue.push_back(PendingReinjection{neverAllocated, net.now()});
  EXPECT_EQ(net.validateInvariants(),
            "node " + std::to_string(busy) + " re-injection queue holds dead pool slot " +
                std::to_string(neverAllocated));
  n.swQueue.pop_front();
  ASSERT_EQ(net.validateInvariants(), "");

  n.sourceQueue.push_back(n.sourceQueue.front());
  const std::string stray = net.validateInvariants();
  EXPECT_NE(stray.find("message accounting mismatch: " + std::to_string(net.generated()) +
                       " generated"),
            std::string::npos)
      << stray;
}

// A queued generated message is only a sequence number: its destination and
// generation cycle come back from the node's replay generator when injection
// starts. Mid-run, with a source backlog, step one node's replay copy one
// event ahead (it would then hand its oldest queued message the next one's
// destination); the validator must name the node.
TEST(Invariants, CatchReplayGeneratorOffTheLiveOne) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 16;
  cfg.injectionRate = 0.05;
  cfg.seed = 5;
  Network net(cfg);
  net.step(300);
  ASSERT_EQ(net.validateInvariants(), "");
  NodeId busy = kInvalidNode;
  for (NodeId id = 0; id < net.topology().nodeCount() && busy == kInvalidNode; ++id) {
    if (net.node(id).sourceQueue.size() >= 2) busy = id;
  }
  ASSERT_NE(busy, kInvalidNode) << "the load must leave a source backlog";
  const std::size_t queued = net.node(busy).sourceQueue.size();

  NetworkTestAccess::desyncReplay(net, busy);
  EXPECT_EQ(net.validateInvariants(),
            "source replay of node " + std::to_string(busy) +
                " does not land on its live generator: " + std::to_string(queued - 1) +
                " messages replayed for " + std::to_string(queued) +
                " queued, next event at cycle " +
                std::to_string(net.node(busy).nextGenCycle) + " (live " +
                std::to_string(net.node(busy).nextGenCycle) + ")");
}

TEST(Invariants, HoldThroughFaultRegionTraffic) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 6;
  cfg.injectionRate = 0.006;
  cfg.messageLength = 8;
  cfg.seed = 77;
  const TorusTopology topo(8, 2);
  cfg.faults.regions.push_back(fig5U8(topo));
  Network net(cfg);
  for (int window = 0; window < 30; ++window) {
    net.step(300);
    ASSERT_EQ(net.validateInvariants(), "") << "cycle " << net.now();
  }
}

}  // namespace
}  // namespace swft
