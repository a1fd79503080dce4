#include "src/sim/network.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/sim/config_parse.hpp"
#include "src/sim/engine_mt.hpp"

namespace swft {

namespace {

FaultSet buildFaults(const TorusTopology& topo, const SimConfig& cfg) {
  const FaultSpec& spec = cfg.faults;
  FaultSet faults(topo);
  for (NodeId id : spec.explicitNodes) faults.failNode(id);
  for (const auto& link : spec.explicitLinks) {
    faults.failLink(link[0], static_cast<int>(link[1]),
                    link[2] == 0 ? Dir::Pos : Dir::Neg);
  }
  const int beforeRegions = faults.faultyNodeCount();
  for (const RegionSpec& region : spec.regions) applyRegion(faults, region);
  const int regionFaults = faults.faultyNodeCount() - beforeRegions;
  // A placement failure depends on the drawn positions, so name every input
  // that fixes them.
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(what + " (nf=" + std::to_string(spec.randomNodes) + ", " +
                             std::to_string(regionFaults) + " region faults, seed=" +
                             std::to_string(cfg.seed) + ")");
  };
  if (spec.randomNodes > 0) {
    Rng rng = Rng(cfg.seed).split(0xFA17);
    try {
      applyRandomNodeFaults(faults, spec.randomNodes, rng);
    } catch (const std::runtime_error& e) {
      fail(e.what());
    }
  }
  if (!spec.empty() && !healthyNetworkConnected(faults)) {
    fail("Network: fault pattern disconnects the network");
  }
  return faults;
}

// Validation runs in cfg_'s initializer, before any member that trusts the
// config (topology, faults, arena) is built from it.
const SimConfig& validated(const SimConfig& cfg) {
  validateConfig(cfg);
  return cfg;
}

}  // namespace

Network::Network(const SimConfig& cfg)
    : cfg_(validated(cfg)),
      topo_(cfg.radix, cfg.dims),
      faults_(buildFaults(topo_, cfg)),
      part_(cfg.routing, cfg.vcs, cfg.escapeVcs),
      ecube_(topo_),
      duato_(topo_),
      software_(topo_, faults_, cfg.livelockThreshold),
      traffic_(cfg.pattern, faults_, cfg.hotspotFraction),
      arena_(static_cast<int>(topo_.nodeCount()), topo_.totalPorts(),
             topo_.networkPorts(), cfg.vcs, cfg.bufferDepth),
      engineRng_(Rng(cfg.seed).split(0xE61E)) {
  nodes_.reserve(topo_.nodeCount());
  nodeWork_.resize((static_cast<std::size_t>(topo_.nodeCount()) + 63) / 64, 0);
  const Rng nodeSeeder = Rng(cfg.seed).split(0x50DE);
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    NodeState& node = nodes_.emplace_back();
    node.rng = nodeSeeder.split(id);
    if (cfg.injectionRate > 0.0 && !faults_.nodeFaulty(id)) {
      node.nextGenCycle = node.rng.geometric(cfg.injectionRate);
      genHeap_.emplace(node.nextGenCycle, id);
    } else {
      node.nextGenCycle = ~std::uint64_t{0};
    }
  }
  healthyNodeCount_ = faults_.healthyNodes().size();
  networkPorts_ = topo_.networkPorts();
  nbr_.resize(static_cast<std::size_t>(topo_.nodeCount()) *
              static_cast<std::size_t>(networkPorts_));
  // downBase_ has a row per *total* port: the ejection port's entry points at
  // the arena's always-zero credit sink, so the link-qualification loop can
  // read a downstream size row for every port without branching on locality.
  downBase_.resize(static_cast<std::size_t>(topo_.nodeCount()) *
                   static_cast<std::size_t>(networkPorts_ + 1));
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    for (int port = 0; port < networkPorts_; ++port) {
      const std::size_t idx =
          static_cast<std::size_t>(id) * static_cast<std::size_t>(networkPorts_) +
          static_cast<std::size_t>(port);
      nbr_[idx] = topo_.neighbor(id, port);
      downBase_[static_cast<std::size_t>(id) *
                    static_cast<std::size_t>(networkPorts_ + 1) +
                static_cast<std::size_t>(port)] =
          static_cast<std::int32_t>(arena_.base(nbr_[idx]) + (port ^ 1) * cfg.vcs);
    }
    downBase_[static_cast<std::size_t>(id) *
                  static_cast<std::size_t>(networkPorts_ + 1) +
              static_cast<std::size_t>(networkPorts_)] =
        static_cast<std::int32_t>(arena_.creditSinkBase());
  }
  if (cfg.warmupMessages == 0) {
    windowOpen_ = true;
    windowStartCycle_ = 0;
  }
  // Slot 0 (the main thread); the mt engine widens this to one slot
  // per domain before its workers spawn.
  if (cfg.phaseTimers) phaseShards_.resize(1);
  if (cfg.engine == EngineKind::SparseMt) {
    // Last: the engine captures the fully-built network (caches, arena).
    mt_ = std::make_unique<MtEngine>(*this, cfg.simThreads);
  }
}

Network::~Network() = default;  // here: ~MtEngine needs the complete type

std::uint32_t Network::injectTestMessage(NodeId src, NodeId dest, int length,
                                         RoutingMode mode) {
  if (faults_.nodeFaulty(src) || faults_.nodeFaulty(dest)) {
    throw std::invalid_argument("injectTestMessage: endpoint is faulty");
  }
  return queueMessage(src, dest, length, mode);
}

SimResult Network::snapshot() const {
  SimResult r;
  r.meanLatency = latency_.stat().mean();
  r.latencyStddev =
      latency_.stat().count() > 1 ? std::sqrt(latency_.stat().variance()) : 0.0;
  r.maxLatency = latency_.stat().max();
  r.latencyP50 = latency_.percentile(0.50);
  r.latencyP95 = latency_.percentile(0.95);
  r.latencyP99 = latency_.percentile(0.99);
  r.latencyCi95 = latency_.ciHalfWidth95();
  r.meanHops = hops_.mean();
  r.cycles = cycle_;
  r.generatedTotal = generatedTotal_;
  r.deliveredTotal = deliveredTotal_;
  r.deliveredMeasured = deliveredMeasured_;
  r.offeredLoad = cfg_.injectionRate;
  if (windowOpen_ && cycle_ > windowStartCycle_ && healthyNodeCount_ > 0) {
    r.throughput = static_cast<double>(deliveredInWindow_) /
                   (static_cast<double>(healthyNodeCount_) *
                    static_cast<double>(cycle_ - windowStartCycle_));
  }
  const SoftwareLayerStats& sw = software_.stats();
  r.messagesQueued = sw.absorptions;
  r.absorbedMessages = absorbedMessages_;
  r.reversals = sw.reversals;
  r.detours = sw.detours;
  r.escalations = sw.escalations;
  r.deadlockSuspected = deadlockSuspected_;
  r.completed = deliveredMeasured_ >= cfg_.measuredMessages;
  // Saturation heuristic: the run did not complete, or the accepted rate
  // fell visibly below the offered rate while queues grew.
  const double accepted = r.throughput;
  r.saturated = !r.completed ||
                (cfg_.injectionRate > 0 && accepted > 0 &&
                 accepted < 0.85 * cfg_.injectionRate && sourceQueueMean() > 8.0);
  return r;
}

double Network::sourceQueueMean() const {
  if (healthyNodeCount_ == 0) return 0.0;
  std::size_t total = 0;
  for (const NodeState& n : nodes_) total += n.queuedMessages();
  return static_cast<double>(total) / static_cast<double>(healthyNodeCount_);
}

SimResult runSimulation(const SimConfig& cfg) { return Network(cfg).run(); }

std::string Network::validateNodeState() const {
  // Message accounting: every message generated and not yet delivered is
  // either a source-queue record or a live pool slot, never both, and every
  // slot id a node holds (re-injection entries, the streaming message) is
  // live.
  std::size_t sourceQueued = 0;
  for (const NodeState& n : nodes_) sourceQueued += n.sourceQueue.size();
  if (inFlight() != pool_.liveCount() + sourceQueued) {
    return "message accounting mismatch: " + std::to_string(generatedTotal_) +
           " generated - " + std::to_string(deliveredTotal_) + " delivered != " +
           std::to_string(pool_.liveCount()) + " live pool slots + " +
           std::to_string(sourceQueued) + " source-queue records";
  }
  const std::vector<bool> live = pool_.liveSlots();
  const auto dead = [&](MsgId msg) { return msg >= live.size() || !live[msg]; };
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    const NodeState& n = nodes_[id];
    if (n.streaming != kInvalidMsg && dead(n.streaming)) {
      return "node " + std::to_string(id) + " streams dead pool slot " +
             std::to_string(n.streaming);
    }
    for (std::size_t i = 0; i < n.swQueue.size(); ++i) {
      if (dead(n.swQueue[i].msg)) {
        return "node " + std::to_string(id) + " re-injection queue holds dead pool slot " +
               std::to_string(n.swQueue[i].msg);
      }
    }
  }
  // Injection-side work set covers every node with pending work (the
  // sparse engine never visits a node whose bit is clear, so a clear bit
  // with queued/streaming work would silently stall that node).
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    const bool bit = (nodeWork_[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1u;
    if (!bit && !nodeIdle(id)) {
      return "work-set bit clear for busy node " + std::to_string(id);
    }
  }
  return {};
}

std::string Network::checkHeaderArrival(NodeId id, int u) const {
  // The Td gate reads a front header's Message::headerArrival and the link
  // pass reads the unit's 32-bit push stamp; both record the header's push.
  // It cannot postdate the last executed cycle, and a lone header is the
  // unit's latest push, so the stamp holds its low 32 bits — unless
  // renormaliseStamps clamped the stamp, leaving a stamp at least
  // kMaxStampAge old and a header older still.
  const int g = arena_.base(id) + u;
  if (arena_.empty(g) || !arena_.front(g).isHeader()) return {};
  const std::uint64_t arrival = pool_.get(arena_.front(g).msg).headerArrival;
  const std::uint64_t lastCycle = cycle_ == 0 ? 0 : cycle_ - 1;
  const auto report = [&](const std::string& what, const std::string& detail) {
    return what + " at node " + std::to_string(id) + " unit " + std::to_string(u) +
           ": headerArrival=" + std::to_string(arrival) + detail;
  };
  if (arrival > lastCycle) {
    return report("header arrival from the future",
                  " last executed cycle " + std::to_string(lastCycle));
  }
  const std::uint32_t stamp = arena_.lastPush(g);
  const std::uint32_t stampAge = static_cast<std::uint32_t>(cycle_) - stamp;
  const bool clamped =
      stampAge >= RouterArena::kMaxStampAge && cycle_ - arrival > stampAge;
  if (arena_.size(g) == 1 && static_cast<std::uint32_t>(arrival) != stamp && !clamped) {
    return report("lone header's arrival differs from its unit's push stamp",
                  " lastPush=" + std::to_string(stamp));
  }
  return {};
}

std::string Network::validateInvariants() const {
  const int vcs = cfg_.vcs;
  const int unitCount = arena_.unitsPerRouter();
  const int networkPorts = topo_.networkPorts();
  std::vector<int> holders;
  // 0. The routed mask mirrors the route words, every parked unit is an
  //    occupied unrouted header, and no buffered front arrived after the
  //    cycle that just executed.
  if (std::string err =
          arena_.auditMasks(cycle_ == 0 ? 0 : cycle_ - 1);
      !err.empty()) {
    return err;
  }
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    const std::uint64_t* occ = arena_.occWords(id);
    // 1. Occupancy bits, the occupied-unit count and the network-level
    //    active bit all mirror buffer emptiness exactly.
    int occupied = 0;
    for (int u = 0; u < unitCount; ++u) {
      const bool bit = (occ[u >> 6] >> (u & 63)) & 1u;
      const bool nonEmpty = !arena_.empty(arena_.base(id) + u);
      if (bit != nonEmpty) {
        return "occupancy bit mismatch at node " + std::to_string(id) + " unit " +
               std::to_string(u);
      }
      occupied += nonEmpty ? 1 : 0;
    }
    if (occupied != arena_.occupiedUnits(id)) {
      return "occupied-unit count mismatch at node " + std::to_string(id);
    }
    const bool activeBit =
        (arena_.activeWords()[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1u;
    if (activeBit != (occupied > 0)) {
      return "active-set bit mismatch at node " + std::to_string(id);
    }
    // 2. Output VCs: each VC of each network port is claimed in the free-VC
    //    mask (the one VC allocation reads) iff exactly one routed unit of
    //    the router holds it.
    holders.assign(static_cast<std::size_t>(networkPorts * vcs), 0);
    for (int u = 0; u < unitCount; ++u) {
      const int g = arena_.base(id) + u;
      if (arena_.routed(g) && arena_.outPort(g) < networkPorts) {
        ++holders[static_cast<std::size_t>(arena_.outPort(g) * vcs + arena_.outVc(g))];
      }
    }
    for (int port = 0; port < networkPorts; ++port) {
      const std::uint16_t freeMask = arena_.freeVcMask(id, port);
      for (int vc = 0; vc < vcs; ++vc) {
        const bool claimed = ((freeMask >> vc) & 1u) == 0;
        const int n = holders[static_cast<std::size_t>(port * vcs + vc)];
        if (claimed != (n == 1)) {
          return "output VC mismatch at node " + std::to_string(id) + " port " +
                 std::to_string(port) + " vc " + std::to_string(vc) + ": " +
                 (claimed ? "claimed" : "free") + " with " + std::to_string(n) +
                 " routed holders";
        }
      }
    }
    // 3. Wormhole contiguity: within a VC buffer, flits between a header and
    //    its tail belong to one message, and kinds follow H (B*) T framing.
    for (int u = 0; u < unitCount; ++u) {
      const int g = arena_.base(id) + u;
      if (std::string err = checkHeaderArrival(id, u); !err.empty()) return err;
      MsgId current = kInvalidMsg;
      for (int i = 0; i < arena_.size(g); ++i) {
        const Flit& f = arena_.flitAt(g, i);
        if (current == kInvalidMsg) {
          // First flit of a framing span: either a header, or the mid-drain
          // remainder of a message whose header departed earlier.
          current = f.msg;
        } else if (f.msg != current) {
          return "interleaved messages in one VC buffer at node " + std::to_string(id);
        }
        if (f.isTail()) current = kInvalidMsg;
      }
    }
  }
  return validateNodeState();
}

}  // namespace swft
