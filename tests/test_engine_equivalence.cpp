// Engine equivalence: the event-sparse production engine must be
// bit-identical to the dense reference sweep (DenseReference, the seed
// engine kept as a test oracle) on every field of SimResult,
// across traffic patterns, fault states and routing modes. The invariant
// under test (DESIGN.md): activity tracking may skip provably-dead work but
// may never reorder or change live work.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/harness/sweep.hpp"
#include "src/sim/config_canon.hpp"
#include "src/sim/engine_dense.hpp"
#include "src/util/fnv.hpp"
#include "tests/naming.hpp"
#include "tests/result_compare.hpp"

namespace swft {

struct NetworkTestAccess {
  static void setCycle(Network& net, std::uint64_t c) {
    net.cycle_ = c;
    net.lastMovementCycle_ = c;
  }
};

namespace {

struct EngineCase {
  const char* name;
  TrafficPattern pattern;
  RoutingMode routing;
  int randomFaults;
  double rate;
  int messageLength = 16;
  int td = 0;
};

// gtest prints a failing parameter through PrintTo; without one it dumps
// the struct's raw bytes.
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

const EngineCase kCases[] = {
    {"uniform_det_faultfree", TrafficPattern::Uniform, RoutingMode::Deterministic, 0,
     0.006},
    {"uniform_det_faulty", TrafficPattern::Uniform, RoutingMode::Deterministic, 5,
     0.005},
    {"uniform_adp_faultfree", TrafficPattern::Uniform, RoutingMode::Adaptive, 0, 0.006},
    {"uniform_adp_faulty", TrafficPattern::Uniform, RoutingMode::Adaptive, 5, 0.005},
    {"transpose_det_faultfree", TrafficPattern::Transpose, RoutingMode::Deterministic,
     0, 0.006},
    {"transpose_det_faulty", TrafficPattern::Transpose, RoutingMode::Deterministic, 5,
     0.005},
    {"transpose_adp_faultfree", TrafficPattern::Transpose, RoutingMode::Adaptive, 0,
     0.006},
    {"transpose_adp_faulty", TrafficPattern::Transpose, RoutingMode::Adaptive, 5,
     0.005},
    // Headers queued behind another message's tail: 2-flit messages in
    // 4-flit buffers, so a buffer often holds a tail with the next header
    // behind it, and that header reaches the front long after it arrived.
    // The Td gate must count from the header's arrival, as the dense
    // reference's per-slot stamps do, not from the cycle it became the front
    // (nor from the cycle before, which Td <= 2 cannot tell apart). The rate
    // is past the throughput knee for 2-flit messages (a long run saturates
    // near 0.28), so buffers fill from the first cycles.
    {"uniform_det_td3_queued", TrafficPattern::Uniform, RoutingMode::Deterministic, 0,
     0.3, 2, 3},
};

SimConfig caseConfig(const EngineCase& c) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 4;
  cfg.messageLength = c.messageLength;
  cfg.routerDecisionTime = c.td;
  cfg.pattern = c.pattern;
  cfg.routing = c.routing;
  cfg.faults.randomNodes = c.randomFaults;
  cfg.injectionRate = c.rate;
  cfg.reinjectDelay = c.randomFaults > 0 ? 20 : 0;  // exercise readyCycle
  cfg.warmupMessages = 200;
  cfg.measuredMessages = 700;
  cfg.maxCycles = 400'000;
  cfg.seed = 7;
  return cfg;
}

SimResult runWith(SimConfig cfg, EngineKind kind, int simThreads = 1) {
  cfg.engine = kind;
  cfg.simThreads = simThreads;
  return runSimulation(cfg);
}

// The sim_threads axis of the equivalence matrix: 1 (single-domain
// fallback), 2 and 3 (uneven 64-node partitions with mid-word boundaries),
// 8 (the tentpole's target width).
constexpr int kThreadAxis[] = {1, 2, 3, 8};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalence, SparseMatchesDenseBitForBit) {
  const SimConfig cfg = caseConfig(GetParam());
  const SimResult dense = DenseReference(cfg).run();
  const SimResult sparse = runWith(cfg, EngineKind::Sparse);
  EXPECT_TRUE(dense.completed) << "case must finish within maxCycles";
  expectSameResult(dense, sparse);
}

TEST_P(EngineEquivalence, SparseMtMatchesDenseAtEveryThreadCount) {
  const SimConfig cfg = caseConfig(GetParam());
  const SimResult dense = DenseReference(cfg).run();
  EXPECT_TRUE(dense.completed) << "case must finish within maxCycles";
  for (const int threads : kThreadAxis) {
    const SimResult mt = runWith(cfg, EngineKind::SparseMt, threads);
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    expectSameResult(dense, mt);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineEquivalence, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return std::string(info.param.name);
                         });

// Routers with more than 64 input units keep their occupancy in several
// words, so the link pass buckets candidates per word and picks winners
// across words; every matrix case above has one word per router. The cases:
// a 4-ary 3-cube at V = 10 (7 ports x 10 VCs = 70 units) with adaptive
// routing, faults with a software-layer delay and Td = 1, which puts route
// cards, absorption and the Td gate on two words; the same cube
// deterministic at Td = 0; a 3-ary 4-cube at V = 8 (72 units); and a 2-ary
// 8-cube at V = 16 (17 x 16 = 272 units, five words).
struct MultiWordCase {
  int k, n, vcs;
  RoutingMode routing;
  int faults;
  int td;
  double rate;
  std::uint32_t measured;
};

std::string multiWordName(const MultiWordCase& c) {
  return catName({knName(c.k, c.n), "V", std::to_string(c.vcs),
                  c.routing == RoutingMode::Adaptive ? "adp" : "det", "nf",
                  std::to_string(c.faults), "td", std::to_string(c.td)});
}

void PrintTo(const MultiWordCase& c, std::ostream* os) { *os << multiWordName(c); }

class EngineEquivalenceMultiWord : public ::testing::TestWithParam<MultiWordCase> {};

TEST_P(EngineEquivalenceMultiWord, MultiWordRoutersMatchDenseAtEveryThreadCount) {
  const MultiWordCase& c = GetParam();
  SimConfig cfg;
  cfg.radix = c.k;
  cfg.dims = c.n;
  cfg.vcs = c.vcs;
  cfg.routing = c.routing;
  cfg.faults.randomNodes = c.faults;
  cfg.reinjectDelay = c.faults > 0 ? 10 : 0;
  cfg.routerDecisionTime = c.td;
  cfg.messageLength = 8;
  cfg.injectionRate = c.rate;
  cfg.warmupMessages = 300;
  cfg.measuredMessages = c.measured;
  cfg.maxCycles = 200'000;
  cfg.seed = 23;
  ASSERT_GT(Network(cfg).arena().occWordsPerRouter(), 1);
  const SimResult dense = DenseReference(cfg).run();
  EXPECT_TRUE(dense.completed);
  if (c.faults > 0) {
    EXPECT_GT(dense.messagesQueued, 0u) << "the faults must absorb traffic";
  }
  expectSameResult(dense, runWith(cfg, EngineKind::Sparse));
  for (const int threads : kThreadAxis) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    expectSameResult(dense, runWith(cfg, EngineKind::SparseMt, threads));
  }
}

// Every rate is well into contention: mean latency 1.8-3x zero-load.
INSTANTIATE_TEST_SUITE_P(
    Routers, EngineEquivalenceMultiWord,
    ::testing::Values(MultiWordCase{4, 3, 10, RoutingMode::Adaptive, 3, 1, 0.07, 3000},
                      MultiWordCase{4, 3, 10, RoutingMode::Deterministic, 3, 0, 0.05,
                                    3000},
                      MultiWordCase{3, 4, 8, RoutingMode::Adaptive, 0, 0, 0.05, 2000},
                      MultiWordCase{2, 8, 16, RoutingMode::Adaptive, 4, 0, 0.06, 3000}),
    [](const ::testing::TestParamInfo<MultiWordCase>& info) {
      return multiWordName(info.param);
    });

// Recorded reference values for the eight traffic x routing x fault cases of
// the equivalence matrix, captured from the dense reference engine (seed
// semantics plus the two injection fixes that came with the event-sparse
// engine: peek-don't-pop requeue and the single unsigned VC-rotation draw).
// The first and last rows date from the event-sparse engine itself; the
// other six were recorded — from the dense oracle, unchanged since — when
// the batched link pass landed, so each of those corners is pinned, not just
// compared engine-to-engine (the Td case after them is compared only). Any
// change to these numbers means the engine's observable behaviour drifted —
// deliberate changes must re-record and justify in the commit message.
struct GoldenRecord {
  const char* name;
  std::uint64_t cycles;
  std::uint64_t generatedTotal;
  std::uint64_t deliveredTotal;
  std::uint64_t deliveredMeasured;
  std::uint64_t messagesQueued;
  double meanLatency;
  double meanHops;
};

// clang-format off
const GoldenRecord kGolden[] = {
    {"uniform_det_faultfree",   2301, 910, 900, 700,   0, 25.334285714285713, 4.0757142857142892},
    {"uniform_det_faulty",      3027, 920, 901, 701, 377, 43.37660485021398,  4.8088445078459383},
    {"uniform_adp_faultfree",   2310, 915, 901, 701,   0, 26.271041369472172, 4.0670470756062773},
    {"uniform_adp_faulty",      3013, 912, 900, 700, 122, 30.648571428571419, 4.2942857142857145},
    {"transpose_det_faultfree", 2720, 915, 900, 700,   0, 29.107142857142865, 4.7371428571428567},
    {"transpose_det_faulty",    3864, 906, 900, 700, 442, 52.297142857142823, 5.654285714285713},
    {"transpose_adp_faultfree", 2712, 910, 900, 700,   0, 25.731428571428562, 4.742857142857142},
    {"transpose_adp_faulty",    3849, 904, 900, 700, 157, 34.092857142857142, 5.1085714285714285},
};
// clang-format on

TEST(EngineEquivalence, MatchesRecordedReferenceValues) {
  for (const GoldenRecord& golden : kGolden) {
    const EngineCase* found = nullptr;
    for (const EngineCase& c : kCases) {
      if (std::string(c.name) == golden.name) found = &c;
    }
    ASSERT_NE(found, nullptr) << golden.name;
    const SimResult r = runWith(caseConfig(*found), EngineKind::Sparse);
    EXPECT_EQ(r.cycles, golden.cycles) << golden.name;
    EXPECT_EQ(r.generatedTotal, golden.generatedTotal) << golden.name;
    EXPECT_EQ(r.deliveredTotal, golden.deliveredTotal) << golden.name;
    EXPECT_EQ(r.deliveredMeasured, golden.deliveredMeasured) << golden.name;
    EXPECT_EQ(r.messagesQueued, golden.messagesQueued) << golden.name;
    EXPECT_EQ(r.meanLatency, golden.meanLatency) << golden.name;
    EXPECT_EQ(r.meanHops, golden.meanHops) << golden.name;
  }
}

// The batched link pass commits winners port-by-port instead of walking
// (port, vc) pairs one at a time, so its *schedule* — which header crosses
// which link in which cycle — is the thing most at risk of silent drift.
// Pin it with literal event vectors on a hand-built contention scenario:
// messages 0/1 contend for the link (1,0)->(2,0), messages 2/3 for the
// ejection channel at (2,2). Captured from both engines (identical) when
// the batched pass landed. A diff here means the arbitration order changed.
struct PinnedEvent {
  TraceEvent::Kind kind;
  std::uint64_t cycle;
  NodeId node;
  std::uint8_t port;
};
using K = TraceEvent::Kind;
// clang-format off
const std::vector<std::vector<PinnedEvent>> kPinnedHops = {
    // seq 0: header stalls at node 1 cycles 2-4 behind seq 1's data flits.
    {{K::Inject, 0, 0, 0}, {K::Hop, 1, 0, 0}, {K::Hop, 5, 1, 0}, {K::Deliver, 9, 2, 0}},
    {{K::Inject, 0, 1, 0}, {K::Hop, 1, 1, 0}, {K::Hop, 2, 2, 0}, {K::Deliver, 6, 3, 0}},
    // seqs 2/3: ejection at node 10 serialises the tails (cycles 8 and 9).
    {{K::Inject, 0, 2, 0}, {K::Hop, 1, 2, 2}, {K::Hop, 2, 6, 2}, {K::Deliver, 9, 10, 0}},
    {{K::Inject, 0, 14, 0}, {K::Hop, 1, 14, 3}, {K::Deliver, 8, 10, 0}},
};
// clang-format on

// `startCycle` shifts the whole scenario in time; every event must shift
// with it.
void runPinnedContention(EngineKind engine, int simThreads, std::uint64_t startCycle = 0) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.injectionRate = 0.0;  // only the four hand-injected messages
  cfg.warmupMessages = 0;
  cfg.measuredMessages = 4;
  cfg.maxCycles = ~std::uint64_t{0};
  cfg.engine = engine;
  cfg.simThreads = simThreads;
  TraceRecorder trace;
  Network net(cfg);
  NetworkTestAccess::setCycle(net, startCycle);
  net.attachTrace(&trace);
  const auto at = [&](int x, int y) {
    Coordinates c;
    c.digit = {static_cast<std::int16_t>(x), static_cast<std::int16_t>(y)};
    return net.topology().idOf(c);
  };
  net.injectTestMessage(at(0, 0), at(2, 0), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(1, 0), at(3, 0), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(2, 0), at(2, 2), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(2, 3), at(2, 2), 4, RoutingMode::Deterministic);
  net.run();

  ASSERT_EQ(trace.messageCount(), kPinnedHops.size());
  for (std::uint32_t seq = 0; seq < kPinnedHops.size(); ++seq) {
    const auto& events = trace.eventsFor(seq);
    ASSERT_EQ(events.size(), kPinnedHops[seq].size()) << "seq " << seq;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, kPinnedHops[seq][i].kind) << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].cycle, startCycle + kPinnedHops[seq][i].cycle)
          << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].node, kPinnedHops[seq][i].node) << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].port, kPinnedHops[seq][i].port) << "seq " << seq << " event " << i;
    }
  }
}

TEST(EngineEquivalence, PinnedHopVectorsUnderContention) {
  runPinnedContention(EngineKind::Sparse, 1);
}

// The same pinned commit schedule from the mt engine with the 16-node mesh
// split into 5 domains: the contended link (1,0)->(2,0) and the ejection
// contention at (2,2) both cross domain boundaries, so route cards built by
// different domains must reproduce the exact dense schedule.
TEST(EngineEquivalence, PinnedHopVectorsUnderContentionSparseMt) {
  runPinnedContention(EngineKind::SparseMt, 5);
}

// The same schedule started 4 cycles before cycle 2^32: the arena's 32-bit
// push stamps wrap mid-scenario, and the stamp renormalisation pass runs
// at the end of cycle 2^32 - 1 (2^32 is a multiple of its period).
TEST(EngineEquivalence, PinnedHopVectorsAcrossStampWrap) {
  runPinnedContention(EngineKind::Sparse, 1, (std::uint64_t{1} << 32) - 4);
}

// The goldens and pinned hop vectors are the recorded results of one engine
// semantics. Re-recording them without bumping kEngineSemanticsVersion would
// let every existing result cache keep serving the old results, so a digest
// of both is pinned beside the version.
TEST(EngineEquivalence, RecordedResultsPinnedToSemanticsVersion) {
  std::ostringstream rec;
  for (const GoldenRecord& g : kGolden) {
    rec << g.name << ' ' << g.cycles << ' ' << g.generatedTotal << ' '
        << g.deliveredTotal << ' ' << g.deliveredMeasured << ' ' << g.messagesQueued
        << ' ' << exactDoubleToken(g.meanLatency) << ' ' << exactDoubleToken(g.meanHops)
        << '\n';
  }
  for (const auto& events : kPinnedHops) {
    for (const PinnedEvent& e : events) {
      rec << static_cast<int>(e.kind) << ' ' << e.cycle << ' ' << e.node << ' '
          << static_cast<int>(e.port) << ';';
    }
    rec << '\n';
  }
  ASSERT_EQ(kEngineSemanticsVersion, 1u);
  EXPECT_EQ(fnv1a64(rec.str()), 0x933664e07b8db000ULL)
      << "the recorded goldens or pinned hop vectors changed: re-record this "
         "digest AND bump kEngineSemanticsVersion (src/sim/config_canon.hpp)";
}

// Event-for-event trace agreement on a loaded case: the full per-message
// (kind, cycle, node, port) streams — not just the end-of-run aggregates —
// must coincide between the engines. This is the commit-order contract at
// its finest observable granularity.
TEST(EngineEquivalence, HopTracesMatchDenseEventForEvent) {
  SimConfig cfg = caseConfig(kCases[7]);  // transpose_adp_faulty: the busiest
  cfg.measuredMessages = 300;             // keep the traced volume bounded
  TraceRecorder dense, sparse, mt;
  DenseReference ref(cfg);
  ref.attachTrace(&dense);
  ref.run();
  {
    SimConfig s = cfg;
    s.engine = EngineKind::Sparse;
    Network net(s);
    net.attachTrace(&sparse);
    net.run();
  }
  {
    SimConfig m = cfg;
    m.engine = EngineKind::SparseMt;
    m.simThreads = 8;
    Network net(m);
    net.attachTrace(&mt);
    net.run();
  }
  for (const TraceRecorder* other : {&sparse, &mt}) {
    ASSERT_EQ(dense.messageCount(), other->messageCount());
    ASSERT_EQ(dense.eventCount(), other->eventCount());
    ASSERT_GT(dense.eventCount(), 0u);
    for (const std::uint32_t seq : dense.tracedMessages()) {
      const auto& d = dense.eventsFor(seq);
      const auto& s = other->eventsFor(seq);
      ASSERT_EQ(d.size(), s.size()) << "seq " << seq;
      for (std::size_t i = 0; i < d.size(); ++i) {
        ASSERT_TRUE(d[i].kind == s[i].kind && d[i].cycle == s[i].cycle &&
                    d[i].node == s[i].node && d[i].port == s[i].port)
            << "seq " << seq << " event " << i << " diverges (cycle " << d[i].cycle
            << " vs " << s[i].cycle << ")";
      }
    }
  }
}

// Lockstep: both engines stepped cycle by cycle must agree on every counter
// at every cycle, and both must keep the microarchitectural invariants.
// Tally flits per message across every input-VC buffer of a network (its
// arena) or of the reference (its RouterState storage). Asserts credit
// safety along the way: no buffer
// ever holds more flits than its depth. Credits are implicit (one credit =
// one free downstream slot), so this is exactly "per-link credits never
// exceed the buffer depth" — the batched link pass hoists the credit read
// out of the arbitration loop, and this pins that the hoist can never admit
// an overfill. For the sparse engine it also checks the arena's credit-sink
// row (the fake "downstream" the ejection port points at) stays all-zero:
// ejection must never be throttled by it and nothing may push through it.
std::unordered_map<MsgId, int> bufferTally(const Network& net, int cycle) {
  std::unordered_map<MsgId, int> buffered;
  const RouterArena& a = net.arena();
  for (NodeId id = 0; id < net.topology().nodeCount(); ++id) {
    for (int u = 0; u < a.unitsPerRouter(); ++u) {
      const int g = a.base(id) + u;
      const int sz = a.size(g);
      EXPECT_LE(sz, a.depth()) << "overfilled unit " << g << " cycle " << cycle;
      for (int i = 0; i < sz; ++i) ++buffered[a.flitAt(g, i).msg];
    }
  }
  for (int vc = 0; vc < a.vcs(); ++vc) {
    EXPECT_EQ(a.size(a.creditSinkBase() + vc), 0)
        << "credit sink dirtied, vc " << vc << " cycle " << cycle;
  }
  return buffered;
}

std::unordered_map<MsgId, int> bufferTally(const DenseReference& ref, int cycle) {
  std::unordered_map<MsgId, int> buffered;
  for (const RouterState& r : ref.routers()) {
    for (int u = 0; u < r.unitCount(); ++u) {
      const FlitFifo& buf = r.unit(u).buf;
      EXPECT_LE(buf.size(), buf.capacity()) << "overfilled unit " << u << " cycle " << cycle;
      for (int i = 0; i < buf.size(); ++i) ++buffered[buf.flitAt(i).msg];
    }
  }
  return buffered;
}

// Per-cycle flit conservation, checked in lockstep:
//
//  1. The two engines' per-message buffer tallies are identical — every
//     message has exactly the same number of flits resident in each network.
//  2. Against the dense reference's transport counters (dense increments
//     Message::flitsEjected unconditionally; the sparse engine only does so
//     in debug builds), every buffered message balances: flits buffered ==
//     flits injected in its current network segment (NodeState::nextFlit
//     while streaming, the full length once the tail left the source) minus
//     flits ejected in that segment. No flit is lost, duplicated, or left
//     behind by the batched commit — caught at the cycle it happens, not
//     hundreds of cycles later in a diverged SimResult.
void checkConservation(const DenseReference& ref, const Network& sparse, int cycle) {
  const Network& dense = ref.network();
  const std::unordered_map<MsgId, int> bufD = bufferTally(ref, cycle);
  const std::unordered_map<MsgId, int> bufS = bufferTally(sparse, cycle);
  ASSERT_EQ(bufD.size(), bufS.size()) << "buffered message sets differ, cycle " << cycle;
  for (const auto& [msg, count] : bufD) {
    const auto it = bufS.find(msg);
    ASSERT_TRUE(it != bufS.end()) << "message " << msg << " buffered only in dense, cycle " << cycle;
    ASSERT_EQ(count, it->second) << "buffered flit count diverges for message " << msg << ", cycle " << cycle;
  }
  // Injection progress of the segment each streaming message is on.
  std::unordered_map<MsgId, int> streamingFlits;
  for (NodeId id = 0; id < dense.topology().nodeCount(); ++id) {
    const NodeState& n = dense.node(id);
    if (n.streaming != kInvalidMsg) streamingFlits[n.streaming] = n.nextFlit;
  }
  for (const auto& [msg, count] : bufD) {
    const Message& m = dense.pool().get(msg);
    const auto it = streamingFlits.find(msg);
    const int injected = it != streamingFlits.end() ? it->second : m.length;
    ASSERT_EQ(count, injected - static_cast<int>(m.flitsEjected))
        << "flit imbalance for message " << msg << " at cycle " << cycle
        << " (injected this segment " << injected << ", ejected "
        << m.flitsEjected << ")";
  }
}

TEST(EngineEquivalence, LockstepCountersAndInvariants) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.02;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  cfg.seed = 11;

  // The mt engine joins the lockstep at three domains: 16 nodes split 6/5/5,
  // so cross-domain links and mid-word domain boundaries are exercised on
  // every cycle.
  SimConfig mtCfg = cfg;
  mtCfg.engine = EngineKind::SparseMt;
  mtCfg.simThreads = 3;
  DenseReference ref(cfg);
  const Network& dense = ref.network();
  Network sparse(cfg);
  Network mt(mtCfg);
  for (int c = 0; c < 500; ++c) {
    ref.step(1);
    sparse.step(1);
    mt.step(1);
    ASSERT_EQ(dense.generated(), sparse.generated()) << "cycle " << c;
    ASSERT_EQ(dense.delivered(), sparse.delivered()) << "cycle " << c;
    ASSERT_EQ(dense.inFlight(), sparse.inFlight()) << "cycle " << c;
    ASSERT_EQ(dense.generated(), mt.generated()) << "cycle " << c;
    ASSERT_EQ(dense.delivered(), mt.delivered()) << "cycle " << c;
    ASSERT_EQ(dense.inFlight(), mt.inFlight()) << "cycle " << c;
    ASSERT_NO_FATAL_FAILURE(checkConservation(ref, sparse, c));
    ASSERT_NO_FATAL_FAILURE(checkConservation(ref, mt, c));
    // Arena-invariant oracle: every cycle, recompute the routed mask from
    // the route words and check that no buffered front arrived after the
    // cycle that just executed.
    ASSERT_EQ(sparse.arena().auditMasks(sparse.now() - 1), "") << "cycle " << c;
    ASSERT_EQ(mt.arena().auditMasks(mt.now() - 1), "") << "cycle " << c;
    if (c % 25 == 0) {
      ASSERT_EQ(ref.validateInvariants(), "") << "cycle " << c;
      ASSERT_EQ(sparse.validateInvariants(), "") << "cycle " << c;
      ASSERT_EQ(mt.validateInvariants(), "") << "cycle " << c;
    }
  }
}

// Header parking in lockstep with the dense reference, which retries a
// blocked header every cycle. On an 8-node ring with V = 2 and depth-1
// buffers each e-cube hop has one admissible VC, so messages 0 -> 3 and
// 1 -> 4 both need node 1's +x VC 0: one header wins it, the other fails its
// allocation and parks. The winner's tail leaving node 1 releases the VC,
// which must wake the parked header so that it routes on the very next
// cycle — the cycle the dense engine's retry first succeeds.
TEST(EngineEquivalence, ParkedHeaderWakesOnTailReleaseInLockstep) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 1;
  cfg.vcs = 2;
  cfg.bufferDepth = 1;
  cfg.messageLength = 6;
  cfg.injectionRate = 0.0;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = 2;
  DenseReference ref(cfg);
  Network sparse(cfg);
  TraceRecorder denseTrace, sparseTrace;
  ref.attachTrace(&denseTrace);
  sparse.attachTrace(&sparseTrace);
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3}, {1, 4}}) {
    ref.injectTestMessage(src, dst, cfg.messageLength, RoutingMode::Deterministic);
    sparse.injectTestMessage(src, dst, cfg.messageLength, RoutingMode::Deterministic);
  }
  const RouterArena& a = sparse.arena();
  int parkedCycles = 0;
  int parkedUnit = -1;
  std::uint64_t wokeAt = 0;
  for (int c = 0; c < 60 && sparse.delivered() < 2; ++c) {
    ref.step(1);
    sparse.step(1);
    ASSERT_EQ(sparse.arena().auditMasks(sparse.now() - 1), "") << "cycle " << c;
    ASSERT_EQ(sparse.validateInvariants(), "") << "cycle " << c;
    for (NodeId id = 0; id < sparse.topology().nodeCount(); ++id) {
      for (int u = 0; u < a.unitsPerRouter(); ++u) {
        ASSERT_EQ(a.routed(a.base(id) + u), ref.routers()[id].unit(u).routed)
            << "node " << id << " unit " << u << " cycle " << c;
      }
    }
    const std::uint64_t parked = a.parkedWords(1)[0];
    for (NodeId id = 0; id < sparse.topology().nodeCount(); ++id) {
      if (id != 1) {
        ASSERT_EQ(a.parkedWords(id)[0], 0u) << "node " << id;
      }
    }
    if (parked != 0) {
      ASSERT_EQ(std::popcount(parked), 1);
      parkedUnit = std::countr_zero(parked);
      ++parkedCycles;
      EXPECT_FALSE(a.routed(a.base(1) + parkedUnit));
    } else if (parkedUnit >= 0 && wokeAt == 0) {
      // Woken by this cycle's tail release, after the route phase: still
      // unrouted now, routed one cycle later in both engines.
      wokeAt = sparse.now();
      EXPECT_FALSE(a.routed(a.base(1) + parkedUnit)) << "cycle " << c;
      ref.step(1);
      sparse.step(1);
      EXPECT_TRUE(a.routed(a.base(1) + parkedUnit)) << "cycle " << c + 1;
      EXPECT_TRUE(ref.routers()[1].unit(parkedUnit).routed) << "cycle " << c + 1;
      ++c;
    }
  }
  EXPECT_GE(parkedCycles, 3) << "the loser must wait out the winner's body";
  EXPECT_NE(wokeAt, 0u) << "the parked header was never woken";
  ref.step(60);
  sparse.step(60);
  ASSERT_EQ(sparse.delivered(), 2u);
  ASSERT_EQ(ref.network().delivered(), 2u);
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    const auto& d = denseTrace.eventsFor(seq);
    const auto& s = sparseTrace.eventsFor(seq);
    ASSERT_EQ(d.size(), s.size()) << "seq " << seq;
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_TRUE(d[i].kind == s[i].kind && d[i].cycle == s[i].cycle &&
                  d[i].node == s[i].node && d[i].port == s[i].port)
          << "seq " << seq << " event " << i;
    }
  }
}

// runSweep must be a pure function of the points: thread count and
// completion order must not leak into any row.
TEST(EngineEquivalence, SweepDeterministicAcrossThreadCounts) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 10; ++i) {
    SweepPoint p;
    p.label = catName({"p", std::to_string(i)});
    p.cfg.radix = 4;
    p.cfg.dims = 2;
    p.cfg.vcs = 2;
    p.cfg.messageLength = 4;
    p.cfg.injectionRate = 0.002 + 0.002 * (i % 5);
    p.cfg.warmupMessages = 50;
    p.cfg.measuredMessages = 300;
    p.cfg.maxCycles = 200'000;
    p.cfg.seed = 40 + static_cast<std::uint64_t>(i);
    p.cfg.engine = (i % 2 == 0) ? EngineKind::Sparse : EngineKind::SparseMt;
    points.push_back(p);
  }
  const auto serial = runSweep(points, 1);
  const auto parallel = runSweep(points, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].point.label, parallel[i].point.label);
    expectSameResult(serial[i].result, parallel[i].result);
  }
}

}  // namespace
}  // namespace swft
