#include "src/sim/router_arena.hpp"

#include <gtest/gtest.h>

#include "src/sim/link_qual.hpp"

namespace swft {
namespace {

// 4 nodes of a 2-D torus router: 5 input ports (4 network + injection), V=4.
RouterArena smallArena(int depth = 2) { return RouterArena(4, 5, 4, 4, depth); }

TEST(RouterArena, LayoutAndIndexing) {
  RouterArena a = smallArena();
  EXPECT_EQ(a.vcs(), 4);
  EXPECT_EQ(a.depth(), 2);
  EXPECT_EQ(a.unitsPerRouter(), 20);
  EXPECT_EQ(a.base(0), 0);
  EXPECT_EQ(a.base(3), 60);
  EXPECT_EQ(a.unitIndex(0, 0, 0), 0);
  EXPECT_EQ(a.unitIndex(1, 3, 2), 34);  // base 20 + port 3 * 4 + vc 2
}

TEST(RouterArena, FifoOrderAndArrivalStamps) {
  RouterArena a = smallArena(3);
  const int u = a.unitIndex(2, 1, 0);
  EXPECT_TRUE(a.empty(u));
  a.push(2, u, Flit{10, FlitKind::Header}, 100);
  a.push(2, u, Flit{10, FlitKind::Body}, 101);
  a.push(2, u, Flit{10, FlitKind::Tail}, 102);
  EXPECT_TRUE(a.full(u)) << "depth 3 reached";
  EXPECT_EQ(a.size(u), 3);
  EXPECT_EQ(a.lastPush(u), 102u);
  EXPECT_FALSE(a.frontArrivedIn(u, 102)) << "the front arrived before the latest push";
  EXPECT_EQ(a.flitAt(u, 2).kind, FlitKind::Tail);
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Header);
  EXPECT_FALSE(a.frontArrivedIn(u, 103)) << "two survivors: the body arrived in 101";
  // Ring wrap: the freed slot is reusable immediately.
  a.push(2, u, Flit{11, FlitKind::Header}, 103);
  EXPECT_TRUE(a.full(u));
  EXPECT_FALSE(a.frontArrivedIn(u, 103)) << "the new header queues behind two flits";
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Body);
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Tail);
  EXPECT_TRUE(a.frontArrivedIn(u, 103)) << "a lone flit is the latest push";
  EXPECT_FALSE(a.frontArrivedIn(u, 104));
  EXPECT_EQ(a.pop(2, u).msg, 11u);
  EXPECT_TRUE(a.empty(u));
  EXPECT_FALSE(a.frontArrivedIn(u, 103)) << "an empty unit has no front";
}

TEST(RouterArena, BuffersAreIndependent) {
  RouterArena a = smallArena(3);
  a.push(0, a.unitIndex(0, 0, 0), Flit{1, FlitKind::Header}, 0);
  a.push(0, a.unitIndex(0, 0, 1), Flit{2, FlitKind::Header}, 0);
  EXPECT_EQ(a.front(a.unitIndex(0, 0, 0)).msg, 1u);
  EXPECT_EQ(a.front(a.unitIndex(0, 0, 1)).msg, 2u);
  EXPECT_EQ(a.size(a.unitIndex(0, 1, 0)), 0);
  EXPECT_EQ(a.size(a.unitIndex(1, 0, 0)), 0) << "next router's units unaffected";
}

TEST(RouterArena, OccupancyWordsCountsAndActiveSet) {
  // 3-D router geometry, V=10: 70 units/router crosses occupancy word 0/1.
  RouterArena a(70, 7, 6, 10, 4);
  EXPECT_EQ(a.occWordsPerRouter(), 2);
  EXPECT_FALSE(a.anyOccupied(65));
  EXPECT_EQ(a.activeWords()[1], 0u);

  a.push(65, a.base(65) + 3, Flit{1, FlitKind::Header}, 0);
  a.push(65, a.base(65) + 69, Flit{2, FlitKind::Header}, 0);
  a.push(65, a.base(65) + 69, Flit{2, FlitKind::Body}, 1);
  EXPECT_TRUE(a.anyOccupied(65));
  EXPECT_EQ(a.occupiedUnits(65), 2);
  EXPECT_TRUE(a.occWords(65)[0] & (1ULL << 3));
  EXPECT_TRUE(a.occWords(65)[1] & (1ULL << 5));  // 69 = 64 + 5
  EXPECT_TRUE(a.activeWords()[1] & (1ULL << 1));  // node 65 = word 1, bit 1

  a.pop(65, a.base(65) + 3);
  EXPECT_FALSE(a.occWords(65)[0] & (1ULL << 3));
  EXPECT_EQ(a.occupiedUnits(65), 1);
  EXPECT_TRUE(a.anyOccupied(65)) << "unit 69 still holds two flits";
  a.pop(65, a.base(65) + 69);
  EXPECT_TRUE(a.anyOccupied(65)) << "pop of one flit of two keeps the bit";
  a.pop(65, a.base(65) + 69);
  EXPECT_FALSE(a.anyOccupied(65));
  EXPECT_EQ(a.activeWords()[1], 0u) << "active bit cleared with the last flit";
}

TEST(RouterArena, RouteAllocationLifecycle) {
  RouterArena a = smallArena();
  const int local = 2 * 4 + 3;  // port 2, vc 3
  const int g = a.unitIndex(1, 2, 3);
  EXPECT_FALSE(a.routed(g));
  a.allocateRoute(1, local, 3, 1);
  EXPECT_TRUE(a.routed(g));
  EXPECT_EQ(a.outPort(g), 3);
  EXPECT_EQ(a.outVc(g), 1);
  EXPECT_FALSE(a.routed(g + 1)) << "neighbouring unit unaffected";
  EXPECT_TRUE(a.routedWords(1)[0] & (1ULL << local));
  EXPECT_EQ(a.routedWords(2)[0], 0u) << "other router";
  EXPECT_EQ(a.auditMasks(0), "");
  // Once occupied, the link pass buckets the unit under port 3 only.
  a.push(1, g, Flit{1, FlitKind::Header}, 0);
  std::int32_t downBase[5];
  for (int p = 0; p < 4; ++p) downBase[p] = a.unitIndex(0, p ^ 1, 0);
  downBase[4] = a.creditSinkBase();
  std::uint64_t okp[5];
  EXPECT_EQ(qualifyLinkCandidates(a, 1, downBase, 1, okp, 5), 1ULL << 3);
  EXPECT_EQ(okp[3], 1ULL << local);
  EXPECT_EQ(qualifyLinkCandidates(a, 2, downBase, 1, okp, 5), 0u) << "other router";
  a.releaseRoute(1, local);
  EXPECT_FALSE(a.routed(g));
  EXPECT_EQ(a.routedWords(1)[0], 0u);
  EXPECT_EQ(qualifyLinkCandidates(a, 1, downBase, 1, okp, 5), 0u);
  EXPECT_EQ(a.auditMasks(0), "");
}

TEST(RouterArena, AuditRejectsStampFromTheFuture) {
  RouterArena a = smallArena();
  a.push(2, a.unitIndex(2, 1, 0), Flit{1, FlitKind::Header}, 7);
  EXPECT_EQ(a.auditMasks(7), "");
  EXPECT_NE(a.auditMasks(6).find("stamp from the future"), std::string::npos);
}

// Parking is a per-router row: a failed VC allocation parks one unit, and
// releasing any output VC of that router (releaseVc) wakes them
// all. The audit accepts only parked units that are occupied, unrouted and
// fronted by a header.
TEST(RouterArena, ParkedRowLifecycleAndAudit) {
  RouterArena a = smallArena();
  a.push(1, a.unitIndex(1, 0, 1), Flit{4, FlitKind::Header}, 0);
  a.push(1, a.unitIndex(1, 4, 0), Flit{5, FlitKind::Header}, 0);
  a.park(1, 0 * 4 + 1);
  a.park(1, 4 * 4 + 0);
  EXPECT_EQ(a.parkedWords(1)[0], (1ULL << 1) | (1ULL << 16));
  EXPECT_EQ(a.parkedWords(0)[0], 0u) << "other routers unaffected";
  EXPECT_EQ(a.auditMasks(0), "");
  a.claimVc(1, 2, 1);
  EXPECT_NE(a.parkedWords(1)[0], 0u) << "taking a VC wakes nobody";
  a.releaseVc(2, 2, 1);
  EXPECT_NE(a.parkedWords(1)[0], 0u) << "another router's release wakes nobody";
  a.releaseVc(1, 2, 1);
  EXPECT_EQ(a.parkedWords(1)[0], 0u) << "a release wakes the whole router";

  a.park(1, 2);  // empty unit
  EXPECT_NE(a.auditMasks(0).find("parked unit"), std::string::npos);
  a.releaseVc(1, 0, 0);
  a.park(1, 0 * 4 + 1);
  a.allocateRoute(1, 0 * 4 + 1, 2, 0);  // routed
  EXPECT_NE(a.auditMasks(0).find("parked unit"), std::string::npos);
  a.releaseRoute(1, 0 * 4 + 1);
  a.releaseVc(1, 0, 0);
  const int body = a.unitIndex(1, 3, 3);
  a.push(1, body, Flit{6, FlitKind::Body}, 0);
  a.park(1, 3 * 4 + 3);  // fronted by a body flit
  EXPECT_NE(a.auditMasks(0).find("parked unit"), std::string::npos);
}

// A unit's one stamp holds the low 32 bits of its latest push's cycle, so
// freshness ("the front arrived this cycle") must hold straight across
// cycle 2^32, and the clamp renormaliseStamps applies on the engine's
// 2^30-cycle schedule must keep an old stamp from ever wrapping round to
// equal the current cycle.
TEST(RouterArena, FreshnessAcrossCycle2To32AndStampClamp) {
  RouterArena a = smallArena(4);
  constexpr std::uint64_t kWrap = std::uint64_t{1} << 32;
  constexpr std::uint64_t kAge = RouterArena::kMaxStampAge;
  std::int32_t downBase[5];
  for (int p = 0; p < 4; ++p) downBase[p] = a.unitIndex(1, p ^ 1, 0);
  downBase[4] = a.creditSinkBase();
  std::uint64_t okp[5];
  const auto qualifies = [&](std::uint64_t cycle) {
    return qualifyLinkCandidates(a, 0, downBase, cycle, okp, 5) != 0;
  };
  // One message through one unit, one event per cycle in engine order
  // (a cycle's pushes never carry a later stamp than the cycle).
  const int u = a.unitIndex(0, 4, 2);
  a.push(0, u, Flit{1, FlitKind::Header}, kWrap - 2);
  a.allocateRoute(0, 4 * 4 + 2, 1, 0);
  EXPECT_FALSE(qualifies(kWrap - 2)) << "arrived this cycle";
  EXPECT_TRUE(qualifies(kWrap - 1));
  EXPECT_EQ(a.pop(0, u).kind, FlitKind::Header);  // in kWrap - 1
  a.push(0, u, Flit{1, FlitKind::Body}, kWrap - 1);
  EXPECT_FALSE(qualifies(kWrap - 1));
  a.push(0, u, Flit{1, FlitKind::Body}, kWrap);
  EXPECT_TRUE(qualifies(kWrap)) << "the front arrived in kWrap - 1, across the wrap";
  a.push(0, u, Flit{1, FlitKind::Tail}, kWrap + 1);
  EXPECT_EQ(a.pop(0, u).kind, FlitKind::Body);  // in kWrap + 1
  EXPECT_TRUE(qualifies(kWrap + 1)) << "two survivors, the front from kWrap";
  EXPECT_EQ(a.auditMasks(kWrap + 1), "");
  EXPECT_NE(a.auditMasks(kWrap - 1).find("from the future"), std::string::npos);
  EXPECT_EQ(a.pop(0, u).kind, FlitKind::Body);  // in kWrap + 2
  EXPECT_FALSE(qualifies(kWrap + 1)) << "the lone tail arrived in kWrap + 1";
  EXPECT_TRUE(qualifies(kWrap + 2));

  // The lone tail now sits still. Unclamped, its stamp (the low bits of
  // kWrap + 1) would equal those of cycle 2 kWrap + 1 and make it look fresh
  // again. The first pass clamps a stamp older than 2^30 to exactly that age
  // and leaves younger ones — the tail's, 2^30 - 1 old — alone.
  const int old = a.unitIndex(2, 3, 1);
  a.push(2, old, Flit{2, FlitKind::HeaderTail}, kWrap - 3);
  a.renormaliseStamps(kWrap + kAge);
  EXPECT_EQ(a.lastPush(old), static_cast<std::uint32_t>(kWrap)) << "clamped to age 2^30";
  EXPECT_EQ(a.lastPush(u), static_cast<std::uint32_t>(kWrap + 1)) << "younger, untouched";
  EXPECT_EQ(a.auditMasks(kWrap + kAge - 1), "");
  // Ages keep counting from the clamp, so each later pass finds a stamp at
  // most 2^31 old and clamps it again; it never wraps to look fresh.
  for (std::uint64_t pass = kWrap + 2 * kAge; pass <= 2 * kWrap; pass += kAge) {
    a.renormaliseStamps(pass);
    EXPECT_EQ(a.lastPush(u), static_cast<std::uint32_t>(pass - kAge));
    EXPECT_EQ(a.lastPush(old), static_cast<std::uint32_t>(pass - kAge));
  }
  EXPECT_FALSE(a.frontArrivedIn(u, 2 * kWrap + 1));
  EXPECT_TRUE(qualifies(2 * kWrap + 1));
  EXPECT_EQ(a.auditMasks(2 * kWrap), "");
}

// The direct link predicate on a hand-built router 0 of the small arena:
// a routed front qualifies iff it arrived before the executing cycle and the
// downstream unit it feeds is not full.
TEST(LinkQual, QualifiesFromArenaState) {
  RouterArena a = smallArena(2);  // depth 2, V = 4, ejection port 4
  constexpr std::uint64_t kCycle = 5;
  // Port p of router 0 feeds input port p ^ 1 of router 1 + p % 3; the
  // ejection port feeds the credit sink.
  std::int32_t downBase[5];
  for (int p = 0; p < 4; ++p) downBase[p] = a.unitIndex(1 + p % 3, p ^ 1, 0);
  downBase[4] = a.creditSinkBase();
  const auto occupy = [&](int local, std::uint64_t arrival) {
    a.push(0, local, Flit{static_cast<MsgId>(local), FlitKind::Header}, arrival);
  };
  occupy(0, 4);               // arrived last cycle -> port 1 vc 2, empty downstream
  a.allocateRoute(0, 0, 1, 2);
  occupy(2, 1);               // -> port 1 vc 3, downstream half full
  a.allocateRoute(0, 2, 1, 3);
  a.push(2, downBase[1] + 3, Flit{90, FlitKind::Body}, 0);
  occupy(5, kCycle);          // pushed this cycle -> port 2: not yet eligible
  a.allocateRoute(0, 5, 2, 0);
  occupy(9, 3);               // -> port 3 vc 1, downstream full: blocked
  a.allocateRoute(0, 9, 3, 1);
  a.push(1, downBase[3] + 1, Flit{91, FlitKind::Body}, 0);
  a.push(1, downBase[3] + 1, Flit{91, FlitKind::Body}, 1);
  occupy(17, 2);              // injection unit -> ejection through the sink
  a.allocateRoute(0, 17, 4, 0);
  occupy(12, 0);              // occupied but unrouted: not a candidate
  a.allocateRoute(0, 13, 0, 1);  // routed but empty: not a candidate

  std::uint64_t okp[5];
  for (std::uint64_t& row : okp) row = ~0ULL;  // the pass assigns every row
  const std::uint64_t pm = qualifyLinkCandidates(a, 0, downBase, kCycle, okp, 5);
  EXPECT_EQ(okp[0], 0u);
  EXPECT_EQ(okp[1], (1ULL << 0) | (1ULL << 2));
  EXPECT_EQ(okp[2], 0u) << "a front pushed this cycle does not qualify";
  EXPECT_EQ(okp[3], 0u) << "a full downstream unit does not qualify";
  EXPECT_EQ(okp[4], 1ULL << 17) << "the credit sink always has credit";
  EXPECT_EQ(pm, (1ULL << 1) | (1ULL << 4));

  // Next cycle the fresh front is eligible too; popping the full downstream
  // unit frees the blocked candidate.
  a.pop(1, downBase[3] + 1);
  EXPECT_EQ(qualifyLinkCandidates(a, 0, downBase, kCycle + 1, okp, 5), 0b11110u);
  EXPECT_EQ(okp[2], 1ULL << 5);
  EXPECT_EQ(okp[3], 1ULL << 9);
}

// The same pass on a two-word router: port p's qualified candidates in
// occupancy word w land in okp[w * ports + p], and circularFirst picks each
// port's round-robin winner across the words.
TEST(LinkQual, QualifiesAndPicksWinnersOnMultiWordRouter) {
  RouterArena a(2, 7, 6, 10, 2);  // 70 units per router: two words
  ASSERT_EQ(a.occWordsPerRouter(), 2);
  constexpr int kPorts = 7;
  constexpr int kEject = 6;
  constexpr std::uint64_t kCycle = 9;
  std::int32_t downBase[kPorts];
  for (int p = 0; p < kEject; ++p) downBase[p] = a.unitIndex(1, p ^ 1, 0);
  downBase[kEject] = a.creditSinkBase();
  const auto request = [&](int local, std::uint64_t arrival, int port, int vc) {
    a.push(0, local, Flit{static_cast<MsgId>(local), FlitKind::Header}, arrival);
    a.allocateRoute(0, local, port, vc);
  };
  request(3, kCycle, 0, 0);  // arrived this cycle
  request(10, 1, 0, 1);      // downstream full
  a.push(1, downBase[0] + 1, Flit{1, FlitKind::Body}, 0);
  a.push(1, downBase[0] + 1, Flit{1, FlitKind::Body}, 0);
  request(20, 2, 0, 2);
  request(66, 3, 0, 3);
  request(64, 4, kEject, 0);  // ejection through the credit sink
  request(69, 5, kEject, 0);  // the last unit

  std::uint64_t okp[2 * kPorts];
  for (std::uint64_t& row : okp) row = ~0ULL;  // the pass assigns every entry
  EXPECT_EQ(qualifyLinkCandidates(a, 0, downBase, kCycle, okp, kPorts),
            (1ULL << 0) | (1ULL << kEject));
  for (int w = 0; w < 2; ++w) {
    for (int p = 0; p < kPorts; ++p) {
      std::uint64_t want = 0;
      if (p == 0) want = w == 0 ? 1ULL << 20 : 1ULL << (66 - 64);
      if (p == kEject && w == 1) want = (1ULL << (64 - 64)) | (1ULL << (69 - 64));
      EXPECT_EQ(okp[w * kPorts + p], want) << "word " << w << " port " << p;
    }
  }

  const auto winner = [&](int port, int cursor) {
    return circularFirst(okp + port, kPorts, 2, cursor);
  };
  EXPECT_EQ(winner(0, 0), 20);
  EXPECT_EQ(winner(0, 20), 20) << "the unit at the cursor is first";
  EXPECT_EQ(winner(0, 21), 66) << "crosses into word 1";
  EXPECT_EQ(winner(0, 67), 20) << "cursor in word 1 wraps to word 0";
  EXPECT_EQ(winner(0, 69), 20) << "cursor on the last unit wraps";
  EXPECT_EQ(winner(kEject, 69), 69) << "cursor on the last unit picks it";
  EXPECT_EQ(winner(kEject, 65), 69);
  EXPECT_EQ(winner(kEject, 0), 64) << "ejection winner via the credit sink";

  // Draining the full downstream unit qualifies unit 10 next cycle; unit 3
  // is no longer fresh either.
  a.pop(1, downBase[0] + 1);
  qualifyLinkCandidates(a, 0, downBase, kCycle + 1, okp, kPorts);
  EXPECT_EQ(okp[0], (1ULL << 3) | (1ULL << 10) | (1ULL << 20));
  EXPECT_EQ(winner(0, 4), 10);
}

// circularFirst on synthetic bitsets: a one-word row (the rotate path) and a
// five-word router (2-ary 8-cube at V = 16: 17 ports x 16 = 272 units)
// whose only bit sits below the cursor in the cursor's own word.
TEST(LinkQual, CircularFirstWrapsInEveryWidth) {
  const std::uint64_t one[] = {(1ULL << 2) | (1ULL << 40)};
  EXPECT_EQ(circularFirst(one, 1, 1, 0), 2);
  EXPECT_EQ(circularFirst(one, 1, 1, 3), 40);
  EXPECT_EQ(circularFirst(one, 1, 1, 41), 2) << "wraps";
  EXPECT_EQ(circularFirst(one, 1, 1, 63), 2);

  constexpr int kStride = 3;  // column 1 of a words x 3 okp array
  std::uint64_t five[5 * kStride] = {};
  five[2 * kStride + 1] = 1ULL << 5;  // unit 133
  EXPECT_EQ(circularFirst(five + 1, kStride, 5, 140), 133)
      << "only the cursor word's tail is left";
  EXPECT_EQ(circularFirst(five + 1, kStride, 5, 271), 133);
  EXPECT_EQ(circularFirst(five + 1, kStride, 5, 0), 133);
  five[4 * kStride + 1] = 1ULL << 15;  // unit 271
  EXPECT_EQ(circularFirst(five + 1, kStride, 5, 140), 271);
  EXPECT_EQ(circularFirst(five + 1, kStride, 5, 133), 133);
}

// claimVc clears a VC's bit in the free mask that VC allocation reads and
// releaseVc sets it again, touching no other VC, port or router.
TEST(RouterArena, FreeVcClaimReleaseRoundTrip) {
  RouterArena a = smallArena();
  constexpr std::uint16_t kAll = 0b1111;  // V = 4
  EXPECT_EQ(a.freeVcMask(1, 2), kAll);
  a.claimVc(1, 2, 1);
  EXPECT_EQ(a.freeVcMask(1, 2), kAll & ~0b10);
  a.claimVc(1, 2, 3);
  EXPECT_EQ(a.freeVcMask(1, 2), 0b0101);
  EXPECT_EQ(a.freeVcMask(1, 1), kAll) << "other ports unaffected";
  EXPECT_EQ(a.freeVcMask(2, 2), kAll) << "other routers unaffected";
  a.releaseVc(1, 2, 1);
  EXPECT_EQ(a.freeVcMask(1, 2), kAll & ~0b1000);
  a.releaseVc(1, 2, 3);
  EXPECT_EQ(a.freeVcMask(1, 2), kAll);
}

TEST(RouterArena, CursorsPerNodeAndPort) {
  RouterArena a = smallArena();
  EXPECT_EQ(a.cursor(0, 0), 0);
  a.setCursor(0, 0, 13);
  a.setCursor(0, 4, 7);
  a.setCursor(3, 0, 2);
  EXPECT_EQ(a.cursor(0, 0), 13);
  EXPECT_EQ(a.cursor(0, 4), 7);
  EXPECT_EQ(a.cursor(0, 1), 0);
  EXPECT_EQ(a.cursor(3, 0), 2);
}

TEST(RouterArena, RejectsBadGeometry) {
  EXPECT_THROW(RouterArena(4, 5, 4, 4, 0), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 4, FlitFifo::kMaxDepth + 1), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 0, 4), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 17, 4), std::invalid_argument);
  EXPECT_NO_THROW(RouterArena(4, 17, 16, 16, 4));  // 8-D router at V=16
}

TEST(RouterArena, NonPowerOfTwoDepthRoundsStrideUp) {
  RouterArena a(2, 5, 4, 4, 5);  // stride 8, capacity stays 5
  const int u = a.unitIndex(1, 0, 0);
  for (int i = 0; i < 5; ++i) a.push(1, u, Flit{1, FlitKind::Body}, 0);
  EXPECT_TRUE(a.full(u));
  EXPECT_EQ(a.size(u), 5);
  for (int i = 0; i < 5; ++i) a.pop(1, u);
  EXPECT_TRUE(a.empty(u));
}

}  // namespace
}  // namespace swft
