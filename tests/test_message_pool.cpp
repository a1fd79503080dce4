#include "src/router/message_pool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace swft {

struct MessagePoolTestAccess {
  static void setLive(MessagePool& pool, std::size_t live) { pool.live_ = live; }
};

namespace {

TEST(MessagePool, AllocateInitialisesSlot) {
  MessagePool pool;
  const MsgId id = pool.allocate();
  const Message& m = pool.get(id);
  EXPECT_EQ(m.src, kInvalidNode);
  EXPECT_EQ(m.absorptions, 0);
  EXPECT_EQ(pool.liveCount(), 1u);
}

TEST(MessagePool, ReleaseRecyclesSlots) {
  MessagePool pool;
  const MsgId a = pool.allocate();
  pool.get(a).hops = 99;
  pool.release(a);
  EXPECT_EQ(pool.liveCount(), 0u);
  const MsgId b = pool.allocate();
  EXPECT_EQ(b, a) << "slot must be recycled";
  EXPECT_EQ(pool.get(b).hops, 0u) << "recycled slot must be re-initialised";
}

TEST(MessagePool, CapacityTracksPeakNotLive) {
  MessagePool pool;
  const MsgId a = pool.allocate();
  const MsgId b = pool.allocate();
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.capacity(), 2u);
  pool.allocate();
  pool.allocate();
  EXPECT_EQ(pool.capacity(), 2u);
  pool.allocate();
  EXPECT_EQ(pool.capacity(), 3u);
  EXPECT_EQ(pool.liveCount(), 3u);
}

// A flit carries its message id in 30 bits, so the pool refuses to hand
// out an id past the 2^30 - 1 live-message limit rather than let it be
// truncated. The live count is set to the limit directly, not reached by
// a billion allocations.
TEST(MessagePool, RefusesIdsAFlitCannotCarry) {
  EXPECT_EQ(MessagePool::kMaxLive, (std::size_t{1} << 30) - 1);
  EXPECT_LT(MessagePool::kMaxLive - 1, std::size_t{kFlitNoMsg}) << "largest id";
  MessagePool pool;
  const MsgId a = pool.allocate();
  MessagePoolTestAccess::setLive(pool, MessagePool::kMaxLive);
  try {
    pool.allocate();
    ADD_FAILURE() << "message past the limit allocated";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^30-1"), std::string::npos) << e.what();
  }
  EXPECT_EQ(pool.liveCount(), MessagePool::kMaxLive);
  pool.release(a);
  EXPECT_EQ(pool.allocate(), a) << "a released slot is usable again";
  EXPECT_EQ(pool.liveCount(), MessagePool::kMaxLive);
}

TEST(Flit, PacksIdAndKindIntoOneWord) {
  const Flit def;
  EXPECT_EQ(def.msg, kFlitNoMsg);
  EXPECT_EQ(def.kind, FlitKind::Body);
  const Flit f{kFlitNoMsg - 1, FlitKind::HeaderTail};
  EXPECT_EQ(f.msg, kFlitNoMsg - 1);
  EXPECT_TRUE(f.isHeader());
  EXPECT_TRUE(f.isTail());
}

TEST(Message, FlitKindLayout) {
  Message m;
  m.length = 4;
  EXPECT_EQ(m.flitKindAt(0), FlitKind::Header);
  EXPECT_EQ(m.flitKindAt(1), FlitKind::Body);
  EXPECT_EQ(m.flitKindAt(2), FlitKind::Body);
  EXPECT_EQ(m.flitKindAt(3), FlitKind::Tail);
  m.length = 1;
  EXPECT_EQ(m.flitKindAt(0), FlitKind::HeaderTail);
  m.length = 2;
  EXPECT_EQ(m.flitKindAt(0), FlitKind::Header);
  EXPECT_EQ(m.flitKindAt(1), FlitKind::Tail);
}

TEST(Message, WrapFlagsPerDimension) {
  Message m;
  EXPECT_FALSE(m.wrapped(0));
  m.setWrapped(2);
  EXPECT_TRUE(m.wrapped(2));
  EXPECT_FALSE(m.wrapped(0));
  m.setWrapped(0);
  m.resetTransit();
  EXPECT_FALSE(m.wrapped(0));
  EXPECT_FALSE(m.wrapped(2));
}

}  // namespace
}  // namespace swft
