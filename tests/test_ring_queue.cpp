#include "src/util/ring_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "src/util/rng.hpp"

namespace swft {
namespace {

TEST(RingQueue, StartsEmpty) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u) << "no storage before the first push";
}

// Storage is 4 elements from the first push and doubles only when full, so
// it never exceeds twice the most elements held at once (or 4).
TEST(RingQueue, CapacityDoublesOnlyWhenFull) {
  RingQueue<int> q;
  q.push_back(0);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 1; i < 4; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), 4u);
  q.push_back(4);
  EXPECT_EQ(q.capacity(), 8u);
  q.pop_front();
  q.pop_front();
  q.clear();
  EXPECT_EQ(q.capacity(), 8u) << "clear keeps the storage";
}

TEST(RingQueue, PushPopFront) {
  RingQueue<int> q;
  q.push_back(1);
  q.push_back(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 1);
  q.pop_front();
  EXPECT_EQ(q.front(), 2);
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

// Pop one, push two: the head keeps moving, so every time the ring fills
// its elements wrap past the end of the storage. From the first allocation
// of 4 this doubles at 4, 8, 16, 32 and 64 elements, each time with the
// head away from slot 0; the elements must come out in push order.
TEST(RingQueue, KeepsFifoOrderAcrossWrappedDoublings) {
  RingQueue<int> q;
  int pushed = 0;
  int popped = 0;
  q.push_back(pushed++);
  q.push_back(pushed++);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(q.front(), popped);
    q.pop_front();
    ++popped;
    q.push_back(pushed++);
    q.push_back(pushed++);
  }
  ASSERT_EQ(q.size(), static_cast<std::size_t>(pushed - popped));
  for (std::size_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(q[i], popped + static_cast<int>(i)) << "indexed from the front";
  }
  while (!q.empty()) {
    ASSERT_EQ(q.front(), popped++);
    q.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(RingQueue, MatchesDequeOverInterleavedRuns) {
  Rng rng(0xF1F0);
  RingQueue<std::uint64_t> q;
  std::deque<std::uint64_t> oracle;
  for (int step = 0; step < 200'000; ++step) {
    // Phases of push-heavy and pop-heavy traffic, so the queue grows, wraps
    // and drains to empty many times over.
    const bool pushHeavy = (step / 5'000) % 2 == 0;
    const bool push = oracle.empty() || rng.next() % 4 < (pushHeavy ? 3u : 1u);
    if (push) {
      const std::uint64_t v = rng.next();
      q.push_back(v);
      oracle.push_back(v);
    } else {
      ASSERT_EQ(q.front(), oracle.front()) << "step " << step;
      q.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(q.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(q.empty(), oracle.empty());
  }
  while (!oracle.empty()) {
    ASSERT_EQ(q.front(), oracle.front());
    q.pop_front();
    oracle.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, ClearThenReuse) {
  RingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (int i = 100; i < 120; ++i) q.push_back(i);
  ASSERT_EQ(q.size(), 20u);
  for (int i = 100; i < 120; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace swft
