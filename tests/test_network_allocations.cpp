// Building a Network must not make heap allocations per node: an idle node's
// queues own no storage, so a 4096-node network costs about as many
// allocations as a 16-node one. This binary replaces the global operator new
// with one that counts calls while a window is open.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/sim/network.hpp"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::size_t> gAllocations{0};

void* countedAlloc(std::size_t size) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every plain form is replaced, so memory from these operators is never
// released through a sanitizer's own operator delete.
void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace swft {
namespace {

SimConfig faultFree(int k, int n) {
  SimConfig cfg;
  cfg.radix = k;
  cfg.dims = n;
  cfg.vcs = 4;
  cfg.injectionRate = 0.006;
  return cfg;
}

std::size_t constructionAllocations(const SimConfig& cfg) {
  gAllocations.store(0);
  gCounting.store(true);
  const Network net(cfg);
  gCounting.store(false);
  return gAllocations.load();
}

TEST(NetworkAllocations, ConstructionDoesNotGrowWithNodeCount) {
  const std::size_t small = constructionAllocations(faultFree(4, 2));  // 16 nodes
  const std::size_t large = constructionAllocations(faultFree(16, 3));  // 4096 nodes
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, small + 64)
      << "4-ary 2-cube: " << small << " allocations, 16-ary 3-cube: " << large;
}

}  // namespace
}  // namespace swft
