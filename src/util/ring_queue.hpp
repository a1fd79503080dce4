// A FIFO that owns no storage until its first push.
//
// Every node holds two message queues (the source queue and the messaging
// layer's re-injection queue), and many stay empty for a whole run: faulty
// nodes never generate, and only nodes that absorb a message queue a
// re-injection. A default-constructed std::deque already allocates a map and
// a chunk (about 600 bytes), so a 4096-node network paid tens of thousands of
// allocations before its first cycle. This ring is a power-of-two
// std::vector plus a head and a size, and doubles in FIFO order when full.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace swft {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingQueue is intended for small trivially copyable types");

 public:
  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = v;
    ++size_;
  }
  void pop_front() noexcept {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask();
    --size_;
  }
  /// Empties the queue and keeps its storage for reuse.
  void clear() noexcept { head_ = size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  T& front() noexcept {
    assert(size_ > 0);
    return buf_[head_];
  }
  /// The i-th element from the front (audits walk a queue without popping).
  const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return buf_[(head_ + i) & mask()];
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 4;

  [[nodiscard]] std::uint32_t mask() const noexcept {
    return static_cast<std::uint32_t>(buf_.size()) - 1;
  }

  // Doubles the ring, copying the elements out from the head so they sit in
  // FIFO order at the start of the new storage.
  void grow() {
    std::vector<T> grown(buf_.empty() ? kFirstCapacity : 2 * buf_.size());
    for (std::uint32_t i = 0; i < size_; ++i) grown[i] = buf_[(head_ + i) & mask()];
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  // 32 bits suffice: a source queue holds at most the 2^32 - 1 messages the
  // generation sequence counter allows (Network::kMaxMessages), and a
  // re-injection queue at most the message pool's 2^30 - 1 live ids.
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace swft
