// Flow-control digits (flits) and the per-VC flit FIFO.
//
// Wormhole switching breaks each message into flits; only the header carries
// routing state, the data flits follow in a pipelined fashion (paper §2).
#pragma once

#include <cassert>
#include <cstdint>

namespace swft {

using MsgId = std::uint32_t;
inline constexpr MsgId kInvalidMsg = ~MsgId{0};

/// Width of a flit's message-id field. The message pool never hands out an
/// id of kFlitNoMsg or above, so every live id fits; kFlitNoMsg (all ones in
/// the field) is the id of a default-constructed flit.
inline constexpr int kFlitMsgBits = 30;
inline constexpr MsgId kFlitNoMsg = (MsgId{1} << kFlitMsgBits) - 1;

enum class FlitKind : std::uint8_t {
  Header = 1,      // first flit: carries the routing information
  Body = 0,        // middle flit
  Tail = 2,        // last flit: releases channel state as it passes
  HeaderTail = 3,  // single-flit message
};

/// One 32-bit word: the router arena's flit rings are the bulk of the
/// per-flit working set the cycle walks.
struct Flit {
  MsgId msg : kFlitMsgBits = kFlitNoMsg;
  FlitKind kind : 2 = FlitKind::Body;

  [[nodiscard]] bool isHeader() const noexcept {
    return kind == FlitKind::Header || kind == FlitKind::HeaderTail;
  }
  [[nodiscard]] bool isTail() const noexcept {
    return kind == FlitKind::Tail || kind == FlitKind::HeaderTail;
  }
};
static_assert(sizeof(Flit) == 4);

/// Kind of flit `index` (0-based) of a `length`-flit message: the one framing
/// rule for every engine's injection.
[[nodiscard]] constexpr FlitKind flitKindAt(int index, int length) noexcept {
  if (length == 1) return FlitKind::HeaderTail;
  if (index == 0) return FlitKind::Header;
  if (index == length - 1) return FlitKind::Tail;
  return FlitKind::Body;
}

/// Fixed-capacity ring buffer of flits with per-flit arrival stamps.
/// The stamp enforces the 1 cycle/hop timing: a flit that arrived in cycle t
/// is eligible to depart in cycle t+1 at the earliest.
class FlitFifo {
 public:
  static constexpr int kMaxDepth = 16;

  explicit FlitFifo(int capacity = 4) : capacity_(capacity) {
    assert(capacity >= 1 && capacity <= kMaxDepth);
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] int freeSlots() const noexcept { return capacity_ - size_; }

  void push(Flit f, std::uint64_t arrivalCycle) noexcept {
    assert(!full());
    const int idx = (head_ + size_) % kMaxDepth;
    flit_[idx] = f;
    arrivals_[idx] = arrivalCycle;
    ++size_;
  }

  [[nodiscard]] const Flit& front() const noexcept {
    assert(!empty());
    return flit_[head_];
  }
  /// Peek `i` positions behind the front (0 = front). Test/debug walks.
  [[nodiscard]] const Flit& flitAt(int i) const noexcept {
    assert(i >= 0 && i < size_);
    return flit_[(head_ + i) % kMaxDepth];
  }
  [[nodiscard]] std::uint64_t frontArrival() const noexcept {
    assert(!empty());
    return arrivals_[head_];
  }

  Flit pop() noexcept {
    assert(!empty());
    Flit f = flit_[head_];
    head_ = (head_ + 1) % kMaxDepth;
    --size_;
    return f;
  }

  void clear() noexcept { size_ = 0; }

 private:
  Flit flit_[kMaxDepth]{};
  std::uint64_t arrivals_[kMaxDepth]{};
  int head_ = 0;
  int size_ = 0;
  int capacity_;
};

}  // namespace swft
