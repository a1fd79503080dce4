// Slab allocator for in-flight messages.
//
// Flits reference messages by MsgId (an index into the slab); slots are
// recycled through a free list once the tail flit is consumed. A message gets
// its slot when its injection starts (a queued one waits at its source as its
// sequence number), so the pool size tracks the messages injecting, in the
// network, or held by the messaging layer.
#pragma once

#include <cstdint>
#include <vector>

#include "src/router/message.hpp"

namespace swft {

class MessagePool {
 public:
  /// The most messages alive at once: a flit carries its message id in
  /// kFlitMsgBits bits, and the all-ones id is the default flit's.
  static constexpr std::size_t kMaxLive = kFlitNoMsg;  // 2^30 - 1

  /// Allocate a slot; returns its id. The slot content is value-initialised.
  /// Throws std::runtime_error instead of handing out an id a flit cannot
  /// carry.
  MsgId allocate();
  /// Return a slot to the free list. The id must be live.
  void release(MsgId id);

  [[nodiscard]] Message& get(MsgId id) noexcept { return slots_[id]; }
  [[nodiscard]] const Message& get(MsgId id) const noexcept { return slots_[id]; }

  [[nodiscard]] std::size_t liveCount() const noexcept { return live_; }
  /// One flag per slot, set iff the slot is allocated. O(capacity); audits
  /// only.
  [[nodiscard]] std::vector<bool> liveSlots() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<Message> slots_;
  std::vector<MsgId> freeList_;
  std::size_t live_ = 0;

  friend struct MessagePoolTestAccess;  // white-box unit tests
};

}  // namespace swft
