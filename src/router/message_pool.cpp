#include "src/router/message_pool.hpp"

#include <stdexcept>
#include <string>

namespace swft {

MsgId MessagePool::allocate() {
  if (live_ >= kMaxLive) {
    throw std::runtime_error("MessagePool: more than " + std::to_string(kMaxLive) +
                             " messages alive at once (flit message ids are " +
                             std::to_string(kFlitMsgBits) +
                             " bits wide; the limit is 2^30-1)");
  }
  ++live_;
  if (!freeList_.empty()) {
    const MsgId id = freeList_.back();
    freeList_.pop_back();
    slots_[id] = Message{};
    return id;
  }
  slots_.emplace_back();
  return static_cast<MsgId>(slots_.size() - 1);
}

std::vector<bool> MessagePool::liveSlots() const {
  std::vector<bool> live(slots_.size(), true);
  for (const MsgId id : freeList_) live[id] = false;
  return live;
}

void MessagePool::release(MsgId id) {
  --live_;
  freeList_.push_back(id);
}

}  // namespace swft
