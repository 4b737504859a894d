#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::sim {

EventHandle EventQueue::schedule(TimePoint at, Callback cb) {
  AQUEDUCT_CHECK(cb != nullptr);
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    AQUEDUCT_CHECK_MSG(slots_.size() < UINT32_MAX, "event slot table full");
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].stamp = seq;
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return EventHandle(slot, seq);
}

bool EventQueue::cancel(const EventHandle& handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  Slot& slot = slots_[handle.slot_];
  if (slot.stamp != handle.seq_) return false;  // fired, cancelled, or reused
  // The callback stays in its slot until the entry reaches the heap head,
  // exactly as long as a lazily removed entry always kept it.
  slot.stamp = 0;
  AQUEDUCT_CHECK(live_ > 0);
  --live_;
  return true;
}

std::pair<EventQueue::Entry, EventQueue::Callback> EventQueue::take_top() const {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  Slot& slot = slots_[top.slot];
  Callback cb = std::move(slot.cb);
  slot.cb = nullptr;
  slot.stamp = 0;
  free_slots_.push_back(top.slot);
  return {top, std::move(cb)};
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && slots_[heap_.front().slot].stamp != heap_.front().seq) {
    take_top();
  }
}

bool EventQueue::empty() const {
  skip_cancelled();
  return heap_.empty();
}

TimePoint EventQueue::next_time() const {
  skip_cancelled();
  AQUEDUCT_CHECK(!heap_.empty());
  return heap_.front().at;
}

std::pair<TimePoint, EventQueue::Callback> EventQueue::pop() {
  skip_cancelled();
  AQUEDUCT_CHECK(!heap_.empty());
  // The callback is moved out of its slot, never copied. Recycling the
  // slot makes a handle held by the scheduler report cancel() == false.
  auto [top, cb] = take_top();
  AQUEDUCT_CHECK(live_ > 0);
  --live_;
  return {top.at, std::move(cb)};
}

}  // namespace aqueduct::sim
