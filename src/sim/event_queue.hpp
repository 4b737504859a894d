// Priority event queue for the discrete-event simulator.
//
// Events scheduled for the same time point fire in scheduling order
// (FIFO tie-break by sequence number) so simulations are fully
// deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace aqueduct::sim {

/// Opaque handle to a scheduled event, usable for cancellation.
class EventHandle {
 public:
  EventHandle() = default;
  /// True if this handle ever referred to an event (cancelled or not).
  bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Min-heap of timed callbacks with O(1) cancellation (lazy removal).
///
/// Each scheduled event owns a slot in a table that holds its callback and
/// a stamp: the event's sequence number while it is live, 0 once it is
/// cancelled. A handle names (slot, seq), so it can only ever cancel the
/// event it was issued for — a slot is recycled through a free list once
/// its heap entry is gone, and the next event there has a new seq. The
/// heap itself orders small (time, seq, slot) entries.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` to fire at time `at`.
  EventHandle schedule(TimePoint at, Callback cb);

  /// Cancels the event behind `handle`. Returns false if the event already
  /// fired, was already cancelled, or the handle is empty.
  bool cancel(const EventHandle& handle);

  /// True if no live (non-cancelled) events remain.
  bool empty() const;

  /// Time of the earliest live event. Requires !empty().
  TimePoint next_time() const;

  /// Pops the earliest live event and returns its (time, callback).
  /// Requires !empty().
  std::pair<TimePoint, Callback> pop();

  /// Number of live events currently queued.
  std::size_t size() const { return live_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint64_t stamp = 0;  // seq of the live event; 0 once cancelled
    Callback cb;
  };

  /// Removes the heap's head entry and recycles its slot, returning the
  /// entry and its callback.
  std::pair<Entry, Callback> take_top() const;
  /// Discards cancelled entries at the head of the heap.
  void skip_cancelled() const;

  // Mutable: discarding cancelled entries in the const accessors does not
  // change the observable live set.
  mutable std::vector<Entry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace aqueduct::sim
