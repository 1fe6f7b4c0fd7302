#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"

namespace dlion::sim {

EventId EventQueue::push(common::SimTime t, EventFn fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    DLION_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), RunsLater{});
  return (EventId{s.gen} << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const EventId slot = id & std::numeric_limits<std::uint32_t>::max();
  if (slot >= slots_.size() ||
      slots_[slot].gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  release(static_cast<std::uint32_t>(slot));
  drop_stale();
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  free_.push_back(slot);
}

void EventQueue::drop_stale() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), RunsLater{});
    heap_.pop_back();
  }
  DLION_DCHECK(heap_.empty() == empty() && heap_.size() >= size(),
               "event heap out of sync with the callback slab");
}

common::SimTime EventQueue::next_time() const {
  DLION_ASSERT(!empty(), "next_time() on an empty queue");
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  DLION_ASSERT(!empty(), "pop() on an empty queue");
  const Entry top = heap_.front();
  // Stable tie-break ordering contract: events leave the queue in
  // nondecreasing (time, insertion-seq) order, so two runs that push the
  // same events always execute them identically. A violation means either
  // the heap ordering broke or someone scheduled into the popped past.
  DLION_DCHECK(!popped_any_ || top.time > last_popped_ ||
                   (top.time == last_popped_ && top.seq > last_popped_seq_),
               "pop order regressed: t=" + std::to_string(top.time) +
                   " seq=" + std::to_string(top.seq) + " after t=" +
                   std::to_string(last_popped_) + " seq=" +
                   std::to_string(last_popped_seq_));
  last_popped_ = top.time;
  last_popped_seq_ = top.seq;
  popped_any_ = true;
  std::pop_heap(heap_.begin(), heap_.end(), RunsLater{});
  heap_.pop_back();
  Popped popped{top.time, std::move(slots_[top.slot].fn)};
  release(top.slot);
  drop_stale();
  return popped;
}

}  // namespace dlion::sim
