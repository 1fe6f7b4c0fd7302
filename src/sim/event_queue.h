// Time-ordered event queue for the discrete-event engine.
//
// Ties on time are broken by insertion sequence number, which makes every
// simulation fully deterministic (same seed -> same event interleaving).
//
// Layout: a binary min-heap of {time, seq, slot, generation} entries
// ordered by (time, seq), over a slab of callbacks reused through a free
// list. A warmed queue therefore schedules and runs events without
// touching the allocator (a callback whose capture fits std::function's
// inline buffer allocates nothing either). cancel() frees the slot at once
// and leaves its heap entry behind; the entry is recognised as stale by
// its slot's generation and dropped when it reaches the top, so the top of
// the heap is always a live event.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/units.h"

namespace dlion::sim {

using EventFn = std::function<void()>;
/// Names a slot (low 32 bits) and the slot's generation when the event was
/// pushed (high 32 bits).
using EventId = std::uint64_t;

/// True for a callable that std::function keeps in its inline buffer
/// (libstdc++: trivially copyable, at most 16 bytes and pointer-aligned), so
/// wrapping it allocates nothing. Every per-message and per-iteration
/// callback static_asserts this.
template <typename F>
inline constexpr bool is_inline_callback_v =
    std::is_trivially_copyable_v<F> && sizeof(F) <= 16 &&
    alignof(F) <= alignof(void*);

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `t`. Returns an id usable with cancel().
  EventId push(common::SimTime t, EventFn fn);

  /// Cancel a pending event. Cancelling an id that already ran (or was
  /// already cancelled) is a no-op. Returns true if something was removed.
  bool cancel(EventId id);

  bool empty() const { return size() == 0; }
  /// Pending events; cancelled ones are not counted.
  std::size_t size() const { return slots_.size() - free_.size(); }

  /// Time of the earliest pending event; only valid if !empty().
  common::SimTime next_time() const;

  struct Popped {
    common::SimTime time;
    EventFn fn;
  };
  /// Pop and return the earliest event. Only valid if !empty().
  Popped pop();

 private:
  struct Entry {
    common::SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    EventFn fn;
    /// Bumped each time the slot is freed, so ids and heap entries of
    /// earlier occupants no longer match.
    std::uint32_t gen = 0;
  };
  /// Heap comparator: std::*_heap keep the greatest entry on top, so
  /// ordering by "runs later" puts the earliest (time, seq) there.
  struct RunsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  bool live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }
  void release(std::uint32_t slot);
  /// Pop stale entries off the top of the heap.
  void drop_stale();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  /// Monotonic pop clock backing the stable tie-break contract: pop() must
  /// never return an event earlier than one it already returned.
  common::SimTime last_popped_ = 0.0;
  std::uint64_t last_popped_seq_ = 0;
  bool popped_any_ = false;
};

}  // namespace dlion::sim
