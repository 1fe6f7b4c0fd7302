// The discrete-event simulation engine: a virtual clock plus the event
// queue. All distributed-training "threads" from the paper's Fig. 10 are
// expressed as events scheduled on one engine, which makes runs
// deterministic and decouples simulated time (the x-axis of every figure)
// from wall-clock time.
#pragma once

#include <cstdint>

#include "obs/obs.h"
#include "sim/event_queue.h"

namespace dlion::sim {

class Engine {
 public:
  common::SimTime now() const { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventId at(common::SimTime t, EventFn fn);
  /// Schedule after a relative delay (delay >= 0).
  EventId after(common::SimTime delay, EventFn fn);
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run events until the queue is empty or the clock would pass `t_end`.
  /// The clock is left at min(t_end, time of last executed event); events
  /// scheduled beyond t_end remain pending.
  void run_until(common::SimTime t_end);

  /// Run until the queue drains completely.
  void run();

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return queue_.size(); }
  /// High-water mark of the pending-event queue (the simulator's own
  /// backlog — the profiling signal for ROADMAP item 1's scale push).
  std::size_t peak_events_pending() const { return peak_pending_; }

  /// Attach an observer (non-owning; nullptr detaches). Event dispatch is
  /// counted in the registry (`sim.events_executed`); the event-queue
  /// depth and its high-water mark are exported as gauges
  /// (`sim.queue.depth`, `sim.queue.peak_depth`), and — when the
  /// registry's RollupConfig enables windowing — dispatch rates land in a
  /// `sim.events_executed_windowed` series. Recording never schedules
  /// events or perturbs ordering.
  void set_obs(obs::Observability* o);
  obs::Observability* observability() { return obs_; }

 private:
  void note_executed();

  EventQueue queue_;
  common::SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  obs::Observability* obs_ = nullptr;   // non-owning, optional
  obs::Counter* obs_events_ = nullptr;  // cached registry handles
  obs::Gauge* obs_depth_ = nullptr;
  obs::Gauge* obs_peak_depth_ = nullptr;
  obs::Windowed* obs_events_windowed_ = nullptr;
};

}  // namespace dlion::sim
