#include "sim/engine.h"

#include <stdexcept>
#include <string>

#include "common/check.h"

namespace dlion::sim {

EventId Engine::at(common::SimTime t, EventFn fn) {
  if (t < now_) {
    throw std::invalid_argument("Engine::at: time in the past");
  }
  EventId id = queue_.push(t, std::move(fn));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return id;
}

EventId Engine::after(common::SimTime delay, EventFn fn) {
  if (delay < 0.0) {
    throw std::invalid_argument("Engine::after: negative delay");
  }
  EventId id = queue_.push(now_ + delay, std::move(fn));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return id;
}

void Engine::set_obs(obs::Observability* o) {
  obs_ = o;
  obs_events_ = nullptr;
  obs_depth_ = nullptr;
  obs_peak_depth_ = nullptr;
  obs_events_windowed_ = nullptr;
  if (o == nullptr) return;
  obs::MetricsRegistry& m = o->metrics();
  obs_events_ = &m.counter("sim.events_executed");
  obs_depth_ = &m.gauge("sim.queue.depth");
  obs_peak_depth_ = &m.gauge("sim.queue.peak_depth");
  if (m.rollup().window_s > 0.0) {
    obs_events_windowed_ = &m.windowed("sim.events_executed_windowed");
  }
}

void Engine::note_executed() {
  ++executed_;
  if (obs::on(obs_)) {
    obs_events_->inc();
    obs_depth_->set(static_cast<double>(queue_.size()));
    obs_peak_depth_->set(static_cast<double>(peak_pending_));
    if (obs_events_windowed_ != nullptr) {
      obs_events_windowed_->observe(now_, 1.0);
    }
  }
}

void Engine::run_until(common::SimTime t_end) {
  while (!queue_.empty() && queue_.next_time() <= t_end) {
    auto [time, fn] = queue_.pop();
    // Event-time monotonicity: the virtual clock never runs backwards.
    // at()/after() reject past times at the API edge; this catches any
    // internal path that would still manage to regress the clock.
    DLION_ASSERT(time >= now_, "clock would regress from t=" +
                                   std::to_string(now_) + " to t=" +
                                   std::to_string(time));
    now_ = time;
    note_executed();
    fn();
  }
  if (now_ < t_end) now_ = t_end;
}

void Engine::run() {
  while (!queue_.empty()) {
    auto [time, fn] = queue_.pop();
    DLION_ASSERT(time >= now_, "clock would regress from t=" +
                                   std::to_string(now_) + " to t=" +
                                   std::to_string(time));
    now_ = time;
    note_executed();
    fn();
  }
}

}  // namespace dlion::sim
