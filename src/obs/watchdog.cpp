#include "obs/watchdog.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/track_names.h"

namespace dlion::obs {

namespace {
std::string worker_tag(std::size_t worker) {
  return worker == WatchdogEvent::kClusterWide ? std::string("cluster")
                                               : worker_track(worker);
}

/// Compact double for human-readable detail strings ("12.5", not
/// "12.500000").
std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
}  // namespace

Watchdog::Watchdog(WatchdogConfig config, std::size_t n_workers)
    : config_(config),
      n_(n_workers),
      first_loss_(n_workers, std::numeric_limits<double>::quiet_NaN()) {}

void Watchdog::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  track_ = tracer != nullptr ? tracer->track("watchdog", "alerts") : 0;
}

bool Watchdog::latched(const char* detector, std::size_t worker) const {
  for (const WatchdogEvent& e : events_) {
    if (e.worker == worker && e.detector == detector) return true;
  }
  return false;
}

void Watchdog::fire(const char* detector, double t, std::size_t worker,
                    double value, std::string detail) {
  if (latched(detector, worker)) return;
  events_.push_back(WatchdogEvent{detector, t, worker, value,
                                  std::move(detail)});
  if (tracer_ != nullptr) {
    tracer_->instant(track_, detector, t,
                     {{"worker", worker == WatchdogEvent::kClusterWide
                                     ? -1.0
                                     : static_cast<double>(worker)},
                      {"value", value}});
  }
}

void Watchdog::check_progress(double t) {
  if (config_.no_progress_window_s <= 0.0) return;
  const double since = saw_progress_ ? last_progress_t_ : 0.0;
  const double gap = t - since;
  if (gap > config_.no_progress_window_s) {
    fire("no_progress", t, WatchdogEvent::kClusterWide, gap,
         "no worker finished an iteration for " + fmt(gap) +
             " s (window " + fmt(config_.no_progress_window_s) + " s)");
  }
}

void Watchdog::on_iteration(std::size_t worker, double t) {
  (void)worker;
  check_progress(t);
  last_progress_t_ = t;
  saw_progress_ = true;
}

void Watchdog::on_loss(std::size_t worker, double t, double loss) {
  check_progress(t);
  if (!std::isfinite(loss)) {
    fire("divergent_loss", t, worker, loss,
         worker_tag(worker) + " reported a non-finite loss");
    return;
  }
  if (worker < first_loss_.size()) {
    if (std::isnan(first_loss_[worker])) {
      first_loss_[worker] = loss;
      return;
    }
    const double baseline = std::max(first_loss_[worker], 1e-12);
    if (config_.loss_divergence_factor > 0.0 &&
        loss > config_.loss_divergence_factor * baseline) {
      fire("divergent_loss", t, worker, loss,
           worker_tag(worker) + " loss " + fmt(loss) + " exceeds " +
               fmt(config_.loss_divergence_factor) + "x its baseline " +
               fmt(baseline));
    }
  }
}

void Watchdog::on_staleness(std::size_t worker, double t, double staleness) {
  check_progress(t);
  if (config_.staleness_limit <= 0.0) return;
  if (staleness >= config_.staleness_limit) {
    fire("staleness_breach", t, worker, staleness,
         worker_tag(worker) + " ran " + fmt(staleness) +
             " iterations ahead of its slowest peer (limit " +
             fmt(config_.staleness_limit) + ")");
  }
}

void Watchdog::on_dead_letter(double t) {
  check_progress(t);
  if (config_.dead_letter_limit == 0) return;
  dead_letter_ts_.push_back(t);
  while (!dead_letter_ts_.empty() &&
         dead_letter_ts_.front() < t - config_.dead_letter_window_s) {
    dead_letter_ts_.pop_front();
  }
  if (dead_letter_ts_.size() >= config_.dead_letter_limit) {
    fire("dead_letter_spike", t, WatchdogEvent::kClusterWide,
         static_cast<double>(dead_letter_ts_.size()),
         std::to_string(dead_letter_ts_.size()) + " dead letters within " +
             fmt(config_.dead_letter_window_s) + " s");
  }
}

void Watchdog::on_drop(double t) {
  check_progress(t);
  if (config_.drop_limit == 0) return;
  drop_ts_.push_back(t);
  while (!drop_ts_.empty() && drop_ts_.front() < t - config_.drop_window_s) {
    drop_ts_.pop_front();
  }
  if (drop_ts_.size() >= config_.drop_limit) {
    fire("drop_spike", t, WatchdogEvent::kClusterWide,
         static_cast<double>(drop_ts_.size()),
         std::to_string(drop_ts_.size()) + " network fault drops within " +
             fmt(config_.drop_window_s) + " s");
  }
}

void Watchdog::finalize(double t_end) { check_progress(t_end); }

}  // namespace dlion::obs
