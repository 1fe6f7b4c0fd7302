// Online run watchdog: deterministic health detectors over simulated time.
//
// The watchdog is *fed* by the instrumented components (worker iterations,
// loss values, staleness readings, fabric dead letters, network fault
// drops) from inside their `obs::on()` branches, so it costs nothing
// without an observer, and it evaluates its detectors lazily on those
// feeds — it never schedules simulation events and reads only the
// timestamps it is handed. A fired detector *latches*: each (detector,
// worker) pair reports at most once per run, as a structured WatchdogEvent
// (and, when a tracer is attached, an instant on a "watchdog / alerts"
// track).
//
// Determinism contract: feeding the watchdog never changes a run. A fired
// detector only reports; nothing it records reaches the simulation.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace dlion::obs {

struct WatchdogConfig {
  /// No-progress: fires when no worker finishes an iteration for this many
  /// simulated seconds (checked lazily on every feed and at finalize).
  double no_progress_window_s = 30.0;
  /// Divergent loss: fires on a NaN/inf loss, or when a worker's loss
  /// exceeds `loss_divergence_factor` x its first observed loss.
  double loss_divergence_factor = 10.0;
  /// Dead-letter spike: >= `dead_letter_limit` fabric dead letters inside a
  /// sliding `dead_letter_window_s` window.
  double dead_letter_window_s = 10.0;
  std::uint64_t dead_letter_limit = 50;
  /// Drop spike: >= `drop_limit` network fault drops inside a sliding
  /// `drop_window_s` window.
  double drop_window_s = 10.0;
  std::uint64_t drop_limit = 200;
  /// Staleness breach: a worker starts an iteration >= this many iterations
  /// ahead of its slowest live peer. 0 disables the detector.
  double staleness_limit = 0.0;
};

/// One fired detector, latched for the rest of the run.
struct WatchdogEvent {
  std::string detector;  ///< "no_progress", "divergent_loss", ...
  double t = 0.0;        ///< simulated time of the firing
  /// Worker the event is attributed to; kClusterWide for global detectors.
  std::size_t worker = kClusterWide;
  double value = 0.0;    ///< detector-specific reading (loss, count, gap)
  std::string detail;    ///< human-readable one-liner

  static constexpr std::size_t kClusterWide = static_cast<std::size_t>(-1);
};

class Watchdog {
 public:
  Watchdog(WatchdogConfig config, std::size_t n_workers);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // --- Feeds (call from inside obs::on() branches only) ---
  void on_iteration(std::size_t worker, double t);
  void on_loss(std::size_t worker, double t, double loss);
  void on_staleness(std::size_t worker, double t, double staleness);
  void on_dead_letter(double t);
  void on_drop(double t);
  /// End-of-run sweep: closes the no-progress check over the final gap.
  void finalize(double t_end);

  /// True once any detector has fired.
  bool degraded() const { return !events_.empty(); }
  const std::vector<WatchdogEvent>& events() const { return events_; }
  const WatchdogConfig& config() const { return config_; }

  /// Optional tracer: fired events also become instants on a
  /// "watchdog / alerts" track (non-owning; nullptr detaches).
  void set_tracer(Tracer* tracer);

 private:
  /// Latch + record one firing (idempotent per detector x worker).
  void fire(const char* detector, double t, std::size_t worker, double value,
            std::string detail);
  bool latched(const char* detector, std::size_t worker) const;
  void check_progress(double t);

  WatchdogConfig config_;
  std::size_t n_;
  double last_progress_t_ = 0.0;   ///< latest iteration finish (or start)
  bool saw_progress_ = false;
  std::vector<double> first_loss_;     ///< per-worker baseline, NaN = unset
  std::deque<double> dead_letter_ts_;  ///< sliding-window timestamps
  std::deque<double> drop_ts_;
  std::vector<WatchdogEvent> events_;
  Tracer* tracer_ = nullptr;  // non-owning, optional
  TrackId track_ = 0;
};

}  // namespace dlion::obs
