// RunTelemetry: the per-run summary distilled from an Observability
// object after a simulation finishes — per-phase time totals aggregated
// from tracer spans, headline counters, and transfer-latency quantiles.
// exp::run_experiment threads one of these into exp::RunResult so benches
// and reports can show where simulated time and bytes went without
// touching the raw registry/tracer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace dlion::obs {

/// Aggregate of every span with the same name (across all tracks).
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
};

struct RunTelemetry {
  /// False when no observer was attached (all other fields are zero/NaN).
  bool collected = false;

  // Volume.
  std::uint64_t span_count = 0;
  std::uint64_t instant_count = 0;
  std::uint64_t counter_sample_count = 0;
  std::uint64_t metric_series = 0;

  // Headline phase totals, summed across workers (simulated seconds).
  double compute_seconds = 0.0;   ///< spans named "compute"
  double stall_seconds = 0.0;     ///< spans named "stall" (sync waits)
  double dkt_pull_seconds = 0.0;  ///< spans named "dkt_pull"
  double net_tx_seconds = 0.0;    ///< spans named "tx" (link occupancy)

  // Network transfer-duration quantiles (from sim.net.tx_seconds; NaN when
  // no transfers were recorded).
  double tx_p50_s = 0.0;
  double tx_p90_s = 0.0;
  double tx_p99_s = 0.0;

  // Headline counters (0 when the corresponding source recorded nothing).
  double events_executed = 0.0;
  double messages_sent = 0.0;
  double bytes_sent = 0.0;
  double messages_dropped = 0.0;
  double dead_letters = 0.0;
  double reliable_retries = 0.0;

  /// Every span name seen, sorted by total time descending (ties by name).
  std::vector<PhaseStat> phases;

  /// Watchdog outcome (false/empty when no watchdog was attached).
  bool watchdog_degraded = false;
  /// One formatted line per fired detector ("detector @ t: detail").
  std::vector<std::string> watchdog_events;

  /// Total simulated seconds across the named headline phases.
  double accounted_seconds() const {
    return compute_seconds + stall_seconds + dkt_pull_seconds;
  }

  /// Compact single-object JSON (phases included), for report files.
  std::string to_json() const;
};

/// Distill a finished run's observer. Read-only; callable any number of
/// times.
RunTelemetry summarize(const Observability& obs);

}  // namespace dlion::obs
