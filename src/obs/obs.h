// Observability umbrella: one object bundling the MetricsRegistry and the
// span Tracer, handed (as a non-owning pointer) to the components that
// record into it — sim::Engine, sim::Network, comm::Fabric, core::Worker.
//
// Cost model (DESIGN.md "Observability layer"): an attached observer is the
// only switch. With none attached (the default) each record site costs one
// pointer null-check; with one attached, counter bumps on cached handles
// plus append-only pushes.
//
// Determinism contract: recording reads the simulated clock only, draws no
// randomness, schedules no events, and never feeds back into control flow,
// so attaching an observer cannot change a run's event order or results.
#pragma once

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace dlion::obs {

class Watchdog;  // obs/watchdog.h (online health detectors)

class Observability {
 public:
  Observability() = default;
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Optional online watchdog (non-owning; nullptr detaches). Record sites
  /// feed it inside their `obs::on()` branches.
  Watchdog* watchdog() { return watchdog_; }
  const Watchdog* watchdog() const { return watchdog_; }
  void set_watchdog(Watchdog* w) { watchdog_ = w; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  Watchdog* watchdog_ = nullptr;  // non-owning, optional
};

/// The instrumentation gate every call site uses:
///   if (obs::on(obs_)) { ...record... }
inline bool on(const Observability* o) { return o != nullptr; }

}  // namespace dlion::obs
