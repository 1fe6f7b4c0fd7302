// Figure-data export: write accuracy curves and traces to CSV files so
// plots can be regenerated outside the terminal tables. Benches write into
// the directory given by --csv-dir (no-op when unset).
#pragma once

#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/trace.h"

namespace dlion::exp {

/// Write one trace as "time,value" rows. Creates/truncates the file.
/// Throws std::runtime_error on I/O failure.
void write_trace_csv(const sim::Trace& trace, const std::string& path);

/// Write several named curves side by side on a shared time axis (union of
/// all sample times; each column holds the trace's last value at or before
/// that time, empty before its first sample).
void write_curves_csv(const std::vector<std::string>& names,
                      const std::vector<const sim::Trace*>& traces,
                      const std::string& path);

/// Convenience: "<dir>/<stem>.csv" for a RunResult's mean accuracy curve.
void export_run_curve(const RunResult& result, const std::string& dir,
                      const std::string& stem);

/// Write a metrics snapshot as JSON ({"metrics":[...]}).
void write_metrics_json(const obs::MetricsRegistry& registry,
                        const std::string& path);

/// Write a tracer's events as Chrome trace-event JSON (load in Perfetto or
/// chrome://tracing).
void write_chrome_trace(const obs::Tracer& tracer, const std::string& path);

/// Write a RunTelemetry summary as JSON.
void write_telemetry_json(const obs::RunTelemetry& telemetry,
                          const std::string& path);

/// Write a critical-path report as JSON (categories, per-lane attribution,
/// epochs, segments).
void write_critical_path_json(const obs::CriticalPathReport& report,
                              const std::string& path);

/// Write the report's human-readable attribution table as plain text.
void write_critical_path_table(const obs::CriticalPathReport& report,
                               const std::string& path);

}  // namespace dlion::exp
