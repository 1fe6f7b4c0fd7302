#include "exp/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace dlion::exp {

void write_trace_csv(const sim::Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_trace_csv: cannot open " + path);
  out << "time," << (trace.name().empty() ? "value" : trace.name()) << "\n";
  for (const auto& p : trace.points()) {
    out << p.time << "," << p.value << "\n";
  }
  if (!out) throw std::runtime_error("write_trace_csv: write failed");
}

void write_curves_csv(const std::vector<std::string>& names,
                      const std::vector<const sim::Trace*>& traces,
                      const std::string& path) {
  if (names.size() != traces.size()) {
    throw std::invalid_argument("write_curves_csv: name/trace mismatch");
  }
  std::vector<double> times;
  for (const sim::Trace* t : traces) {
    for (const auto& p : t->points()) times.push_back(p.time);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_curves_csv: cannot open " + path);
  out << "time";
  for (const auto& n : names) out << "," << n;
  out << "\n";
  for (double t : times) {
    out << t;
    for (const sim::Trace* trace : traces) {
      const double v = trace->value_at(t);
      out << ",";
      if (!std::isnan(v)) out << v;
    }
    out << "\n";
  }
  if (!out) throw std::runtime_error("write_curves_csv: write failed");
}

void export_run_curve(const RunResult& result, const std::string& dir,
                      const std::string& stem) {
  write_trace_csv(result.mean_curve, dir + "/" + stem + ".csv");
}

namespace {
void write_string_file(const std::string& what, const std::string& body,
                       const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error(what + ": cannot open " + path);
  out << body;
  if (!out) throw std::runtime_error(what + ": write failed");
}
}  // namespace

void write_metrics_json(const obs::MetricsRegistry& registry,
                        const std::string& path) {
  write_string_file("write_metrics_json", registry.to_json(), path);
}

void write_chrome_trace(const obs::Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_chrome_trace: cannot open " + path);
  tracer.write_chrome_json(out);
  if (!out) throw std::runtime_error("write_chrome_trace: write failed");
}

void write_telemetry_json(const obs::RunTelemetry& telemetry,
                          const std::string& path) {
  write_string_file("write_telemetry_json", telemetry.to_json(), path);
}

void write_critical_path_json(const obs::CriticalPathReport& report,
                              const std::string& path) {
  write_string_file("write_critical_path_json", report.to_json(), path);
}

void write_critical_path_table(const obs::CriticalPathReport& report,
                               const std::string& path) {
  write_string_file("write_critical_path_table", report.attribution_table(),
                    path);
}

}  // namespace dlion::exp
