#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json_util.h"
#include "obs/watchdog.h"

namespace dlion::obs {

namespace {

std::string fmt(double v) {
  if (std::isnan(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

RunTelemetry summarize(const Observability& obs) {
  RunTelemetry t;
  t.collected = true;

  const Tracer& tracer = obs.tracer();
  t.span_count = tracer.spans().size();
  t.instant_count = tracer.instants().size();
  t.counter_sample_count = tracer.samples().size();
  t.metric_series = obs.metrics().size();

  std::map<std::string, PhaseStat> by_name;
  for (const Tracer::Span& s : tracer.spans()) {
    PhaseStat& p = by_name[s.name];
    p.name = s.name;
    p.count += 1;
    const double d = s.t1 - s.t0;
    p.total_s += d;
    p.max_s = std::max(p.max_s, d);
  }
  for (auto& [name, stat] : by_name) {
    if (name == "compute") t.compute_seconds = stat.total_s;
    if (name == "stall") t.stall_seconds = stat.total_s;
    if (name == "dkt_pull") t.dkt_pull_seconds = stat.total_s;
    if (name == "tx") t.net_tx_seconds = stat.total_s;
    t.phases.push_back(stat);
  }
  std::sort(t.phases.begin(), t.phases.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return a.name < b.name;
            });

  const MetricsRegistry& m = obs.metrics();
  if (const Histogram* tx = m.find_histogram("sim.net.tx_seconds")) {
    t.tx_p50_s = tx->quantile(0.50);
    t.tx_p90_s = tx->quantile(0.90);
    t.tx_p99_s = tx->quantile(0.99);
  } else {
    t.tx_p50_s = t.tx_p90_s = t.tx_p99_s = std::nan("");
  }
  t.events_executed = m.counter_total("sim.events_executed");
  t.messages_sent = m.counter_total("sim.net.messages_sent");
  t.bytes_sent = m.counter_total("sim.net.bytes_sent");
  t.messages_dropped = m.counter_total("sim.net.messages_dropped");
  t.dead_letters = m.counter_total("comm.fabric.dead_letters");
  t.reliable_retries = m.counter_total("comm.fabric.reliable_retries");

  if (const Watchdog* wd = obs.watchdog()) {
    t.watchdog_degraded = wd->degraded();
    for (const WatchdogEvent& e : wd->events()) {
      char at[48];
      std::snprintf(at, sizeof(at), "%.3f", e.t);
      t.watchdog_events.push_back(e.detector + " @ " + at + " s: " +
                                  e.detail);
    }
  }
  return t;
}

std::string RunTelemetry::to_json() const {
  std::string out = "{";
  out += "\"collected\":" + std::string(collected ? "true" : "false");
  out += ",\"span_count\":" + std::to_string(span_count);
  out += ",\"instant_count\":" + std::to_string(instant_count);
  out += ",\"counter_sample_count\":" + std::to_string(counter_sample_count);
  out += ",\"metric_series\":" + std::to_string(metric_series);
  out += ",\"compute_seconds\":" + fmt(compute_seconds);
  out += ",\"stall_seconds\":" + fmt(stall_seconds);
  out += ",\"dkt_pull_seconds\":" + fmt(dkt_pull_seconds);
  out += ",\"net_tx_seconds\":" + fmt(net_tx_seconds);
  out += ",\"tx_p50_s\":" + fmt(tx_p50_s);
  out += ",\"tx_p90_s\":" + fmt(tx_p90_s);
  out += ",\"tx_p99_s\":" + fmt(tx_p99_s);
  out += ",\"events_executed\":" + fmt(events_executed);
  out += ",\"messages_sent\":" + fmt(messages_sent);
  out += ",\"bytes_sent\":" + fmt(bytes_sent);
  out += ",\"messages_dropped\":" + fmt(messages_dropped);
  out += ",\"dead_letters\":" + fmt(dead_letters);
  out += ",\"reliable_retries\":" + fmt(reliable_retries);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"" + phases[i].name + "\"";
    out += ",\"count\":" + std::to_string(phases[i].count);
    out += ",\"total_s\":" + fmt(phases[i].total_s);
    out += ",\"max_s\":" + fmt(phases[i].max_s) + "}";
  }
  out += "]";
  out += ",\"watchdog\":{\"degraded\":" +
         std::string(watchdog_degraded ? "true" : "false");
  out += ",\"events\":[";
  for (std::size_t i = 0; i < watchdog_events.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += json_escape(watchdog_events[i]);
    out += '"';
  }
  out += "]}}";
  return out;
}

}  // namespace dlion::obs
