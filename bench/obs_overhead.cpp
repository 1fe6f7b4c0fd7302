// Observability overhead bench: runs the same 6-worker DLion simulation
// four ways -- no observer attached, observer attached but runtime-disabled,
// enabled without causal tracing, fully enabled (spans + flows + apply
// anchors) -- and reports the wall-clock and allocation cost of each layer.
//
// All four configurations must produce bit-identical simulation results
// (iterations, bytes, accuracy): recording never draws randomness and never
// schedules events, so this bench doubles as a determinism check. With
// --out=PATH a machine-readable BENCH_obs.json is written (fixed key order;
// only the timing fields vary run-to-run -- event counts, metric series,
// and the `identical` flag are deterministic). With --csv-dir=<dir> the
// enabled run's artifacts (Chrome trace, metrics JSON/CSV, telemetry
// summary, critical-path report) are exported for inspection.
//
// With --workers=N the bench instead runs the scale configuration (ROADMAP
// item 1): N workers in micro-clouds of --groups, full observability with a
// streaming Chrome sink, deterministic sampling, window-only retention, and
// per-micro-cloud metric rollups. It reports the trace-memory numbers that
// gate the obs-scale-smoke CI job (admitted/sampled events, retained bytes,
// bytes per retained event, sink checksum, peak RSS) and exits nonzero if
// --max-retained-bytes is exceeded.
//
// Usage: obs_overhead [--scale=bench|paper] [--env="Hetero SYS A"]
//                     [--timing-reps=5] [--out=BENCH_obs.json] [--csv-dir=out]
//        obs_overhead --workers=256 [--groups=8] [--scale-duration=30]
//                     [--max-retained-bytes=N] [--scale-out=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "obs/critical_path.h"
#include "obs/obs.h"
#include "obs/trace_sink.h"

// Global allocation hook (defines operator new/delete; one TU per binary).
#include "alloc_hook.h"

namespace {

using namespace dlion;

struct Timed {
  exp::RunResult result;
  std::vector<double> wall_ms;  ///< one per rep
  std::uint64_t trace_events = 0;
  std::size_t metric_series = 0;
  /// operator-new calls in one rep, the most any rep made: the first rep
  /// also warms process-wide state, and a one-rep run must not exceed it.
  std::uint64_t allocs = 0;
};

struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

/// Median and quartiles by linear interpolation between order statistics.
Spread spread(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double x = p * static_cast<double>(v.size() - 1);
    const auto i = static_cast<std::size_t>(x);
    const double f = x - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + f * (v[i + 1] - v[i]) : v[i];
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed rep of one configuration (fresh observer per rep so the
/// tracer never accumulates across reps). Folds the wall time, allocation
/// count, and result into `out`.
using MakeObs = std::function<std::unique_ptr<obs::Observability>()>;

void run_rep(const exp::RunSpec& base, const exp::Workload& workload,
             const MakeObs& make_obs, int slot, Timed& out) {
  exp::RunSpec spec = base;
  std::unique_ptr<obs::Observability> o = make_obs();
  spec.obs = o.get();
  // One counter slot per configuration: the reps interleave round-robin,
  // so a shared counter would let one config's window bleed into the next.
  benchalloc::start(slot);
  const auto t0 = std::chrono::steady_clock::now();
  exp::RunResult result = exp::run_experiment(spec, workload);
  const double ms = ms_since(t0);
  const benchalloc::Totals totals = benchalloc::stop();
  out.wall_ms.push_back(ms);
  out.allocs = std::max(out.allocs, totals.count);
  if (o != nullptr) {
    out.trace_events = o->tracer().event_count();
    out.metric_series = o->metrics().size();
  }
  out.result = std::move(result);
}

bool same_results(const exp::RunResult& a, const exp::RunResult& b) {
  return a.total_iterations == b.total_iterations &&
         a.total_bytes == b.total_bytes &&
         a.final_accuracy == b.final_accuracy &&
         a.best_accuracy == b.best_accuracy &&
         a.messages_dropped == b.messages_dropped;
}

std::string fmt_json_double(double v) { return dlion::bench::jnum(v, 3); }

/// Peak resident set size in kB (VmHWM from /proc/self/status); 0 when the
/// platform doesn't expose it. Report-only — RSS depends on the allocator
/// and is never gated.
std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1) return kb;
  }
  return 0;
}

/// The --workers=N scale configuration: N workers, full observability,
/// streaming sink + deterministic sampling + window-only retention +
/// per-micro-cloud rollups. Returns the process exit code.
int run_scale(const bench::BenchContext& ctx, std::size_t workers) {
  const std::size_t groups =
      static_cast<std::size_t>(ctx.config.get_int("groups", 8));
  const double dur = ctx.config.get_double("scale-duration", 30.0);
  const std::uint64_t max_retained = static_cast<std::uint64_t>(
      ctx.config.get_int("max-retained-bytes", 0));
  const std::string scale_out = ctx.config.get_string("scale-out", "");

  bench::print_header(
      "Observability at scale (" + std::to_string(workers) + " workers, " +
          std::to_string(groups) + "/micro-cloud)",
      ctx.scale);

  const exp::Workload workload = exp::make_workload("cpu", ctx.scale);
  exp::Environment env = exp::make_scale_environment(workers, groups);
  exp::RunSpec spec = bench::make_run_spec(ctx.scale, "dlion", env.name, dur);
  spec.env_override = std::move(env);

  // Full observability, bounded memory: per-micro-cloud rollups keep series
  // cardinality O(workers / groups); the sampler keeps every 16th worker
  // lane (plus a 64-event head elsewhere and every 64th flow chain) except
  // in the [0.5, 0.6) * duration full-fidelity window, which is retained
  // in memory for critical-path attribution. Everything else streams to
  // the sink and is dropped from storage.
  auto o = std::make_unique<obs::Observability>();
  o->metrics().set_rollup({groups, dur / 10.0});
  obs::TraceSampleConfig sc;
  sc.track_stride = 16;
  sc.head_events_per_track = 64;
  sc.flow_stride = 64;
  sc.full_t0 = 0.5 * dur;
  sc.full_t1 = 0.6 * dur;
  o->tracer().set_sampling(sc);
  o->tracer().set_retain_all(false);
  std::ostringstream stream;
  obs::ChromeStreamSink sink(stream);
  o->tracer().set_sink(&sink);

  spec.obs = o.get();
  benchalloc::start();
  const auto t0 = std::chrono::steady_clock::now();
  exp::RunResult result = exp::run_experiment(spec, workload);
  const double wall_ms = ms_since(t0);
  const benchalloc::Totals totals = benchalloc::stop();
  o->tracer().finish();

  const obs::Tracer& tr = o->tracer();
  const std::uint64_t admitted = tr.admitted_events();
  const std::uint64_t sampled_out = tr.sampled_out_events();
  const std::size_t retained = tr.event_count();
  const std::size_t retained_bytes = tr.retained_bytes();
  const obs::CriticalPathReport report =
      obs::compute_critical_path(o->tracer(), {dur / 10.0});

  common::Table table({"measure", "value"});
  auto row = [&table](const char* k, std::uint64_t v) {
    table.row().cell(k).cell(static_cast<long long>(v));
  };
  row("simulated iterations", result.total_iterations);
  row("events admitted", admitted);
  row("events sampled out", sampled_out);
  row("events retained (full window)", retained);
  row("retained bytes", retained_bytes);
  table.row().cell("bytes / retained event").cell(
      retained > 0 ? static_cast<double>(retained_bytes) /
                         static_cast<double>(retained)
                   : 0.0,
      1);
  row("sink events", sink.events_written());
  row("sink bytes", sink.bytes_written());
  table.row().cell("sink checksum").cell(bench::hex64(sink.checksum()));
  row("metric series (rolled up)", o->metrics().size());
  table.row().cell("critical path valid").cell(report.valid ? "yes" : "NO");
  row("allocs", totals.count);
  row("peak RSS (kB)", peak_rss_kb());
  table.row().cell("wall (ms)").cell(wall_ms, 2);
  table.print(std::cout);
  if (report.valid) {
    std::cout << "\ncritical path: straggler=" << report.straggler
              << " bottleneck=" << report.bottleneck_link << "\n";
  }

  if (!scale_out.empty()) {
    // Everything except wall_ms / allocs / peak_rss_kb is deterministic for
    // a given (workers, groups, duration, seed) — the sink checksum is the
    // cross-thread-count identity fingerprint the CI smoke job compares.
    std::ofstream js(scale_out, std::ios::trunc);
    js << "{\n";
    js << "  \"schema\": \"dlion-obs-scale-v1\",\n";
    js << "  \"bench\": \"obs_overhead\",\n";
    js << "  \"workers\": " << workers << ",\n";
    js << "  \"groups\": " << groups << ",\n";
    js << "  \"duration_s\": " << fmt_json_double(dur) << ",\n";
    js << "  \"iterations\": " << result.total_iterations << ",\n";
    js << "  \"events_admitted\": " << admitted << ",\n";
    js << "  \"events_sampled_out\": " << sampled_out << ",\n";
    js << "  \"retained_events\": " << retained << ",\n";
    js << "  \"retained_bytes\": " << retained_bytes << ",\n";
    js << "  \"sink_events\": " << sink.events_written() << ",\n";
    js << "  \"sink_bytes\": " << sink.bytes_written() << ",\n";
    js << "  \"sink_checksum\": \"" << bench::hex64(sink.checksum())
       << "\",\n";
    js << "  \"metric_series\": " << o->metrics().size() << ",\n";
    js << "  \"critical_path_valid\": " << (report.valid ? "true" : "false")
       << ",\n";
    js << "  \"wall_ms\": " << fmt_json_double(wall_ms) << ",\n";
    js << "  \"allocs\": " << totals.count << ",\n";
    js << "  \"peak_rss_kb\": " << peak_rss_kb() << "\n";
    js << "}\n";
    std::cout << "\n[json] wrote " << scale_out << "\n";
  }

  if (max_retained > 0 && retained_bytes > max_retained) {
    std::cerr << "FAIL: retained trace memory " << retained_bytes
              << " bytes exceeds budget " << max_retained << "\n";
    return 1;
  }
  if (!report.valid) {
    std::cerr << "FAIL: critical path invalid (full-fidelity window "
                 "retained no spans)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlion;
  bench::BenchContext ctx = bench::BenchContext::from_args(argc, argv);
  const std::string env_name = ctx.config.get_string("env", "Hetero SYS A");
  const int reps =
      static_cast<int>(ctx.config.get_int("timing-reps", 5));
  const std::string out_path = ctx.config.get_string("out", "");

  const auto workers =
      static_cast<std::size_t>(ctx.config.get_int("workers", 0));
  if (workers > 0) return run_scale(ctx, workers);

  bench::print_header("Observability overhead (6-worker " + env_name + ")",
                      ctx.scale);

  const exp::Workload workload = exp::make_workload("cpu", ctx.scale);
  exp::RunSpec spec =
      bench::make_run_spec(ctx.scale, "dlion", env_name,
                           ctx.scale.duration_s);

  // The four configurations:
  //  1. baseline -- no observer anywhere in the stack;
  //  2. attached but runtime-disabled -- every record site pays its gate
  //     check (pointer + flag) and nothing else;
  //  3. enabled without the causal layer -- counters, histograms, spans,
  //     but no flow events and no zero-duration apply anchors;
  //  4. fully enabled -- spans + flow events + apply anchors (what
  //     compute_critical_path consumes).
  // Reps are interleaved round-robin (rep 0 of each config, then rep 1 of
  // each, ...) so slow drift in machine load biases all configurations
  // equally instead of whichever ran last. Round r starts at configuration
  // r mod 4, so no configuration always runs first.
  const MakeObs makers[4] = {
      [] { return std::unique_ptr<obs::Observability>(); },
      [] {
        auto o = std::make_unique<obs::Observability>();
        o->set_enabled(false);
        return o;
      },
      [] {
        auto o = std::make_unique<obs::Observability>();
        o->set_causal(false);
        return o;
      },
      [] { return std::make_unique<obs::Observability>(); },
  };
  Timed timed[4];
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < 4; ++i) {
      const int c = (i + r) % 4;
      run_rep(spec, workload, makers[c], c, timed[c]);
    }
  }
  Timed& off = timed[0];
  Timed& disabled = timed[1];
  Timed& plain = timed[2];
  Timed& on = timed[3];
  // Every timing below is a median over the interleaved reps, reported
  // with its quartiles, so run-to-run noise shows as spread.
  const double off_ms = spread(off.wall_ms).median;
  const auto overhead_pct = [off_ms](const Timed& t) {
    return off_ms > 0.0 ? (spread(t.wall_ms).median - off_ms) / off_ms * 100.0
                        : 0.0;
  };

  common::Table table({"config", "median wall (ms)", "q1-q3 (ms)", "overhead",
                       "trace events", "metric series", "allocs"});
  auto fmt_ms = [](double ms) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
    return std::string(buf);
  };
  auto add_row = [&](const char* name, const Timed& t, bool baseline) {
    const Spread w = spread(t.wall_ms);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", overhead_pct(t));
    table.row()
        .cell(name)
        .cell(fmt_ms(w.median))
        .cell(fmt_ms(w.q1) + "-" + fmt_ms(w.q3))
        .cell(baseline ? "--" : pct)
        .cell(std::to_string(t.trace_events))
        .cell(t.metric_series)
        .cell(std::to_string(t.allocs));
  };
  add_row("obs off (baseline)", off, true);
  add_row("obs attached, disabled", disabled, false);
  add_row("obs enabled, no causal", plain, false);
  add_row("obs enabled + causal", on, false);
  table.print(std::cout);

  const bool identical = same_results(off.result, disabled.result) &&
                         same_results(off.result, plain.result) &&
                         same_results(off.result, on.result);
  std::cout << "\nsimulation results identical across configs: "
            << (identical ? "yes" : "NO -- DETERMINISM VIOLATION") << "\n"
            << "  iterations=" << off.result.total_iterations
            << " bytes=" << off.result.total_bytes
            << " final_acc=" << off.result.final_accuracy << "\n";
  if (on.trace_events > 0) {
    std::printf(
        "allocation cost of recording: %.3f allocs/event "
        "(%llu extra allocs over no-causal, %llu flow+anchor events)\n",
        static_cast<double>(on.allocs > off.allocs ? on.allocs - off.allocs
                                                   : 0) /
            static_cast<double>(on.trace_events),
        static_cast<unsigned long long>(
            on.allocs > plain.allocs ? on.allocs - plain.allocs : 0),
        static_cast<unsigned long long>(
            on.trace_events > plain.trace_events
                ? on.trace_events - plain.trace_events
                : 0));
  }

  // Telemetry summary from the enabled run (recomputed via RunSpec's
  // collect_telemetry path so the summary code is exercised too).
  {
    exp::RunSpec tspec = spec;
    tspec.collect_telemetry = true;
    exp::RunResult t = exp::run_experiment(tspec, workload);
    if (t.telemetry.collected) {
      std::cout << "\nwhere simulated time went (cluster totals):\n";
      std::printf("  compute  %10.2f s\n", t.telemetry.compute_seconds);
      std::printf("  stall    %10.2f s\n", t.telemetry.stall_seconds);
      std::printf("  dkt pull %10.2f s\n", t.telemetry.dkt_pull_seconds);
      std::printf("  net tx   %10.2f s  (p50=%.4gs p90=%.4gs p99=%.4gs)\n",
                  t.telemetry.net_tx_seconds, t.telemetry.tx_p50_s,
                  t.telemetry.tx_p90_s, t.telemetry.tx_p99_s);
    }
  }

  if (!out_path.empty()) {
    // Machine-readable summary, fixed key order. The wall_ms* and
    // overhead_pct fields vary run-to-run; everything else is deterministic
    // for a given scale/env.
    std::ofstream js(out_path, std::ios::trunc);
    js << "{\n";
    js << "  \"schema\": \"dlion-obs-v2\",\n";
    js << "  \"bench\": \"obs_overhead\",\n";
    js << "  \"env\": \"" << env_name << "\",\n";
    js << "  \"scale\": \"" << (ctx.scale.paper ? "paper" : "bench")
       << "\",\n";
    js << "  \"identical_results\": " << (identical ? "true" : "false")
       << ",\n";
    js << "  \"iterations\": " << off.result.total_iterations << ",\n";
    js << "  \"bytes\": " << off.result.total_bytes << ",\n";
    js << "  \"timing_reps\": " << reps << ",\n";
    auto cfg = [&](const char* key, const Timed& t, bool last) {
      const Spread w = spread(t.wall_ms);
      js << "  \"" << key << "\": {\"wall_ms\": " << fmt_json_double(w.median)
         << ", \"wall_ms_q1\": " << fmt_json_double(w.q1)
         << ", \"wall_ms_q3\": " << fmt_json_double(w.q3)
         << ", \"overhead_pct\": " << fmt_json_double(overhead_pct(t))
         << ", \"trace_events\": " << t.trace_events
         << ", \"metric_series\": " << t.metric_series
         << ", \"allocs\": " << t.allocs << "}" << (last ? "\n" : ",\n");
    };
    cfg("off", off, false);
    cfg("disabled", disabled, false);
    cfg("enabled_no_causal", plain, false);
    cfg("enabled_causal", on, true);
    js << "}\n";
    std::cout << "\n[json] wrote " << out_path << "\n";
  }

  const std::string dir = ctx.config.get_string("csv-dir", "");
  if (!dir.empty()) {
    // Export artifacts from a fresh enabled run so each file reflects
    // exactly one simulation.
    auto o = std::make_unique<obs::Observability>();
    exp::RunSpec espec = spec;
    espec.obs = o.get();
    exp::RunResult r = exp::run_experiment(espec, workload);
    try {
      exp::write_chrome_trace(o->tracer(), dir + "/obs_trace.json");
      exp::write_metrics_json(o->metrics(), dir + "/obs_metrics.json");
      exp::write_metrics_csv(o->metrics(), dir + "/obs_metrics.csv");
      exp::write_telemetry_json(obs::summarize(*o),
                                dir + "/obs_telemetry.json");
      const obs::CriticalPathReport report = obs::compute_critical_path(
          o->tracer(), {ctx.scale.duration_s / 10.0});
      exp::write_critical_path_json(report, dir + "/obs_critical_path.json");
      exp::write_critical_path_table(report, dir + "/obs_critical_path.txt");
      std::cout << "\n[csv] wrote " << dir
                << "/obs_trace.json (load in Perfetto), obs_metrics.{json,"
                   "csv}, obs_telemetry.json, obs_critical_path.{json,txt}\n";
    } catch (const std::exception& e) {
      std::cerr << "[csv] export failed (" << e.what()
                << ") - does the directory exist?\n";
    }
    (void)r;
  }
  return 0;
}
