// End-to-end benchmark program (README.md in this directory).
//
// Parent mode (the default) runs every selected workload as one child
// process per rep: it posix_spawns dlion_bench (or, for the traced pass,
// dlion_bench_traced) from its own directory with --run=<workload>. Each
// child synthesises the workload's inputs from --seed, runs its
// exp::run_experiment cells back to back and reports per-cell digests and
// its clock readings over a pipe. The parent measures each child from
// outside (wait4 rusage gives CPU time and peak RSS), checks the outputs and
// prints every metric, then one JSON result line.
//
//   dlion_bench [--workload=a,b] [--seed=42] [--reps=5 | --seconds=S]
//               [--trace=1] [--out=report.json] [--check-threads]
//   dlion_bench --run=<workload> --seed=N [--setup-only]     (child)
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "layer_trace.h"
#include "obs/critical_path.h"
#include "obs/obs.h"
#include "obs/trace_sink.h"
#include "systems/registry.h"
#include "tensor/ops.h"

extern char** environ;

namespace dlion::bench::e2e {

// Weak defaults for the untraced build; layer_wraps.cpp overrides them.
[[gnu::weak]] bool trace_start() { return false; }
[[gnu::weak]] std::vector<BoundaryStats> trace_boundaries() { return {}; }
[[gnu::weak]] std::vector<GemmShape> trace_gemm_shapes() { return {}; }
[[gnu::weak]] std::uint64_t trace_foreign_calls() { return 0; }

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ workloads

/// A workload's inputs: the synthesised dataset and its list of cells.
struct Inputs {
  exp::Workload data;
  std::vector<exp::RunSpec> cells;
};

/// What one cell produced.
struct CellOutcome {
  std::uint64_t digest = 0;
  std::uint64_t iterations = 0;
  std::uint64_t bytes = 0;
  double accuracy = 0.0;
  bool ok = false;
};

struct WorkloadDef {
  std::string_view name;
  Inputs (*make_inputs)(std::uint64_t seed);
  /// Attach the scale observability configuration to every cell (streamed
  /// into a null sink) and compute the critical path after it.
  bool full_obs = false;
  /// Workload-level output check; clears `ok` on the cells it fails.
  void (*check)(std::vector<CellOutcome>& cells) = nullptr;
  /// Boundaries the traced pass must see called at least once.
  std::vector<std::string_view> boundaries;
  /// Workload digest at seed kAnchorSeed when the anchor was recorded, with
  /// the avx2-6x16 GEMM kernel (other kernels may round differently).
  std::uint64_t anchor_digest = 0;
};

constexpr std::uint64_t kAnchorSeed = 42;

exp::Scale scale_for(std::uint64_t seed) {
  exp::Scale scale;
  scale.seed = seed;
  return scale;
}

// Fig 11: the five systems on Homo A, Hetero SYS A and Hetero SYS B.
Inputs fig11_inputs(std::uint64_t seed) {
  const exp::Scale scale = scale_for(seed);
  Inputs in{exp::make_workload("cpu", scale), {}};
  for (const char* env : {"Homo A", "Hetero SYS A", "Hetero SYS B"}) {
    for (const std::string& system : systems::comparison_systems()) {
      in.cells.push_back(make_run_spec(scale, system, env, scale.duration_s));
    }
  }
  return in;
}

// Fig 11's shape in both Hetero SYS environments (cells 5-9 and 10-14):
// dlion > gaia > hop > baseline, and dlion > ako. Ako's own rank moves with
// the seed (below hop at seeds 1, 3 and 7, below baseline at 1 and 2, above
// gaia at 12), so it is only required to lose to dlion.
void fig11_check(std::vector<CellOutcome>& cells) {
  for (const std::size_t base : {std::size_t{5}, std::size_t{10}}) {
    if (cells.size() < base + 5) continue;
    const auto acc = [&](std::size_t i) { return cells[base + i].accuracy; };
    // comparison_systems(): baseline, hop, gaia, ako, dlion.
    const bool shape = acc(4) > acc(2) && acc(2) > acc(1) &&
                       acc(1) > acc(0) && acc(4) > acc(3);
    if (shape) continue;
    std::cerr << "check: Fig 11 ordering fails in cells " << base << "-"
              << base + 4 << "\n";
    for (std::size_t i = 0; i < 5; ++i) cells[base + i].ok = false;
  }
}

// Fig 12: four systems on Homo C and Hetero SYS C, 20 s window.
Inputs fig12_inputs(std::uint64_t seed) {
  exp::Scale scale = scale_for(seed);
  scale.gpu_duration_s = 20.0;
  Inputs in{exp::make_workload("gpu", scale), {}};
  for (const char* env : {"Homo C", "Hetero SYS C"}) {
    for (const char* system : {"hop", "gaia", "ako", "dlion"}) {
      in.cells.push_back(
          make_run_spec(scale, system, env, scale.gpu_duration_s));
    }
  }
  return in;
}

Inputs scale_inputs(std::uint64_t seed, std::size_t workers,
                    const char* system, double duration_s) {
  const exp::Scale scale = scale_for(seed);
  Inputs in{exp::make_workload("cpu", scale), {}};
  exp::Environment env = exp::make_scale_environment(workers);
  exp::RunSpec spec = make_run_spec(scale, system, env.name, duration_s);
  spec.env_override = std::move(env);
  in.cells.push_back(std::move(spec));
  return in;
}

Inputs scale64_inputs(std::uint64_t seed) {
  return scale_inputs(seed, 64, "dlion", 15.0);
}

Inputs scale128_inputs(std::uint64_t seed) {
  return scale_inputs(seed, 128, "baseline", 240.0);
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"cpu-fig11", fig11_inputs, false, fig11_check,
       {"tensor::gemm[small]", "tensor::gemm[large]",
        "tensor::add_bias_rows_relu/mask", "tensor::apply_mask",
        "nn::Model::compute_gradients", "nn::Model::evaluate",
        "core::magnitudes", "core::count_max_n_mags",
        "core::select_top_k_mags/writer", "core::dense_grad/writer",
        "core::apply_gradient_update", "core::apply_own_gradients",
        "comm::Fabric::send", "comm::Fabric::broadcast",
        "sim::EventQueue::push", "sim::EventQueue::pop",
        "sim::Network::send", "sim::Engine::run_until",
        "data::MinibatchSampler::next", "core::Cluster::Cluster"},
       0x280d262266a445a4},
      {"gpu-fig12", fig12_inputs, false, nullptr,
       {"tensor::gemm[small]", "tensor::im2col", "tensor::col2im",
        "tensor::add_bias_channels_relu", "tensor::apply_mask",
        "nn::Model::compute_gradients", "nn::Model::evaluate",
        "core::select_top_k_mags/writer", "core::apply_gradient_update",
        "comm::Fabric::send", "sim::EventQueue::pop", "sim::Network::send",
        "sim::Engine::run_until", "data::MinibatchSampler::next",
        "core::Cluster::Cluster"},
       0xfff01afe0ddfdc86},
      {"scale64-dlion", scale64_inputs, false, nullptr,
       {"tensor::gemm[small]", "nn::Model::compute_gradients",
        "core::magnitudes", "core::count_max_n_mags",
        "core::select_top_k_mags/writer",
        "core::apply_gradient_update", "comm::Fabric::send",
        "sim::EventQueue::pop", "sim::Network::send",
        "sim::Engine::run_until", "core::Cluster::Cluster"},
       0x6c80dac8fe484a84},
      {"scale128-obs", scale128_inputs, true, nullptr,
       {"tensor::gemm[small]", "nn::Model::compute_gradients",
        "core::dense_grad/writer", "core::apply_gradient_update",
        "comm::Fabric::send", "sim::EventQueue::pop",
        "sim::Network::send", "sim::Engine::run_until",
        "obs::Tracer::complete", "obs::Tracer::flow",
        "obs::Histogram::observe",
        "core::Cluster::Cluster"},
       0x3fe8f84b9fc280fc},
  };
  return defs;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------- child

template <typename T>
std::uint64_t mix(std::uint64_t h, const T& v) {
  return fnv1a(&v, sizeof v, h);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

CellOutcome run_cell(const exp::RunSpec& spec, const exp::Workload& data,
                     bool full_obs) {
  CellOutcome out;
  try {
    exp::RunSpec run = spec;
    // Declared before the observer: the tracer keeps a pointer to the sink.
    std::ostream null_stream(nullptr);
    std::optional<obs::ChromeStreamSink> sink;
    std::unique_ptr<obs::Observability> o;
    if (full_obs) {
      // The scale configuration of bench/obs_overhead.cpp --workers=N:
      // per-micro-cloud rollups, stride-16 lanes, stride-64 flows, a
      // [0.5, 0.6) full-fidelity window and window-only retention.
      const double dur = spec.duration_s;
      o = std::make_unique<obs::Observability>();
      o->metrics().set_rollup({8, dur / 10.0});
      obs::TraceSampleConfig sc;
      sc.track_stride = 16;
      sc.head_events_per_track = 64;
      sc.flow_stride = 64;
      sc.full_t0 = 0.5 * dur;
      sc.full_t1 = 0.6 * dur;
      o->tracer().set_sampling(sc);
      o->tracer().set_retain_all(false);
      sink.emplace(null_stream);
      o->tracer().set_sink(&*sink);
      run.obs = o.get();
    }
    const exp::RunResult r = exp::run_experiment(run, data);
    std::uint64_t h = kFnvBasis;
    h = mix(h, r.total_iterations);
    h = mix(h, r.total_bytes);
    h = mix(h, r.final_accuracy);
    h = mix(h, r.best_accuracy);
    for (const auto& p : r.mean_curve.points()) {
      h = mix(h, p.time);
      h = mix(h, p.value);
    }
    out.ok = true;
    if (full_obs) {
      o->tracer().finish();
      const obs::CriticalPathReport path =
          obs::compute_critical_path(o->tracer(), {spec.duration_s / 10.0});
      h = mix(h, sink->checksum());
      h = mix(h, sink->events_written());
      h = mix(h, path.valid);
      if (!path.valid) std::cerr << "check: critical path invalid\n";
      out.ok = path.valid;
    }
    out.digest = h;
    out.iterations = r.total_iterations;
    out.bytes = r.total_bytes;
    out.accuracy = r.final_accuracy;
  } catch (const std::exception& e) {
    std::cerr << "cell " << spec.system << "/" << spec.environment
              << " threw: " << e.what() << "\n";
    out.ok = false;
  }
  return out;
}

/// Exit code of a traced child whose cells ran but whose trace self-check
/// failed.
constexpr int kTraceCheckFailed = 3;

/// Traced-pass self-check: every listed boundary was called, no wrapped
/// call ran off the simulation thread, and self time fits in traced wall.
bool trace_self_check(const WorkloadDef& w,
                      const std::vector<BoundaryStats>& table,
                      std::int64_t wall_ns) {
  bool ok = true;
  std::uint64_t self_ns = 0;
  for (const BoundaryStats& b : table) self_ns += b.self_ns;
  for (std::string_view name : w.boundaries) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const auto& b) { return b.name == name; });
    if (it == table.end() || it->calls == 0) {
      std::cerr << "trace check: boundary " << name << " recorded 0 calls on "
                << w.name << "\n";
      ok = false;
    }
  }
  if (trace_foreign_calls() > 0) {
    std::cerr << "trace check: " << trace_foreign_calls()
              << " wrapped calls ran off the simulation thread\n";
    ok = false;
  }
  if (static_cast<std::int64_t>(self_ns) > wall_ns) {
    std::cerr << "trace check: self time " << self_ns << " ns exceeds traced "
              << "wall " << wall_ns << " ns\n";
    ok = false;
  }
  return ok;
}

int run_child(const WorkloadDef& w, std::uint64_t seed, bool setup_only) {
  const Inputs in = w.make_inputs(seed);
  const bool traced = trace_start();
  const std::int64_t t0 = now_ns();
  std::printf("setup_end %lld\n", static_cast<long long>(t0));
  if (setup_only) return 0;

  std::vector<CellOutcome> cells;
  for (const exp::RunSpec& spec : in.cells) {
    cells.push_back(run_cell(spec, in.data, w.full_obs));
  }
  const std::int64_t t1 = now_ns();
  if (w.check != nullptr) w.check(cells);
  for (const CellOutcome& c : cells) {
    std::printf("cell %llu %llu %llu %.17g %d\n",
                static_cast<unsigned long long>(c.digest),
                static_cast<unsigned long long>(c.iterations),
                static_cast<unsigned long long>(c.bytes), c.accuracy,
                c.ok ? 1 : 0);
  }
  std::printf("cells_end %lld\n", static_cast<long long>(t1));
  if (!traced) return 0;

  const std::vector<BoundaryStats> table = trace_boundaries();
  for (const BoundaryStats& b : table) {
    std::printf("boundary %s %s %llu %llu %llu %.17g %llu\n", b.name.c_str(),
                b.group.c_str(), static_cast<unsigned long long>(b.calls),
                static_cast<unsigned long long>(b.incl_ns),
                static_cast<unsigned long long>(b.self_ns), b.work,
                static_cast<unsigned long long>(b.kept));
  }
  for (const GemmShape& g : trace_gemm_shapes()) {
    std::printf("gemm %d %d %zu %zu %zu %llu %llu\n", g.trans_a ? 1 : 0,
                g.trans_b ? 1 : 0, g.m, g.n, g.k,
                static_cast<unsigned long long>(g.calls),
                static_cast<unsigned long long>(g.self_ns));
  }
  return trace_self_check(w, table, t1 - t0) ? 0 : kTraceCheckFailed;
}

// --------------------------------------------------------------- parent

/// One child process as the parent saw it.
struct ChildRun {
  int exit_code = -1;  ///< -1 when it could not start or died by a signal
  std::int64_t spawn_ns = 0;
  std::int64_t setup_end_ns = 0;
  std::int64_t cells_end_ns = 0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<CellOutcome> cells;
  std::vector<BoundaryStats> boundaries;
  std::vector<GemmShape> gemm;

  bool exited_ok() const { return exit_code == 0; }
  /// Ran every cell and reported them all.
  bool cells_complete() const {
    return (exit_code == 0 || exit_code == kTraceCheckFailed) &&
           cells_end_ns != 0;
  }
  double setup_s() const { return (setup_end_ns - spawn_ns) * 1e-9; }
  double wall_s() const { return (cells_end_ns - setup_end_ns) * 1e-9; }
};

void parse_child_output(const std::string& text, ChildRun& run) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "setup_end") {
      ls >> run.setup_end_ns;
    } else if (tag == "cells_end") {
      ls >> run.cells_end_ns;
    } else if (tag == "cell") {
      CellOutcome c;
      int ok = 0;
      ls >> c.digest >> c.iterations >> c.bytes >> c.accuracy >> ok;
      c.ok = ok == 1 && !ls.fail();
      run.cells.push_back(c);
    } else if (tag == "boundary") {
      BoundaryStats b;
      ls >> b.name >> b.group >> b.calls >> b.incl_ns >> b.self_ns >> b.work >>
          b.kept;
      run.boundaries.push_back(b);
    } else if (tag == "gemm") {
      GemmShape g;
      int ta = 0, tb = 0;
      ls >> ta >> tb >> g.m >> g.n >> g.k >> g.calls >> g.self_ns;
      g.trans_a = ta != 0;
      g.trans_b = tb != 0;
      run.gemm.push_back(g);
    }
  }
}

/// Spawns `exe args...` with `env`, collects its stdout and waits for it.
ChildRun spawn_child(const std::string& exe,
                     const std::vector<std::string>& args,
                     const std::vector<std::string>& env) {
  ChildRun run;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    std::perror("pipe2");
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  run.spawn_ns = now_ns();
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    std::cerr << "posix_spawn " << exe << ": " << std::strerror(rc) << "\n";
    close(fds[0]);
    return run;
  }
  std::string out;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
  run.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB -> MB
  parse_child_output(out, run);
  if (!run.exited_ok()) {
    std::cerr << "child " << exe << " " << (args.empty() ? "" : args[0])
              << " ended abnormally (wait status " << status << ")\n";
  }
  return run;
}

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
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

/// Shortest decimal that reads back as exactly `v` (JSON-safe).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  Summary s;
};

/// Everything the parent learned about one workload.
struct WorkloadRuns {
  const WorkloadDef* def = nullptr;
  std::vector<double> setup_samples;
  std::vector<ChildRun> untraced;
  std::optional<ChildRun> traced;
  std::optional<ChildRun> single_thread;  ///< the DLION_THREADS=1 rep
  bool trace_ok = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  double accuracy = 0.0;  ///< mean final accuracy over the cells
};

/// Compares every full child cell by cell against the first one that
/// completed, and counts attempted/failed cells.
void check_cells(WorkloadRuns& w) {
  std::vector<const ChildRun*> all;
  for (const ChildRun& r : w.untraced) all.push_back(&r);
  for (const auto* r : {&w.traced, &w.single_thread}) {
    if (r->has_value()) all.push_back(&**r);
  }
  const ChildRun* ref = nullptr;
  for (const ChildRun* r : all) {
    if (r->cells_complete()) {
      ref = r;
      break;
    }
  }
  // With no complete child the cell count is unknown; count one per child.
  const std::size_t n_cells = ref != nullptr ? ref->cells.size() : 1;
  for (const ChildRun* r : all) {
    w.attempted += n_cells;
    if (!r->cells_complete() || r->cells.size() != n_cells) {
      w.failed += n_cells;
      continue;
    }
    for (std::size_t i = 0; i < n_cells; ++i) {
      if (!r->cells[i].ok || r->cells[i].digest != ref->cells[i].digest) {
        if (r->cells[i].ok) {
          std::cerr << "check: " << w.def->name << " cell " << i
                    << " digest differs from the first rep\n";
        }
        ++w.failed;
      }
    }
  }
  std::uint64_t h = kFnvBasis;
  double acc_sum = 0.0;
  if (ref != nullptr) {
    for (const CellOutcome& c : ref->cells) {
      h = mix(h, c.digest);
      acc_sum += c.accuracy;
    }
    w.accuracy = acc_sum / static_cast<double>(ref->cells.size());
  }
  w.digest = h;
}

std::vector<GemmShape> census_by_self_time(const ChildRun& traced) {
  std::vector<GemmShape> census = traced.gemm;
  std::sort(census.begin(), census.end(),
            [](const auto& a, const auto& b) { return a.self_ns > b.self_ns; });
  return census;
}

std::vector<Metric> end_to_end_metrics(const WorkloadRuns& w) {
  std::vector<double> wall, cpu, ips, rss;
  for (const ChildRun& r : w.untraced) {
    if (!r.exited_ok() || r.cells.empty()) continue;
    std::uint64_t iters = 0;
    for (const CellOutcome& c : r.cells) iters += c.iterations;
    wall.push_back(r.wall_s());
    cpu.push_back(r.cpu_s);
    ips.push_back(static_cast<double>(iters) / r.wall_s());
    rss.push_back(r.peak_rss_mb);
  }
  return {{"wall_s", "s", summarize(wall)},
          {"cpu_s", "s", summarize(cpu)},
          {"iters_per_s", "iter/s", summarize(ips)},
          {"setup_s", "s", summarize(w.setup_samples)},
          {"peak_rss_mb", "MB", summarize(rss)}};
}

std::vector<Metric> per_layer_metrics(const ChildRun& t,
                                      double untraced_wall_s) {
  const double wall = t.wall_s();
  struct Agg {
    double calls = 0, incl_s = 0, self_s = 0, work = 0, kept = 0;
  };
  std::map<std::string, Agg> group, layer;
  double pops = 0.0, attributed_s = 0.0;
  for (const BoundaryStats& b : t.boundaries) {
    for (Agg* a : {&group[b.group], &layer[b.group.substr(0, b.group.find('.'))]}) {
      a->calls += static_cast<double>(b.calls);
      a->incl_s += static_cast<double>(b.incl_ns) * 1e-9;
      a->self_s += static_cast<double>(b.self_ns) * 1e-9;
      a->work += b.work;
      a->kept += static_cast<double>(b.kept);
    }
    attributed_s += static_cast<double>(b.self_ns) * 1e-9;
    if (b.name == "sim::EventQueue::pop") pops = static_cast<double>(b.calls);
  }
  std::uint64_t bytes = 0;
  for (const CellOutcome& c : t.cells) bytes += c.bytes;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto one = [](double v) { return Summary{v, v, v, 1}; };
  std::vector<Metric> m;
  const auto add = [&](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), one(v)});
  };
  for (const char* g : {"tensor.gemm_small", "tensor.gemm_large"}) {
    const Agg& a = group[g];
    add(std::string(g) + ".calls", "count", a.calls);
    add(std::string(g) + ".self_s", "s", a.self_s);
    add(std::string(g) + ".gflops", "GFLOP/s", ratio(a.work, a.self_s) * 1e-9);
  }
  add("tensor.im2col.calls", "count", group["tensor.im2col"].calls);
  add("tensor.epilogue.self_s", "s", group["tensor.epilogue"].self_s);
  add("tensor.share", "fraction", ratio(layer["tensor"].self_s, wall));
  add("nn.train_step.calls", "count", group["nn.train_step"].calls);
  add("nn.train_step.self_s", "s", group["nn.train_step"].self_s);
  add("nn.eval.calls", "count", group["nn.eval"].calls);
  add("nn.eval.self_s", "s", group["nn.eval"].self_s);
  add("nn.eval.incl_share", "fraction", ratio(group["nn.eval"].incl_s, wall));
  add("nn.share", "fraction", ratio(layer["nn"].self_s, wall));
  const Agg& sel = group["core.select"];
  add("core.select.calls", "count", sel.calls);
  add("core.select.self_s", "s", sel.self_s);
  add("core.select.gelems_per_s", "Gelem/s", ratio(sel.work, sel.self_s) * 1e-9);
  add("core.select.kept_ratio", "fraction", ratio(sel.kept, sel.work));
  add("core.update.calls", "count", group["core.update"].calls);
  add("core.update.self_s", "s", group["core.update"].self_s);
  add("core.share", "fraction", ratio(layer["core"].self_s, wall));
  add("comm.send.calls", "count", group["comm.send"].calls);
  add("comm.send.self_s", "s", group["comm.send"].self_s);
  add("comm.bytes", "B", static_cast<double>(bytes));
  add("sim.events", "count", pops);
  add("sim.queue.self_s", "s", group["sim.queue"].self_s);
  add("sim.network.self_s", "s", group["sim.network"].self_s);
  add("sim.dispatch.self_s", "s", group["sim.dispatch"].self_s);
  add("sim.share", "fraction", ratio(layer["sim"].self_s, wall));
  add("obs.records", "count", group["obs"].calls);
  add("obs.share", "fraction", ratio(layer["obs"].self_s, wall));
  add("data.sample.self_s", "s", group["data.sample"].self_s);
  add("exp.cluster_build_s", "s", group["exp.cluster_build"].incl_s);
  add("trace.overhead_pct", "%",
      100.0 * ratio(wall - untraced_wall_s, untraced_wall_s));
  add("trace.unattributed_share", "fraction",
      ratio(wall - attributed_s, wall));
  return m;
}

/// --seed (default 42) as an unsigned 64-bit integer; nullopt if malformed.
std::optional<std::uint64_t> parse_seed(const common::Config& cfg) {
  const std::string s = cfg.get_string("seed", "42");
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<std::string> child_env(std::size_t threads) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DLION_THREADS=", 14) != 0) env.emplace_back(*e);
  }
  env.push_back("DLION_THREADS=" + std::to_string(threads));
  return env;
}

void write_report(const std::string& path,
                  const std::vector<WorkloadRuns>& runs,
                  const std::vector<std::vector<Metric>>& e2e,
                  const std::vector<std::vector<Metric>>& layers,
                  std::uint64_t seed, std::size_t nproc, std::size_t threads,
                  double total_s) {
  std::ofstream js(path, std::ios::trunc);
  js << "{\n  \"schema\": \"dlion-bench-e2e-v1\",\n  \"meta\": {"
     << "\"seed\": " << seed << ", \"nproc\": " << nproc
     << ", \"threads\": " << threads << ", \"gemm_kernel\": \""
     << tensor::gemm_kernel_name() << "\", \"build_type\": \""
     << DLION_BENCH_BUILD_TYPE << "\", \"cpu\": \"" << cpu_model()
     << "\", \"total_runtime_s\": " << num(total_s) << "},\n"
     << "  \"workloads\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRuns& w = runs[i];
    js << (i ? ",\n" : "\n") << "    \"" << w.def->name << "\": {\n"
       << "      \"digest\": \"" << hex64(w.digest) << "\",\n"
       << "      \"accuracy\": " << num(w.accuracy) << ",\n";
    if (seed == kAnchorSeed && w.def->anchor_digest != 0) {
      js << "      \"outputs_identical\": "
         << (w.digest == w.def->anchor_digest ? "true" : "false") << ",\n";
    }
    js << "      \"cells_attempted\": " << w.attempted
       << ",\n      \"cells_failed\": " << w.failed
       << ",\n      \"trace_ok\": " << (w.trace_ok ? "true" : "false")
       << ",\n      \"metrics\": {";
    for (std::size_t j = 0; j < e2e[i].size(); ++j) {
      const Metric& m = e2e[i][j];
      js << (j ? ",\n" : "\n") << "        \"" << m.name << "\": {\"median\": "
         << num(m.s.median) << ", \"q1\": " << num(m.s.q1)
         << ", \"q3\": " << num(m.s.q3) << ", \"n\": " << m.s.n
         << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "\n      },\n      \"layers\": {";
    for (std::size_t j = 0; j < layers[i].size(); ++j) {
      const Metric& m = layers[i][j];
      js << (j ? ",\n" : "\n") << "        \"" << m.name
         << "\": " << num(m.s.median);
    }
    js << "\n      },\n      \"gemm_census\": [";
    if (w.traced) {
      const std::vector<GemmShape> census = census_by_self_time(*w.traced);
      for (std::size_t j = 0; j < census.size(); ++j) {
        const GemmShape& g = census[j];
        js << (j ? ",\n" : "\n") << "        {\"trans_a\": "
           << (g.trans_a ? "true" : "false")
           << ", \"trans_b\": " << (g.trans_b ? "true" : "false")
           << ", \"m\": " << g.m << ", \"n\": " << g.n << ", \"k\": " << g.k
           << ", \"calls\": " << g.calls << ", \"gflop\": "
           << num(2.0 * g.m * g.n * g.k * g.calls * 1e-9)
           << ", \"self_s\": " << num(g.self_ns * 1e-9) << "}";
      }
    }
    js << "\n      ]\n    }";
  }
  js << "\n  }\n}\n";
}

int run_parent(const common::Config& cfg) {
  const std::string build_type = DLION_BENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "dlion_bench: refusing to measure a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::vector<WorkloadRuns> runs;
  const std::string selected = cfg.get_string("workload", "");
  if (selected.empty()) {
    for (const WorkloadDef& w : workloads()) runs.emplace_back().def = &w;
  } else {
    for (const std::string& name : split(selected, ',')) {
      const WorkloadDef* w = find_workload(name);
      if (w == nullptr) {
        std::cerr << "dlion_bench: unknown workload '" << name << "'\n";
        return 2;
      }
      runs.emplace_back().def = w;
    }
  }
  const std::optional<std::uint64_t> parsed_seed = parse_seed(cfg);
  const double seconds = cfg.get_double("seconds", 0.0);
  const long long reps = cfg.get_int("reps", 5);
  const bool trace = cfg.get_int("trace", 1) != 0;
  const std::string out_path = cfg.get_string("out", "");
  const bool check_threads = cfg.get_bool("check-threads", false);
  if (!parsed_seed || reps < 1 || seconds < 0.0) {
    std::cerr << "dlion_bench: --seed must be an unsigned integer, --reps "
                 ">= 1 and --seconds >= 0\n";
    return 2;
  }
  const std::uint64_t seed = *parsed_seed;

  const std::size_t nproc = online_cpus();
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  const std::vector<std::string> env = child_env(threads);
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path();
  const std::string untraced_exe = dir / "dlion_bench";
  const std::string traced_exe = dir / "dlion_bench_traced";
  const std::string seed_arg = "--seed=" + std::to_string(seed);
  std::cerr << "dlion_bench: seed " << seed << ", DLION_THREADS=" << threads
            << " of " << nproc << " cpus, gemm kernel "
            << tensor::gemm_kernel_name() << ", " << build_type << " build\n";

  // Closed loop, one child at a time. Rounds interleave the workloads
  // (W1 W2 ... W1 W2 ...) so machine drift hits all of them alike. Round 0
  // also runs the traced pass and the set-up-only children, back to back so
  // that every set-up sample starts from the same state.
  constexpr int kSetupOnlySamples = 9;
  const std::int64_t start = now_ns();
  for (long long round = 0;; ++round) {
    std::int64_t untraced_ns = 0;
    for (WorkloadRuns& w : runs) {
      const std::string run_arg = "--run=" + std::string(w.def->name);
      if (round == 0) {
        for (int i = 0; i < kSetupOnlySamples; ++i) {
          const ChildRun r = spawn_child(
              untraced_exe, {run_arg, seed_arg, "--setup-only"}, env);
          if (r.exited_ok()) w.setup_samples.push_back(r.setup_s());
        }
      }
      const std::int64_t t0 = now_ns();
      ChildRun r = spawn_child(untraced_exe, {run_arg, seed_arg}, env);
      untraced_ns += now_ns() - t0;
      w.untraced.push_back(std::move(r));
      if (round == 0 && trace) {
        ChildRun t = spawn_child(traced_exe, {run_arg, seed_arg}, env);
        w.trace_ok = t.exited_ok() && !t.boundaries.empty();
        w.traced = std::move(t);
      }
    }
    const double elapsed_s = (now_ns() - start) * 1e-9;
    const bool more = seconds > 0.0
                          ? elapsed_s + untraced_ns * 1e-9 <= seconds
                          : round + 1 < reps;
    if (!more) break;
  }
  if (check_threads) {
    const std::vector<std::string> env1 = child_env(1);
    for (WorkloadRuns& w : runs) {
      w.single_thread = spawn_child(
          untraced_exe, {"--run=" + std::string(w.def->name), seed_arg}, env1);
    }
  }
  const double total_s = (now_ns() - start) * 1e-9;

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::vector<Metric>> e2e, layers;
  for (WorkloadRuns& w : runs) {
    check_cells(w);
    attempted += w.attempted;
    failed += w.failed;
    correct = correct && w.trace_ok && w.failed == 0;
    e2e.push_back(end_to_end_metrics(w));
    layers.push_back(w.traced && w.trace_ok
                         ? per_layer_metrics(*w.traced, e2e.back()[0].s.median)
                         : std::vector<Metric>{});
  }

  std::printf("%-14s %-28s %14s %-9s %14s %14s %14s %3s\n", "workload",
              "metric", "value", "unit", "median", "q1", "q3", "n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const auto* table : {&e2e[i], &layers[i]}) {
      for (const Metric& m : *table) {
        std::printf("%-14s %-28s %14.6g %-9s %14.6g %14.6g %14.6g %3zu\n",
                    std::string(runs[i].def->name).c_str(), m.name.c_str(),
                    m.s.median, m.unit.c_str(), m.s.median, m.s.q1, m.s.q3,
                    m.s.n);
      }
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRuns& w = runs[i];
    std::printf("check %-14s digest %s accuracy %.6g cells %zu failed %zu "
                "trace %s",
                std::string(w.def->name).c_str(), hex64(w.digest).c_str(),
                w.accuracy, w.attempted, w.failed,
                !trace ? "off" : w.trace_ok ? "ok" : "FAILED");
    if (seed == kAnchorSeed && w.def->anchor_digest != 0) {
      std::printf(" outputs_identical %s",
                  w.digest == w.def->anchor_digest ? "yes" : "no");
    }
    std::printf("\n");
    if (!w.traced) continue;
    const std::vector<GemmShape> census = census_by_self_time(*w.traced);
    for (std::size_t j = 0; j < std::min<std::size_t>(census.size(), 5); ++j) {
      const GemmShape& g = census[j];
      std::printf("gemm  %-14s %c%c m=%zu n=%zu k=%zu calls=%llu self_s=%.4g\n",
                  std::string(w.def->name).c_str(), g.trans_a ? 'T' : 'N',
                  g.trans_b ? 'T' : 'N', g.m, g.n, g.k,
                  static_cast<unsigned long long>(g.calls), g.self_ns * 1e-9);
    }
  }
  if (!out_path.empty()) {
    write_report(out_path, runs, e2e, layers, seed, nproc, threads, total_s);
    std::cerr << "dlion_bench: wrote " << out_path << "\n";
  }

  // The result line: end-to-end metrics untraced, per-layer ones traced.
  // Names carry a workload prefix only when several workloads ran.
  std::string js = "{\"correct\": " + std::string(correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(attempted) +
                   ", \"failed\": " + std::to_string(failed) +
                   ", \"metrics\": {";
  bool first = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string prefix =
        runs.size() > 1 ? std::string(runs[i].def->name) + "." : "";
    for (const Metric& m : trace ? layers[i] : e2e[i]) {
      js += (first ? "\"" : ", \"") + prefix + m.name + "\": {\"value\": " +
            num(m.s.median) + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dlion::bench::e2e

int main(int argc, char** argv) {
  using namespace dlion::bench::e2e;
  const dlion::common::Config cfg = dlion::common::Config::from_args(argc, argv);
  const std::string child = cfg.get_string("run", "");
  if (child.empty()) return run_parent(cfg);
  const WorkloadDef* w = find_workload(child);
  const std::optional<std::uint64_t> seed = parse_seed(cfg);
  if (w == nullptr || !seed) {
    std::cerr << "dlion_bench: bad --run or --seed\n";
    return 2;
  }
  return run_child(*w, *seed, cfg.get_bool("setup-only", false));
}
