#include "exp/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace dlion::exp {

Scale Scale::from_config(const common::Config& cfg) {
  Scale s;
  s.paper = cfg.get_string("scale", "bench") == "paper";
  if (s.paper) {
    s.duration_s = 1500.0;      // §5.2.1: Cipher trained for 1500 s
    s.gpu_duration_s = 7200.0;  // §5.2.2: MobileNet trained for 2 h
    s.dynamic_phase_s = 500.0;  // §5.1.5
    s.repeats = 3;              // §5.1.4: average of three runs
    s.eval_period_iters = 20;   // §5.1.3
    s.dkt_period_iters = 100;   // §5.1.4
  }
  s.eval_period_iters = static_cast<std::uint64_t>(cfg.get_int(
      "eval-period", static_cast<long long>(s.eval_period_iters)));
  s.dkt_period_iters = static_cast<std::uint64_t>(cfg.get_int(
      "dkt-period", static_cast<long long>(s.dkt_period_iters)));
  s.duration_s = cfg.get_double("duration", s.duration_s);
  s.gpu_duration_s = cfg.get_double("gpu-duration", s.gpu_duration_s);
  s.dynamic_phase_s = cfg.get_double("phase", s.dynamic_phase_s);
  s.repeats = static_cast<std::size_t>(cfg.get_int(
      "repeats", static_cast<long long>(s.repeats)));
  s.seed = static_cast<std::uint64_t>(cfg.get_int(
      "seed", static_cast<long long>(s.seed)));
  return s;
}

Workload make_workload(const std::string& kind, const Scale& scale) {
  Workload w;
  if (kind == "cpu") {
    w.data = data::make_synth_cipher(scale.seed, scale.paper);
    w.model = scale.paper ? "cipher" : "cipher-lite";
    w.learning_rate = 0.12;
  } else if (kind == "gpu") {
    w.data = data::make_synth_imagenet100(scale.seed, scale.paper);
    w.model = scale.paper ? "mobilenet" : "mobilenet-20";
    w.learning_rate = 0.12;
  } else {
    throw std::invalid_argument("make_workload: unknown kind '" + kind + "'");
  }
  return w;
}

RunResult run_experiment(const RunSpec& spec, const Workload& workload) {
  const Environment env =
      spec.env_override
          ? *spec.env_override
          : make_environment(spec.environment, spec.dynamic_phase_s);
  const systems::SystemSpec system = systems::make_system(spec.system);

  core::ClusterSpec cluster_spec;
  cluster_spec.model = workload.model;
  cluster_spec.seed = spec.seed;
  cluster_spec.compute = env.compute;
  cluster_spec.network_setup = env.network_setup;
  cluster_spec.duration_s = spec.duration_s;
  cluster_spec.strategy_factory = spec.strategy_override
                                      ? spec.strategy_override
                                      : system.strategy_factory;

  // Fault schedule: the environment's churn plus any per-run extras.
  sim::FaultSchedule faults = env.faults;
  faults.crashes.insert(faults.crashes.end(), spec.faults.crashes.begin(),
                        spec.faults.crashes.end());
  faults.blackouts.insert(faults.blackouts.end(),
                          spec.faults.blackouts.begin(),
                          spec.faults.blackouts.end());
  faults.losses.insert(faults.losses.end(), spec.faults.losses.begin(),
                       spec.faults.losses.end());
  if (!spec.faults.empty()) faults.seed = spec.faults.seed;
  cluster_spec.faults = std::move(faults);
  cluster_spec.auto_fault_tolerance = spec.auto_fault_tolerance;

  // Observability: prefer the caller's observer; otherwise a watchdog gets
  // a run-local one to feed it, whose summary survives in
  // RunResult::telemetry.
  std::unique_ptr<obs::Observability> local_obs;
  obs::Observability* run_obs = spec.obs;
  if (run_obs == nullptr && spec.watchdog.has_value()) {
    local_obs = std::make_unique<obs::Observability>();
    run_obs = local_obs.get();
  }
  cluster_spec.obs = run_obs;

  core::WorkerOptions options;
  options.learning_rate = workload.learning_rate;
  options.eval_period_iters = spec.eval_period_iters;
  system.configure(options);
  options.dkt.period_iters = spec.dkt_period_iters;
  if (spec.extra_configure) spec.extra_configure(options);
  cluster_spec.worker_options = options;

  core::Cluster cluster(cluster_spec, workload.data.train,
                        workload.data.test);

  // Watchdog: fed from record sites during the run; it never steers it.
  std::unique_ptr<obs::Watchdog> watchdog;
  if (spec.watchdog.has_value()) {
    watchdog = std::make_unique<obs::Watchdog>(*spec.watchdog,
                                               cluster.size());
    watchdog->set_tracer(&run_obs->tracer());
    run_obs->set_watchdog(watchdog.get());
  }

  cluster.run();
  if (watchdog != nullptr) watchdog->finalize(cluster.engine().now());

  RunResult result;
  result.system = spec.system;
  result.environment = env.name;
  result.mean_curve = cluster.mean_accuracy_trace();
  result.final_accuracy = result.mean_curve.last();
  if (std::isnan(result.final_accuracy)) result.final_accuracy = 0.0;
  result.best_accuracy = result.mean_curve.max();
  if (std::isnan(result.best_accuracy)) result.best_accuracy = 0.0;
  result.accuracy_stddev = cluster.accuracy_stddev();
  result.time_to_70 = result.mean_curve.time_to_reach(0.70);
  result.total_iterations = cluster.total_iterations();
  result.total_bytes = cluster.total_bytes_sent();
  result.messages_dropped = cluster.network().total_stats().messages_dropped;
  result.dead_letters = cluster.fabric().dead_letters();
  result.reliable_retries = cluster.fabric().reliable_retries();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    result.worker_recoveries += cluster.worker(i).recover_count();
  }
  if (run_obs != nullptr) {
    result.telemetry = obs::summarize(*run_obs);
    // The watchdog dies with this call; never leave a caller-owned
    // observer pointing at it.
    run_obs->set_watchdog(nullptr);
  }
  return result;
}

Aggregate run_repeated(RunSpec spec, const Workload& workload,
                       std::size_t repeats) {
  Aggregate agg;
  agg.system = spec.system;
  agg.environment = spec.env_override ? spec.env_override->name
                                      : spec.environment;
  const std::uint64_t base_seed = spec.seed;
  for (std::size_t r = 0; r < std::max<std::size_t>(repeats, 1); ++r) {
    spec.seed = base_seed + 1000 * r;
    RunResult run = run_experiment(spec, workload);
    agg.final_accuracy.add(run.final_accuracy);
    agg.best_accuracy.add(run.best_accuracy);
    agg.accuracy_stddev.add(run.accuracy_stddev);
    if (std::isfinite(run.time_to_70)) agg.time_to_70.add(run.time_to_70);
    agg.runs.push_back(std::move(run));
  }
  return agg;
}

double time_to_accuracy(const RunResult& result, double threshold) {
  return result.mean_curve.time_to_reach(threshold);
}

}  // namespace dlion::exp
