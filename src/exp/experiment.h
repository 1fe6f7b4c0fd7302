// Experiment runner shared by every bench binary: builds a Cluster for a
// (system, environment, workload) triple, runs it, and extracts the
// paper's metrics (§5.1.3): accuracy for a given training time, training
// time to a target accuracy, and converged accuracy. Repeated runs
// aggregate mean and 95% confidence interval like the paper's
// "average of three runs" protocol.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "systems/registry.h"

namespace dlion::exp {

/// Scale knobs resolved from --scale=bench|paper (plus individual flags).
struct Scale {
  bool paper = false;
  double duration_s = 300.0;       ///< CPU-cluster figure window (paper: 1500)
  double gpu_duration_s = 300.0;   ///< GPU-cluster window (paper: 7200)
  double dynamic_phase_s = 100.0;  ///< dynamic env phase (paper: 500)
  std::size_t repeats = 1;         ///< runs averaged per cell (paper: 3)
  std::uint64_t seed = 42;
  /// Accuracy-measurement period in iterations (paper: 20). Bench scale
  /// uses 5 because simulated iterations are fewer per window.
  std::uint64_t eval_period_iters = 5;
  /// DKT period in iterations (paper: 100). Bench-scale windows hold far
  /// fewer iterations, so the period shrinks proportionally.
  std::uint64_t dkt_period_iters = 25;

  static Scale from_config(const common::Config& cfg);
};

/// Workload: dataset + model + tuned learning rate.
struct Workload {
  data::TrainTest data;
  std::string model;
  double learning_rate;
};

/// "cpu" = SynthCipher + Cipher model (lite unless paper scale);
/// "gpu" = SynthImageNet100 + MobileNet.
Workload make_workload(const std::string& kind, const Scale& scale);

struct RunSpec {
  std::string system = "dlion";      ///< systems::make_system name
  std::string environment = "Homo A";
  double duration_s = 300.0;
  double dynamic_phase_s = 100.0;
  std::uint64_t seed = 42;
  std::uint64_t eval_period_iters = 5;
  std::uint64_t dkt_period_iters = 25;
  /// Additional option tweaks applied after the system's configure().
  std::function<void(core::WorkerOptions&)> extra_configure;
  /// Environment override (used instead of `environment` when set).
  std::optional<Environment> env_override;
  /// Replaces the system's partial-gradient strategy factory (e.g. Max N
  /// sweeps at specific N values).
  std::function<core::StrategyPtr(std::size_t)> strategy_override;
  /// Extra faults appended to the environment's own schedule (if any).
  sim::FaultSchedule faults;
  /// Auto-enable the workers' fault-tolerance layer when the combined fault
  /// schedule is non-empty (set false for the undefended baseline).
  bool auto_fault_tolerance = true;
  /// Observer wired through the whole stack for this run (non-owning; must
  /// outlive run_experiment). Leave nullptr for an uninstrumented run.
  /// RunResult::telemetry is filled exactly when an observer is attached;
  /// the critical path is read from its tracer (obs::compute_critical_path).
  obs::Observability* obs = nullptr;
  /// Online watchdog: when set, run_experiment attaches an obs::Watchdog
  /// for the run (detector events land in RunResult::telemetry.watchdog_*),
  /// and a run-local observer to feed it if `obs` is unset. A fired
  /// detector only reports; the run is the same as an unwatched one.
  std::optional<obs::WatchdogConfig> watchdog;
};

struct RunResult {
  std::string system;
  std::string environment;
  double final_accuracy = 0.0;      ///< cluster mean at the end of the run
  double best_accuracy = 0.0;       ///< max of the cluster-mean curve
  double accuracy_stddev = 0.0;     ///< across workers at the end (Fig. 17)
  double time_to_70 = 0.0;          ///< +inf if not reached
  std::uint64_t total_iterations = 0;
  common::Bytes total_bytes = 0;
  sim::Trace mean_curve;
  // Fault / degradation accounting (all zero for fault-free runs).
  std::uint64_t messages_dropped = 0;   ///< network drops (crash/blackout/loss)
  std::uint64_t dead_letters = 0;       ///< messages to detached workers
  std::uint64_t reliable_retries = 0;   ///< control-plane retransmissions
  std::uint64_t worker_recoveries = 0;  ///< completed crash->recover cycles
  /// Where simulated time and bytes went (populated when the run had an
  /// observer attached via RunSpec::obs or RunSpec::watchdog;
  /// `telemetry.collected` is false otherwise).
  obs::RunTelemetry telemetry;
};

/// Run one simulation.
RunResult run_experiment(const RunSpec& spec, const Workload& workload);

/// Repeat with different seeds; returns per-metric mean and 95% CI.
struct Aggregate {
  std::string system;
  std::string environment;
  common::RunningStats final_accuracy;
  common::RunningStats best_accuracy;
  common::RunningStats accuracy_stddev;
  common::RunningStats time_to_70;
  std::vector<RunResult> runs;
};
Aggregate run_repeated(RunSpec spec, const Workload& workload,
                       std::size_t repeats);

/// Convenience: time the cluster-mean curve takes to reach `threshold`.
double time_to_accuracy(const RunResult& result, double threshold);

}  // namespace dlion::exp
