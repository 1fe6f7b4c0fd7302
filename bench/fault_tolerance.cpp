// Fault tolerance under micro-cloud churn (beyond the paper's evaluation):
// two of six workers crash in staggered windows and a network partition
// briefly splits the cluster. For each system the bench reports the
// accuracy dip caused by the faults, the time the cluster needs to recover
// to its pre-fault accuracy, and how much training survives - with the
// fault-tolerance layer on versus the undefended system.
//
// The fault schedule is deterministic (FaultSchedule + seed), so every row
// is exactly reproducible.
#include "bench_util.h"

#include <algorithm>
#include <limits>

namespace {

/// Largest drop of the cluster-mean accuracy after `t0` below its pre-fault
/// peak (0 if the curve never dips).
double accuracy_dip(const dlion::sim::Trace& curve, double t0) {
  double pre_peak = 0.0;
  double dip = 0.0;
  for (const auto& p : curve.points()) {
    if (p.time <= t0) {
      pre_peak = std::max(pre_peak, p.value);
    } else {
      dip = std::max(dip, pre_peak - p.value);
    }
  }
  return dip;
}

/// Seconds after `t0` until the curve climbs back to `fraction` of its
/// pre-fault peak (+inf if it never does; 0 if it never fell below).
double recovery_seconds(const dlion::sim::Trace& curve, double t0,
                        double fraction = 0.95) {
  double pre_peak = 0.0;
  for (const auto& p : curve.points()) {
    if (p.time <= t0) pre_peak = std::max(pre_peak, p.value);
  }
  const double target = fraction * pre_peak;
  bool fell = false;
  for (const auto& p : curve.points()) {
    if (p.time <= t0) continue;
    if (p.value < target) {
      fell = true;
    } else if (fell) {
      return p.time - t0;
    }
  }
  return fell ? std::numeric_limits<double>::infinity() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlion;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_header(
      "Fault tolerance: crash 2-of-6 + partition under churn", ctx.scale);
  const exp::Workload workload = exp::make_workload("cpu", ctx.scale);
  const double duration = ctx.scale.duration_s;

  // Churn scaled to the run window: worker 5 crashes at 20% of the run,
  // worker 4 at 30%, each down for 20%; the cluster partitions {0,1,2} vs
  // {3,4,5} for a 13% window in the second half.
  exp::ChurnSpec churn;
  churn.crashed_workers = 2;
  churn.crash_start_s = 0.20 * duration;
  churn.downtime_s = 0.20 * duration;
  churn.stagger_s = 0.10 * duration;
  churn.partition_start_s = 0.60 * duration;
  churn.partition_end_s = 0.73 * duration;
  const exp::Environment env =
      exp::make_churn_environment("Homo B", churn, ctx.scale.dynamic_phase_s);
  const double fault_onset = churn.crash_start_s;

  std::cout << "fault schedule: worker 5 down [" << churn.crash_start_s
            << ", " << churn.crash_start_s + churn.downtime_s
            << ") s, worker 4 down ["
            << churn.crash_start_s + churn.stagger_s << ", "
            << churn.crash_start_s + churn.stagger_s + churn.downtime_s
            << ") s, partition {0,1,2}|{3,4,5} [" << churn.partition_start_s
            << ", " << churn.partition_end_s << ") s\n\n";

  common::Table table({"system", "faults", "FT", "best acc", "final acc",
                       "vs clean", "dip", "recovery", "iters", "drops",
                       "dead ltrs", "retries"});
  for (const std::string system : {"baseline", "hop", "dlion"}) {
    // Reference: the same system with no faults injected.
    exp::RunSpec clean =
        bench::make_run_spec(ctx.scale, system, "Homo B", duration);
    const exp::RunResult ref = exp::run_experiment(clean, workload);
    table.row()
        .cell(system)
        .cell("none")
        .cell("-")
        .cell(ref.best_accuracy, 3)
        .cell(ref.final_accuracy, 3)
        .cell("1.00")
        .cell("-")
        .cell("-")
        .cell(static_cast<double>(ref.total_iterations), 0)
        .cell("0")
        .cell("0")
        .cell("0");

    for (const bool ft : {false, true}) {
      exp::RunSpec spec =
          bench::make_run_spec(ctx.scale, system, "Homo B", duration);
      spec.env_override = env;
      spec.auto_fault_tolerance = ft;
      const exp::RunResult res = exp::run_experiment(spec, workload);
      table.row()
          .cell(system)
          .cell("churn")
          .cell(ft ? "on" : "off")
          .cell(res.best_accuracy, 3)
          .cell(res.final_accuracy, 3)
          .cell(ref.final_accuracy > 0.0
                    ? res.final_accuracy / ref.final_accuracy
                    : 0.0,
                2)
          .cell(accuracy_dip(res.mean_curve, fault_onset), 3)
          .cell(bench::fmt_time_or_inf(
              recovery_seconds(res.mean_curve, fault_onset)))
          .cell(static_cast<double>(res.total_iterations), 0)
          .cell(static_cast<double>(res.messages_dropped), 0)
          .cell(static_cast<double>(res.dead_letters), 0)
          .cell(static_cast<double>(res.reliable_retries), 0);
      if (ft) bench::maybe_export_curve(ctx, res, "ft-" + system);
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading the table: with the fault-tolerance layer off, the\n"
         "synchronous and bounded-staleness systems stall once a crashed\n"
         "peer exhausts the staleness budget (iteration counts collapse).\n"
         "With it on, heartbeat suspicion shrinks the wait-set, weighted\n"
         "updates renormalize over live workers, and crashed workers rejoin\n"
         "via checkpoint restore + state catch-up, so training rides through\n"
         "the churn with a bounded accuracy dip and finite recovery time.\n";
  return 0;
}
