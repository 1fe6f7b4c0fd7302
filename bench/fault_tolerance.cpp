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
#include <cstdio>
#include <fstream>
#include <limits>

namespace {

using dlion::bench::jcurve;
using dlion::bench::jnum;

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

  // --- Elastic membership: deterministic join/leave + multi-peer bootstrap
  // (DESIGN.md, "Elastic membership"). Each scenario runs once with its
  // churn schedule and once as the churn-free static roster of its initial
  // members; the comparison is the accuracy cost of elasticity. Results go
  // to stdout, and to a JSON report with --elastic-out=PATH (the committed
  // anchor is regenerated with --elastic-out=BENCH_elastic.json).
  std::cout << "\n--- elastic membership: join/leave + multi-peer bootstrap "
               "---\n\n";
  common::Table etable({"scenario", "slots", "members", "joins", "leaves",
                        "epoch", "join lat", "min donors", "boot MB",
                        "final acc", "static acc", "watchdog"});
  std::string json;
  json += "{\n";
  json += "  \"schema\": \"dlion-elastic-v1\",\n";
  json += "  \"generated_by\": \"bench/fault_tolerance\",\n";
  json += "  \"system\": \"dlion\",\n";
  json += "  \"seed\": " + std::to_string(ctx.scale.seed) + ",\n";
  json += "  \"duration_s\": " + jnum(duration, 1) + ",\n";
  json += "  \"scenarios\": [\n";
  const std::vector<std::string> kinds = exp::elastic_environment_names();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string& kind = kinds[k];
    const exp::Environment elastic_env =
        exp::make_elastic_environment(kind, ctx.scale.dynamic_phase_s);

    exp::RunSpec spec =
        bench::make_run_spec(ctx.scale, "dlion", kind, duration);
    spec.env_override = elastic_env;
    spec.watchdog = obs::WatchdogConfig{};
    const exp::RunResult res = exp::run_experiment(spec, workload);

    // Churn-free counterpart: the initial members as a static roster.
    exp::Environment static_env;
    static_env.name = kind + " static";
    static_env.compute.assign(
        elastic_env.compute.begin(),
        elastic_env.compute.begin() +
            static_cast<std::ptrdiff_t>(elastic_env.initial_workers));
    exp::RunSpec static_spec =
        bench::make_run_spec(ctx.scale, "dlion", static_env.name, duration);
    static_spec.env_override = static_env;
    const exp::RunResult sres = exp::run_experiment(static_spec, workload);

    etable.row()
        .cell(kind)
        .cell(static_cast<double>(elastic_env.compute.size()), 0)
        .cell(std::to_string(elastic_env.initial_workers) + "->" +
              std::to_string(res.final_members))
        .cell(static_cast<double>(res.joins), 0)
        .cell(static_cast<double>(res.leaves), 0)
        .cell(static_cast<double>(res.roster_epoch), 0)
        .cell(res.join_latency_mean_s, 2)
        .cell(static_cast<double>(res.min_bootstrap_donors), 0)
        .cell(static_cast<double>(res.bootstrap_bytes) / 1e6, 2)
        .cell(res.final_accuracy, 3)
        .cell(sres.final_accuracy, 3)
        .cell(res.telemetry.watchdog_degraded ? "degraded" : "clean");

    json += "    {\n";
    json += "      \"name\": \"" + kind + "\",\n";
    json += "      \"capacity\": " +
            std::to_string(elastic_env.compute.size()) + ",\n";
    json += "      \"initial_members\": " +
            std::to_string(elastic_env.initial_workers) + ",\n";
    json += "      \"final_members\": " + std::to_string(res.final_members) +
            ",\n";
    json += "      \"joins\": " + std::to_string(res.joins) + ",\n";
    json += "      \"leaves\": " + std::to_string(res.leaves) + ",\n";
    json += "      \"roster_epoch\": " + std::to_string(res.roster_epoch) +
            ",\n";
    json += "      \"join_latency_mean_s\": " +
            jnum(res.join_latency_mean_s) + ",\n";
    json += "      \"join_latency_max_s\": " + jnum(res.join_latency_max_s) +
            ",\n";
    json += "      \"min_bootstrap_donors\": " +
            std::to_string(res.min_bootstrap_donors) + ",\n";
    json += "      \"bootstrap_bytes\": " +
            std::to_string(res.bootstrap_bytes) + ",\n";
    json += "      \"stale_epoch_rejected\": " +
            std::to_string(res.stale_epoch_rejected) + ",\n";
    json += "      \"total_iterations\": " +
            std::to_string(res.total_iterations) + ",\n";
    json += std::string("      \"watchdog_degraded\": ") +
            (res.telemetry.watchdog_degraded ? "true" : "false") + ",\n";
    json += "      \"watchdog_events\": " +
            std::to_string(res.telemetry.watchdog_events.size()) + ",\n";
    json += "      \"final_accuracy\": " + jnum(res.final_accuracy) + ",\n";
    json += "      \"best_accuracy\": " + jnum(res.best_accuracy) + ",\n";
    json += "      \"time_to_70_s\": " + jnum(res.time_to_70, 2) + ",\n";
    json += "      \"static_final_accuracy\": " + jnum(sres.final_accuracy) +
            ",\n";
    json += "      \"static_best_accuracy\": " + jnum(sres.best_accuracy) +
            ",\n";
    json += "      \"join_log\": [";
    for (std::size_t i = 0; i < res.join_log.size(); ++i) {
      const core::JoinRecord& rec = res.join_log[i];
      if (i > 0) json += ", ";
      json += "{\"worker\": " + std::to_string(rec.worker) +
              ", \"requested_s\": " + jnum(rec.requested, 2) +
              ", \"completed_s\": " + jnum(rec.completed, 2) +
              ", \"donors\": " + std::to_string(rec.donors) +
              ", \"bytes\": " + std::to_string(rec.bootstrap_bytes) + "}";
    }
    json += "],\n";
    json += "      \"accuracy_curve\": " + jcurve(res.mean_curve) + ",\n";
    json += "      \"static_accuracy_curve\": " + jcurve(sres.mean_curve) +
            "\n";
    json += "    }";
    if (k + 1 < kinds.size()) json += ",";
    json += "\n";
  }
  json += "  ]\n}\n";
  etable.print(std::cout);

  const std::string elastic_out =
      ctx.config.get_string("elastic-out", "");
  if (!elastic_out.empty()) {
    std::ofstream out(elastic_out);
    out << json;
    std::cout << "\n[json] wrote " << elastic_out << "\n";
  }

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
