// Dynamic resources: watch DLion's controllers react while compute capacity
// and network bandwidth fluctuate mid-training (the paper's §5.2.6
// scenario). Prints the LBS trace and per-link partial gradient sizes
// around each resource change.
//
// Usage: dynamic_resources [--duration=400] [--seed=42]
#include <iostream>

#include "common/config.h"
#include "common/table.h"
#include "exp/experiment.h"

int main(int argc, char** argv) {
  using namespace dlion;
  const common::Config cfg = common::Config::from_args(argc, argv);
  exp::Scale scale = exp::Scale::from_config(cfg);
  const double duration = cfg.get_double("duration", 400.0);
  const exp::Workload workload = exp::make_workload("cpu", scale);

  // Worker 0 loses half its cores at t = duration/2; everyone's bandwidth
  // drops from 100 to 25 Mbps in the middle half of the run.
  core::ClusterSpec spec;
  spec.model = workload.model;
  spec.seed = scale.seed;
  spec.compute.push_back(exp::cpu_cores(
      sim::Schedule{{0.0, 24.0}, {duration / 2, 12.0}}));
  for (int i = 0; i < 5; ++i) spec.compute.push_back(exp::cpu_cores(24.0));
  spec.network_setup = [&](sim::Network& net) {
    for (std::size_t w = 0; w < 6; ++w) {
      net.set_egress(w, sim::Schedule{{0.0, 100.0},
                                      {duration / 4, 25.0},
                                      {3 * duration / 4, 100.0}});
    }
  };
  spec.duration_s = duration;
  const systems::SystemSpec system = systems::make_system("dlion");
  spec.strategy_factory = system.strategy_factory;
  core::WorkerOptions options;
  options.learning_rate = workload.learning_rate;
  options.eval_period_iters = scale.eval_period_iters;
  system.configure(options);
  options.dkt.period_iters = scale.dkt_period_iters;
  options.batch_update_period_s = duration / 40.0;
  spec.worker_options = options;

  core::Cluster cluster(spec, workload.data.train, workload.data.test);
  cluster.run();

  std::cout << "DLion under dynamic resources (worker0 24->12 cores at t="
            << duration / 2 << "s; egress 100->25->100 Mbps):\n\n";
  common::Table table({"time(s)", "worker0 LBS", "worker1 LBS",
                       "grads/send w1->w2", "accuracy"});
  const sim::Trace accuracy = cluster.mean_accuracy_trace();
  for (double t = duration / 10; t <= duration; t += duration / 10) {
    table.row()
        .cell(t, 0)
        .cell(cluster.worker(0).lbs_trace().value_at(t), 0)
        .cell(cluster.worker(1).lbs_trace().value_at(t), 0)
        .cell(cluster.worker(1).entries_trace(2).value_at(t), 0)
        .cell(accuracy.value_at(t), 3);
  }
  table.print(std::cout);
  std::cout << "\nThe LBS controller shifts batch from worker0 to its peers "
               "after the capacity drop; the link prioritizer shrinks "
               "partial gradients while bandwidth is scarce and re-expands "
               "them afterwards.\n";

  // --- Scaling a run mid-flight (README walkthrough). --------------------
  // The roster itself now changes: 4 of 8 slots start live, workers 4 and 5
  // join mid-run (each bootstrapping its weights from two live peers), and
  // worker 2 leaves later. Every change bumps the roster epoch and
  // renormalizes GBS/LBS over the live set.
  core::ClusterSpec espec;
  espec.model = workload.model;
  espec.seed = scale.seed;
  for (int i = 0; i < 8; ++i) espec.compute.push_back(exp::cpu_cores(24.0));
  espec.duration_s = duration;
  espec.strategy_factory = system.strategy_factory;
  espec.worker_options = options;
  core::ElasticSpec elastic;
  elastic.initial_workers = 4;
  elastic.schedule.join(4, 0.25 * duration)
      .join(5, 0.35 * duration)
      .leave(2, 0.65 * duration);
  espec.elastic = std::move(elastic);

  core::Cluster ecluster(espec, workload.data.train, workload.data.test);
  ecluster.run();

  std::cout << "\nScaling the run mid-flight (8 slots, 4 live; worker4 "
            << "joins at t=" << 0.25 * duration << "s, worker5 at t="
            << 0.35 * duration << "s, worker2 leaves at t="
            << 0.65 * duration << "s):\n\n";
  common::Table etable({"time(s)", "worker0 LBS", "worker2 LBS",
                        "worker4 LBS", "accuracy"});
  const sim::Trace eaccuracy = ecluster.mean_accuracy_trace();
  for (double t = duration / 10; t <= duration; t += duration / 10) {
    etable.row()
        .cell(t, 0)
        .cell(ecluster.worker(0).lbs_trace().value_at(t), 0)
        .cell(ecluster.worker(2).lbs_trace().value_at(t), 0)
        .cell(ecluster.worker(4).lbs_trace().value_at(t), 0)
        .cell(eaccuracy.value_at(t), 3);
  }
  etable.print(std::cout);

  const core::ElasticStats stats = ecluster.membership()->stats();
  std::cout << "\nroster: " << stats.joins << " joins, " << stats.leaves
            << " leaves, final epoch " << stats.epoch << ", "
            << stats.final_members << " members at the end\n";
  for (const core::JoinRecord& rec : stats.join_log) {
    std::cout << "  worker" << rec.worker << " joined at t=" << rec.requested
              << "s, bootstrapped " << rec.bootstrap_bytes << " bytes from "
              << rec.donors << " peers";
    if (rec.completed >= 0.0) {
      std::cout << " in " << rec.completed - rec.requested << "s";
    }
    std::cout << "\n";
  }
  std::cout << "\nEach joiner announces the new roster epoch, pulls disjoint "
               "variable ranges from two live peers, and starts training at "
               "the adopted iteration; the leaver's batch share is folded "
               "back into the survivors, so the LBS columns renormalize at "
               "every membership change.\n";
  return 0;
}
