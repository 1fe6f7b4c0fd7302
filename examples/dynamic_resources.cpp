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
  return 0;
}
