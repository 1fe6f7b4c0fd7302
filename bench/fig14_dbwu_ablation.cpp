// Figure 14: training time to 70% accuracy for the dynamic batching (DB) and
// weighted model update (WU) ablation: DLion-no-DBWU vs DLion-no-WU vs full
// DLion on Homo A, Hetero CPU A, Hetero CPU B.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dlion;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_header(
      "Figure 14: effect of dynamic batching and weighted model update",
      ctx.scale);
  const exp::Workload workload = exp::make_workload("cpu", ctx.scale);

  // Lower threshold at bench scale keeps the metric reachable in every cell.
  const double target = bench::read_flags(
      argv[0], [&] { return ctx.config.get_double("target", 0.65); });

  common::Table table({"environment", "variant", "time-to-target",
                       "accuracy"});
  for (const std::string env :
       {"Homo A", "Hetero CPU A", "Hetero CPU B"}) {
    for (const std::string variant :
         {"dlion-no-dbwu", "dlion-no-wu", "dlion"}) {
      const exp::RunResult res = exp::run_experiment(
          bench::make_run_spec(ctx.scale, variant, env,
                               ctx.scale.duration_s),
          workload);
      table.row()
          .cell(env)
          .cell(variant)
          .cell(bench::fmt_time_or_inf(exp::time_to_accuracy(res, target)))
          .cell(res.final_accuracy, 3);
    }
  }
  table.print(std::cout);
  std::cout << "\n(target accuracy = " << target
            << ")\nPaper: dynamic batching gives 37%/22%/25% speedup in "
               "Homo A / Hetero CPU A / Hetero CPU B; weighted update adds "
               "12%/13% in the heterogeneous cases and is neutral in "
               "Homo A (Eq. 7 reduces to Eq. 4).\n";
  return 0;
}
