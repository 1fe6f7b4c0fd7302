// Figure 9: the direct knowledge transfer design space (§3.4):
//  (a) when-to-send : exchange period (too frequent wastes network, too
//      rare loses the benefit; frequent-early-only is competitive)
//  (b) whom-to-send : No_DKT vs Best2Worst vs Best2All
//  (c) how-to-merge : the lambda merge ratio
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dlion;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  bench::print_header("Figure 9: direct knowledge transfer study", ctx.scale);
  const exp::Workload workload = exp::make_workload("cpu", ctx.scale);
  const double target = bench::read_flags(
      argv[0], [&] { return ctx.config.get_double("target", 0.65); });

  // (a) when-to-send: DKT period sweep. The paper sweeps {10, 100, 1000}
  // iterations plus a frequent-early-only variant over windows ~20x longer;
  // bench scale divides by 4.
  const std::uint64_t base = ctx.scale.paper ? 100 : 25;
  {
    common::Table table({"DKT period (iters)", "time-to-target",
                         "final accuracy"});
    struct Variant {
      std::string label;
      std::uint64_t period;
      std::optional<std::uint64_t> early_only;
    };
    const std::vector<Variant> variants = {
        {"every " + std::to_string(base / 5), base / 5, std::nullopt},
        {"every " + std::to_string(base), base, std::nullopt},
        {"every " + std::to_string(base * 10), base * 10, std::nullopt},
        {"early only (first 40%)", base / 5, std::nullopt},  // filled below
    };
    for (std::size_t i = 0; i < variants.size(); ++i) {
      exp::RunSpec spec = bench::make_run_spec(ctx.scale, "dlion", "Homo B",
                                               ctx.scale.duration_s);
      spec.dkt_period_iters = variants[i].period;
      if (i == variants.size() - 1) {
        spec.extra_configure = [&](core::WorkerOptions& o) {
          // Frequent exchange during the early learning phase only.
          o.dkt.early_only_iters = 4 * base;
        };
      }
      const exp::RunResult res = exp::run_experiment(spec, workload);
      table.row()
          .cell(variants[i].label)
          .cell(bench::fmt_time_or_inf(exp::time_to_accuracy(res, target)))
          .cell(res.final_accuracy, 3);
    }
    std::cout << "(a) when-to-send (target accuracy " << target << ")\n";
    table.print(std::cout);
    std::cout << "Paper: a moderate period (100 iterations) converges "
                 "fastest; frequent-early-only is comparable.\n\n";
  }

  // (b) whom-to-send.
  {
    common::Table table({"variant", "final accuracy"});
    struct ModeVariant {
      std::string label;
      core::DktMode mode;
    };
    for (const ModeVariant& v :
         {ModeVariant{"No_DKT", core::DktMode::kNone},
          ModeVariant{"DKT_Best2worst", core::DktMode::kBest2Worst},
          ModeVariant{"DKT_Best2all", core::DktMode::kBest2All}}) {
      exp::RunSpec spec = bench::make_run_spec(ctx.scale, "dlion", "Homo B",
                                               ctx.scale.duration_s);
      spec.extra_configure = [mode = v.mode](core::WorkerOptions& o) {
        o.dkt.mode = mode;
      };
      const exp::RunResult res = exp::run_experiment(spec, workload);
      table.row().cell(v.label).cell(res.final_accuracy, 3);
    }
    std::cout << "(b) whom-to-send\n";
    table.print(std::cout);
    std::cout << "Paper: transferring the best knowledge to all workers "
                 "gives the best accuracy.\n\n";
  }

  // (c) how-to-merge: lambda sweep.
  {
    common::Table table({"lambda", "final accuracy", "accuracy stddev"});
    for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      exp::RunSpec spec = bench::make_run_spec(ctx.scale, "dlion", "Homo B",
                                               ctx.scale.duration_s);
      spec.extra_configure = [lambda](core::WorkerOptions& o) {
        o.dkt.lambda = lambda;
        if (lambda == 0.0) o.dkt.mode = core::DktMode::kNone;
      };
      const exp::RunResult res = exp::run_experiment(spec, workload);
      table.row()
          .cell(lambda, 2)
          .cell(res.final_accuracy, 3)
          .cell(res.accuracy_stddev, 4);
    }
    std::cout << "(c) how-to-merge\n";
    table.print(std::cout);
    std::cout << "Paper: lambda=0 equals No_DKT (lowest accuracy); lambda=1 "
                 "(replace) trains fastest early but is not best at the "
                 "end; intermediate values win overall.\n";
  }
  return 0;
}
