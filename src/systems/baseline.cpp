#include "systems/baseline.h"

#include "core/gradient_select.h"

namespace dlion::systems {

comm::VarList BaselineStrategy::generate(const nn::Model& model,
                                         const core::LinkContext& ctx) {
  // generate_partial_gradients == whole gradients (Table 1: 1 line). The
  // dense gradient is staged into payload blocks once per iteration (lazily,
  // on the first peer); every other peer's update shares views over that
  // single production write - copying a VariableGrad only increfs blocks.
  if (!staged_valid_ || staged_iteration_ != ctx.iteration) {
    comm::PayloadWriter writer(payload_arena(ctx));
    staged_.clear();
    const auto& vars = model.variables();
    staged_.reserve(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      staged_.push_back(core::dense_grad(vars[v]->grad().span(),
                                         static_cast<std::uint32_t>(v),
                                         writer));
    }
    staged_iteration_ = ctx.iteration;
    staged_valid_ = true;
  }
  return staged_;
}

}  // namespace dlion::systems
