// Baseline system (§5.1.4): exchange whole gradients with all workers every
// iteration, synchronous training. The "generate_partial_gradients" plugin
// is one line of algorithm: everything, dense.
#pragma once

#include "core/strategy.h"

namespace dlion::systems {

class BaselineStrategy : public core::PartialGradientStrategy {
 public:
  comm::VarList generate(const nn::Model& model,
                         const core::LinkContext& ctx) override;
  const char* name() const override { return "baseline"; }

 private:
  /// Per-iteration staged gradient, shared by every peer's update.
  comm::VarList staged_;
  std::uint64_t staged_iteration_ = 0;
  bool staged_valid_ = false;
};

}  // namespace dlion::systems
