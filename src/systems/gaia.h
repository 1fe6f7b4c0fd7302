// Gaia (Hsieh et al., NSDI '17) emulated in the DLion framework (§5.1.4):
// exchange only the gradient entries whose *accumulated* update would change
// the corresponding model weight by more than S% ("significance filter").
// Entries below the threshold accumulate locally per peer and are sent once
// their accumulated magnitude becomes significant, so no update is ever
// dropped - only delayed.
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dlion::systems {

class GaiaStrategy : public core::PartialGradientStrategy {
 public:
  /// `significance_percent`: the S threshold (paper evaluation: S = 1%).
  explicit GaiaStrategy(double significance_percent = 1.0);

  comm::VarList generate(const nn::Model& model,
                         const core::LinkContext& ctx) override;
  const char* name() const override { return "gaia"; }

 private:
  struct PeerState {
    std::uint64_t last_accumulated_iter = static_cast<std::uint64_t>(-1);
    std::vector<std::vector<float>> acc;  // per variable accumulated grads
  };
  PeerState& peer_state(const nn::Model& model, std::size_t peer);

  double significance_;
  std::vector<PeerState> peers_;
  /// Selection staging, reused across calls (capacity-warm after the first
  /// iteration); the payloads are packed from here in one production write.
  std::vector<std::uint32_t> scratch_idx_;
  std::vector<float> scratch_vals_;
};

}  // namespace dlion::systems
