// Ako (Watcharapichat et al., SoCC '16) emulated in the DLion framework
// (§5.1.4): partition the gradient space into p blocks sized from the
// available network capacity and computation speed, and send one block per
// iteration in round-robin order. Unsent blocks accumulate locally
// ("accumulated gradient history"), so every entry is eventually shipped.
// Ako trains asynchronously.
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dlion::systems {

class AkoStrategy : public core::PartialGradientStrategy {
 public:
  /// `partitions` = 0 derives p per link from the first LinkContext:
  /// p ~= full nominal gradient bytes / per-iteration link byte budget.
  explicit AkoStrategy(std::size_t partitions = 0);

  comm::VarList generate(const nn::Model& model,
                         const core::LinkContext& ctx) override;
  const char* name() const override { return "ako"; }

  /// Partition count currently used for `peer` (0 if not yet derived).
  std::size_t partitions_for(std::size_t peer) const;

 private:
  struct PeerState {
    std::size_t p = 0;
    std::uint64_t last_accumulated_iter = static_cast<std::uint64_t>(-1);
    std::vector<std::vector<float>> acc;  // per variable accumulated grads
  };
  PeerState& peer_state(const nn::Model& model, const core::LinkContext& ctx);

  std::size_t configured_p_;
  std::vector<PeerState> peers_;
};

}  // namespace dlion::systems
