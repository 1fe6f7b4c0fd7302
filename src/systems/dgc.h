// Deep-Gradient-Compression-style strategy (extension).
//
// The paper's related work notes that gradient compression algorithms
// "can be placed in the data quality assurance module in DLion" - this
// plugin demonstrates exactly that: top-k selection by magnitude over an
// error-feedback residual (unsent gradient mass accumulates locally and is
// re-considered every iteration), the core of DGC (Lin et al., ICLR '18)
// and sparsified-SGD methods the paper cites as complementary [3, 43].
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dlion::systems {

class DgcStrategy : public core::PartialGradientStrategy {
 public:
  /// `density`: fraction of each variable's entries shipped per iteration.
  explicit DgcStrategy(double density = 0.01);

  comm::VarList generate(const nn::Model& model,
                         const core::LinkContext& ctx) override;
  const char* name() const override { return "dgc"; }

 private:
  struct PeerState {
    std::uint64_t last_accumulated_iter = static_cast<std::uint64_t>(-1);
    std::vector<std::vector<float>> residual;  // error-feedback accumulator
  };
  PeerState& peer_state(const nn::Model& model, std::size_t peer);

  double density_;
  std::vector<PeerState> peers_;
};

}  // namespace dlion::systems
