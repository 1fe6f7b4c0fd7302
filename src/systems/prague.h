// Prague-style partial all-reduce (extension).
//
// Prague (Luo et al., ASPLOS '20) is the fourth related decentralized
// system the paper discusses: instead of exchanging gradients with all
// peers, each iteration a worker synchronizes with a small randomized
// group, reducing both traffic and straggler exposure. Emulated in the
// DLion framework as a strategy that sends dense gradients to a per-
// iteration random group and header-only updates to everyone else,
// combined with asynchronous training.
#pragma once

#include "common/rng.h"
#include "core/strategy.h"

namespace dlion::systems {

class PragueStrategy : public core::PartialGradientStrategy {
 public:
  /// `group_size`: number of peers receiving dense gradients per iteration
  /// (clamped to n-1 once the cluster size is known).
  PragueStrategy(std::size_t group_size, std::uint64_t seed);

  comm::VarList generate(const nn::Model& model,
                         const core::LinkContext& ctx) override;
  const char* name() const override { return "prague"; }

  /// Peers in the most recent iteration's group (for tests).
  const std::vector<std::size_t>& current_group() const { return group_; }

 private:
  void draw_group(std::size_t self, std::size_t n_workers);

  std::size_t group_size_;
  common::Rng rng_;
  std::uint64_t group_iteration_ = static_cast<std::uint64_t>(-1);
  std::vector<std::size_t> group_;
  /// Per-iteration staged gradient, shared by every group peer's update.
  comm::VarList staged_;
  std::uint64_t staged_iteration_ = 0;
  bool staged_valid_ = false;
};

}  // namespace dlion::systems
