#include "systems/prague.h"

#include <algorithm>
#include <stdexcept>

#include "core/gradient_select.h"

namespace dlion::systems {

PragueStrategy::PragueStrategy(std::size_t group_size, std::uint64_t seed)
    : group_size_(group_size), rng_(seed) {
  if (group_size == 0) {
    throw std::invalid_argument("PragueStrategy: group_size must be >= 1");
  }
}

void PragueStrategy::draw_group(std::size_t self, std::size_t n_workers) {
  // Draw this iteration's randomized peer group from the worker's own
  // stream (group choices are independent across workers, as in Prague's
  // decentralized group generator).
  group_.clear();
  std::vector<std::size_t> peers;
  for (std::size_t p = 0; p < n_workers; ++p) {
    if (p != self) peers.push_back(p);
  }
  const std::size_t k = std::min(group_size_, peers.size());
  for (std::size_t picked = 0; picked < k; ++picked) {
    const std::size_t j = picked + rng_.uniform_index(peers.size() - picked);
    std::swap(peers[picked], peers[j]);
    group_.push_back(peers[picked]);
  }
  std::sort(group_.begin(), group_.end());
}

comm::VarList PragueStrategy::generate(const nn::Model& model,
                                       const core::LinkContext& ctx) {
  if (group_iteration_ != ctx.iteration) {
    group_iteration_ = ctx.iteration;
    draw_group(ctx.self, ctx.n_workers);
  }
  if (!std::binary_search(group_.begin(), group_.end(), ctx.peer)) {
    return {};  // header-only update: progress signal only
  }
  // Whole gradients for the drawn group, staged once per iteration (lazily,
  // on the group's first peer); the remaining group members share views
  // over the same production write.
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
