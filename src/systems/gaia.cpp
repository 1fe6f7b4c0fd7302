#include "systems/gaia.h"

#include <cmath>
#include <span>

namespace dlion::systems {

namespace {
// Weights near zero would make the relative-change test fire on noise;
// Gaia's public description applies the significance test to the relative
// update |delta/w|, so we floor |w|.
constexpr float kWeightFloor = 1e-3f;
}  // namespace

GaiaStrategy::GaiaStrategy(double significance_percent)
    : significance_(significance_percent / 100.0) {}

GaiaStrategy::PeerState& GaiaStrategy::peer_state(const nn::Model& model,
                                                  std::size_t peer) {
  if (peers_.size() <= peer) peers_.resize(peer + 1);
  PeerState& st = peers_[peer];
  if (st.acc.empty()) {
    st.acc.resize(model.num_variables());
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      st.acc[v].assign(model.variables()[v]->size(), 0.0f);
    }
  }
  return st;
}

comm::VarList GaiaStrategy::generate(const nn::Model& model,
                                     const core::LinkContext& ctx) {
  PeerState& st = peer_state(model, ctx.peer);
  const auto& vars = model.variables();
  // Fold this iteration's gradients into the per-peer accumulator exactly
  // once (generate is called once per peer per iteration).
  if (st.last_accumulated_iter != ctx.iteration) {
    st.last_accumulated_iter = ctx.iteration;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const float* g = vars[v]->grad().data();
      float* acc = st.acc[v].data();
      for (std::size_t i = 0; i < st.acc[v].size(); ++i) acc[i] += g[i];
    }
  }
  // Significance filter: send entries whose accumulated *update* - what the
  // receiver will subtract from its weight, (eta/n) * acc - exceeds S% of
  // the weight's magnitude; reset what we send.
  const double update_scale =
      ctx.learning_rate / static_cast<double>(std::max<std::size_t>(
                              ctx.n_workers, 1));
  comm::PayloadWriter writer(payload_arena(ctx));
  comm::VarList out;
  out.reserve(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const float* w = vars[v]->value().data();
    float* acc = st.acc[v].data();
    comm::VariableGrad vg;
    vg.var_index = static_cast<std::uint32_t>(v);
    vg.dense_size = static_cast<std::uint32_t>(st.acc[v].size());
    scratch_idx_.clear();
    scratch_vals_.clear();
    for (std::size_t i = 0; i < st.acc[v].size(); ++i) {
      const float wm = std::max(std::fabs(w[i]), kWeightFloor);
      if (update_scale * std::fabs(acc[i]) >= significance_ * wm) {
        scratch_idx_.push_back(static_cast<std::uint32_t>(i));
        scratch_vals_.push_back(acc[i]);
        acc[i] = 0.0f;
      }
    }
    vg.indices = writer.copy(std::span<const std::uint32_t>(scratch_idx_));
    vg.values = writer.copy(std::span<const float>(scratch_vals_));
    out.push_back(std::move(vg));
  }
  return out;
}

}  // namespace dlion::systems
