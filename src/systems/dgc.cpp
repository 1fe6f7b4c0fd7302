#include "systems/dgc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/gradient_select.h"

namespace dlion::systems {

DgcStrategy::DgcStrategy(double density) : density_(density) {
  if (density <= 0.0 || density > 1.0) {
    throw std::invalid_argument("DgcStrategy: density must be in (0, 1]");
  }
}

DgcStrategy::PeerState& DgcStrategy::peer_state(const nn::Model& model,
                                                std::size_t peer) {
  if (peers_.size() <= peer) peers_.resize(peer + 1);
  PeerState& st = peers_[peer];
  if (st.residual.empty()) {
    st.residual.resize(model.num_variables());
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      st.residual[v].assign(model.variables()[v]->size(), 0.0f);
    }
  }
  return st;
}

comm::VarList DgcStrategy::generate(const nn::Model& model,
                                    const core::LinkContext& ctx) {
  PeerState& st = peer_state(model, ctx.peer);
  const auto& vars = model.variables();
  if (st.last_accumulated_iter != ctx.iteration) {
    st.last_accumulated_iter = ctx.iteration;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const float* g = vars[v]->grad().data();
      float* r = st.residual[v].data();
      for (std::size_t i = 0; i < st.residual[v].size(); ++i) r[i] += g[i];
    }
  }
  // Error feedback: select the top density-fraction of the *residual* per
  // variable, send it, and clear only what was sent. Selection packs its
  // result straight into payload blocks; clearing the sent residual entries
  // behind it means the payload never aliases live accumulator state.
  comm::PayloadWriter writer(payload_arena(ctx));
  comm::VarList out;
  out.reserve(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    auto& residual = st.residual[v];
    const auto k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(density_ * static_cast<double>(residual.size()))));
    comm::VariableGrad vg = core::select_top_k(
        residual, static_cast<std::uint32_t>(v), k, writer);
    if (vg.is_dense()) {
      std::fill(residual.begin(), residual.end(), 0.0f);
    } else {
      for (std::uint32_t idx : vg.indices) residual[idx] = 0.0f;
    }
    out.push_back(std::move(vg));
  }
  return out;
}

}  // namespace dlion::systems
