#include "systems/ako.h"

#include <algorithm>
#include <cmath>

namespace dlion::systems {

namespace {
constexpr std::size_t kMaxPartitions = 64;
}

AkoStrategy::AkoStrategy(std::size_t partitions)
    : configured_p_(partitions) {}

std::size_t AkoStrategy::partitions_for(std::size_t peer) const {
  if (peer >= peers_.size()) return 0;
  return peers_[peer].p;
}

AkoStrategy::PeerState& AkoStrategy::peer_state(const nn::Model& model,
                                                const core::LinkContext& ctx) {
  if (peers_.size() <= ctx.peer) peers_.resize(ctx.peer + 1);
  PeerState& st = peers_[ctx.peer];
  if (st.acc.empty()) {
    st.acc.resize(model.num_variables());
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      st.acc[v].assign(model.variables()[v]->size(), 0.0f);
    }
    if (configured_p_ > 0) {
      st.p = configured_p_;
    } else {
      // Ako's partition count balances network capacity against gradient
      // production rate: p ~= bytes produced per iteration / bytes the link
      // absorbs per iteration.
      const double full_bytes = static_cast<double>(model.num_params()) *
                                sizeof(float) * ctx.byte_scale;
      const double budget_bytes = (ctx.available_mbps * 1e6 / 8.0) /
                                  std::max(ctx.iterations_per_sec, 1e-9);
      const double p = budget_bytes <= 0.0
                           ? static_cast<double>(kMaxPartitions)
                           : full_bytes / budget_bytes;
      st.p = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::ceil(p)), 1, kMaxPartitions);
    }
  }
  return st;
}

comm::VarList AkoStrategy::generate(const nn::Model& model,
                                    const core::LinkContext& ctx) {
  PeerState& st = peer_state(model, ctx);
  const auto& vars = model.variables();
  if (st.last_accumulated_iter != ctx.iteration) {
    st.last_accumulated_iter = ctx.iteration;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const float* g = vars[v]->grad().data();
      float* acc = st.acc[v].data();
      for (std::size_t i = 0; i < st.acc[v].size(); ++i) acc[i] += g[i];
    }
  }
  // Round-robin block: each variable contributes its (iteration mod p)-th
  // contiguous slice; accumulated history for the slice is staged straight
  // into payload blocks (the send-and-reset is the production write - the
  // accumulator is zeroed behind it, so the payload cannot alias live
  // state) and reset.
  const std::size_t block = ctx.iteration % st.p;
  comm::PayloadWriter writer(payload_arena(ctx));
  comm::VarList out;
  out.reserve(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const std::size_t size = st.acc[v].size();
    const std::size_t chunk = (size + st.p - 1) / st.p;
    const std::size_t begin = std::min(block * chunk, size);
    const std::size_t end = std::min(begin + chunk, size);
    const std::size_t n = end - begin;
    comm::VariableGrad vg;
    vg.var_index = static_cast<std::uint32_t>(v);
    vg.dense_size = static_cast<std::uint32_t>(size);
    if (n > 0) {
      std::uint32_t* idx = writer.stage<std::uint32_t>(n);
      for (std::size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<std::uint32_t>(begin + i);
      }
      vg.indices = writer.commit(idx, n);
      float* acc = st.acc[v].data();
      float* vals = writer.stage<float>(n);
      for (std::size_t i = 0; i < n; ++i) {
        vals[i] = acc[begin + i];
        acc[begin + i] = 0.0f;
      }
      vg.values = writer.commit(vals, n);
    }
    out.push_back(std::move(vg));
  }
  return out;
}

}  // namespace dlion::systems
