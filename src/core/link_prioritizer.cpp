#include "core/link_prioritizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/gradient_select.h"

namespace dlion::core {

LinkPrioritizer::LinkPrioritizer(LinkPrioritizerConfig config)
    : config_(config) {}

void LinkPrioritizer::begin_iteration(const nn::Model& model,
                                      std::uint64_t iteration) {
  (void)iteration;
  const auto& vars = model.variables();
  vars_.resize(vars.size());
  for (std::size_t v = 0; v < vars.size(); ++v) {
    VarState& st = vars_[v];
    st.selections.clear();
    if (!config_.adaptive) continue;
    // One magnitude pass feeds the quality floor, every link's top-k
    // selection, and the equivalent-N report.
    st.max_abs = magnitudes(vars[v]->grad().span(), st.mags);
    // Quality floor: never select less than Max N at min_n would.
    st.k_floor = count_max_n_mags(st.mags, st.max_abs, config_.min_n);
  }
}

comm::VarList LinkPrioritizer::generate(const nn::Model& model,
                                        const LinkContext& ctx) {
  const auto& vars = model.variables();
  DLION_ASSERT(vars.size() == vars_.size(),
               "generate() needs begin_iteration() on the same model");
  // Selections this link is the first to need are written through its
  // arena; later links with the same k share the views.
  comm::PayloadWriter writer(payload_arena(ctx));
  comm::VarList out;
  out.reserve(vars.size());

  if (!config_.adaptive) {
    // Data quality assurance only: fixed Max N on every link.
    last_entries_ = 0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      auto& selections = vars_[v].selections;
      if (selections.empty()) {
        selections.push_back(
            {0, config_.fixed_n,
             select_max_n(vars[v]->grad().span(),
                          static_cast<std::uint32_t>(v), config_.fixed_n,
                          writer)});
      }
      last_entries_ += selections.front().vg.num_entries();
      out.push_back(selections.front().vg);
    }
    last_n_ = config_.fixed_n;
    return out;
  }

  // Transmission speed assurance: per-iteration byte budget of this link is
  // BW_net_j / Iter_com_i (§3.3).
  const double budget_bytes = config_.budget_fraction *
                              (ctx.available_mbps * 1e6 / 8.0) /
                              std::max(ctx.iterations_per_sec, 1e-9);
  // A sparse entry costs (index + value) = 8 bytes, scaled to nominal size.
  const double entry_bytes = 8.0 * std::max(ctx.byte_scale, 1e-12);
  const double entries_budget = std::max(0.0, budget_bytes / entry_bytes);

  const std::size_t total_params = model.num_params();
  double weighted_n = 0.0;
  std::size_t total_entries = 0;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const auto grad = vars[v]->grad().span();
    VarState& st = vars_[v];
    DLION_DCHECK(st.mags.size() == grad.size(),
                 "variable resized since begin_iteration()");
    // The budget is split across weight variables proportionally to size;
    // Max N is applied per variable (§3.3).
    const double share = total_params == 0
                             ? 0.0
                             : entries_budget * static_cast<double>(grad.size()) /
                                   static_cast<double>(total_params);
    const auto k_budget = static_cast<std::size_t>(std::floor(share));
    const std::size_t k = std::max<std::size_t>(
        std::max(k_budget, st.k_floor), grad.empty() ? 0 : 1);
    const Selection* sel = nullptr;
    for (const Selection& s : st.selections) {
      if (s.k == k) sel = &s;
    }
    if (sel == nullptr) {
      float kth_mag = 0.0f;
      Selection fresh{k, 100.0,
                      select_top_k_mags(grad, st.mags,
                                        static_cast<std::uint32_t>(v), k,
                                        writer, &kth_mag)};
      // equivalent_n(grad, k) without the second partial sort: the
      // selection already exposes its effective threshold. k is 0 only for
      // an empty gradient.
      if (k < grad.size() && st.max_abs != 0.0f) {
        fresh.eq_n = equivalent_n_from_threshold(st.max_abs, kth_mag);
      }
      st.selections.push_back(std::move(fresh));
      sel = &st.selections.back();
    }
    weighted_n += sel->eq_n * static_cast<double>(grad.size());
    total_entries += sel->vg.num_entries();
    out.push_back(sel->vg);
  }
  last_n_ = total_params == 0 ? 100.0
                              : weighted_n / static_cast<double>(total_params);
  last_entries_ = total_entries;
  return out;
}

}  // namespace dlion::core
