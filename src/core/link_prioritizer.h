// Per-link prioritized gradient exchange (§3.3): DLion's own
// PartialGradientStrategy combining the data quality assurance module
// (Max N selection) with the transmission speed assurance module (per-link
// automatic choice of the largest N that fits the link).
//
// The per-iteration byte budget of link i->j is BW_net_j / Iter_com_i: the
// bytes the link can absorb during one of the sender's iterations. The
// strategy picks the largest N whose Max N selection fits that budget,
// implemented as a top-k selection with k derived from the budget (these
// coincide: the k-th largest magnitude is exactly the Max N threshold). A
// configurable floor `min_n` (paper: 0.85) guarantees a minimum data
// quality even on starved links.
//
// A link's selection depends only on the sender's gradient and the link's
// entry count k, so the per-gradient work happens once per iteration:
// begin_iteration() computes each variable's magnitudes, max and Max N
// floor, and generate() makes at most one top-k selection per distinct
// (variable, k). Every link asking for the same k gets refcounted views of
// that one payload.
#pragma once

#include "core/strategy.h"
#include "sim/trace.h"

namespace dlion::core {

struct LinkPrioritizerConfig {
  /// Lower bound on N (paper evaluation: 0.85).
  double min_n = 0.85;
  /// If false, transmission speed assurance is disabled and `fixed_n` is
  /// used on every link (used for the Max N-only experiments, Fig. 16).
  bool adaptive = true;
  double fixed_n = 10.0;
  /// Fraction of the link budget usable for gradient payload (headroom for
  /// headers/control traffic).
  double budget_fraction = 0.9;
};

class LinkPrioritizer : public PartialGradientStrategy {
 public:
  explicit LinkPrioritizer(LinkPrioritizerConfig config);

  /// Computes the per-variable state this iteration's links share and drops
  /// the previous iteration's selections. Required before generate().
  void begin_iteration(const nn::Model& model,
                       std::uint64_t iteration) override;
  comm::VarList generate(const nn::Model& model,
                         const LinkContext& ctx) override;
  const char* name() const override { return "dlion-perlink"; }

  /// Equivalent N chosen for the most recent generate() call (for traces).
  double last_n() const { return last_n_; }
  /// Entries selected in the most recent generate() call.
  std::size_t last_entries() const { return last_entries_; }

 private:
  /// One selection of a variable made this iteration, shared by every link
  /// that asks for `k` entries.
  struct Selection {
    std::size_t k = 0;
    double eq_n = 100.0;  ///< equivalent N of the selected set
    comm::VariableGrad vg;
  };
  /// A variable's per-iteration state, filled by begin_iteration().
  struct VarState {
    std::vector<float> mags;  ///< |g|; the buffer is reused across iterations
    float max_abs = 0.0f;
    std::size_t k_floor = 0;  ///< entries Max N at min_n selects
    std::vector<Selection> selections;  ///< one per distinct k
  };

  LinkPrioritizerConfig config_;
  double last_n_ = 100.0;
  std::size_t last_entries_ = 0;
  std::vector<VarState> vars_;
};

}  // namespace dlion::core
