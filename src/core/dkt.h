// Direct knowledge transfer (§3.4).
//
// Workers periodically share the average of their last `l` loss values;
// whoever currently has the best (smallest) loss is asked for its weights,
// and receivers merge them into the local model with
//   w_local <- w_local - lambda * (w_local - w_best).
//
// The module tracks the loss window and the peer loss table, and answers the
// three design questions the paper explores empirically (Fig. 9):
// when-to-send (period), whom-to-send (Best2All / Best2Worst / None), and
// how-to-merge (lambda).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "comm/payload.h"
#include "nn/model.h"

namespace dlion::core {

enum class DktMode {
  kNone,        ///< direct knowledge transfer disabled
  kBest2All,    ///< every worker pulls from the best (paper's choice)
  kBest2Worst,  ///< only the worst worker pulls from the best
};

struct DktConfig {
  DktMode mode = DktMode::kBest2All;
  /// Exchange period in iterations (paper evaluation: 100).
  std::uint64_t period_iters = 100;
  /// Loss window length l.
  std::size_t loss_window = 10;
  /// Merge ratio lambda (paper evaluation: 0.75).
  double lambda = 0.75;
  /// If set, DKT only runs during the first `early_only_iters` iterations
  /// (the "frequent exchange early in learning" variant of Fig. 9a).
  std::optional<std::uint64_t> early_only_iters;
  /// Peer loss reports older than this many (receiver-local) iterations are
  /// ignored by best/worst selection, so a silent (crashed or partitioned)
  /// peer stops being "best" forever. 0 disables expiry (seed behaviour);
  /// the fault-tolerance layer enables it.
  std::uint64_t peer_loss_expiry_iters = 0;
};

class DktModule {
 public:
  DktModule(DktConfig config, std::size_t self, std::size_t n_workers);

  const DktConfig& config() const { return config_; }

  /// Record a local training loss sample.
  void record_loss(double loss);
  /// Average of the last l local losses (+inf until any loss recorded).
  double avg_loss() const;

  /// Record a peer's reported average loss. `local_iteration` is the
  /// *receiver's* current iteration, used as the freshness stamp for
  /// peer_loss_expiry_iters (receiver-local stamps give one coherent clock
  /// even when peers' own iteration counts diverge under heterogeneity).
  void record_peer_loss(std::size_t peer, double avg_loss,
                        std::uint64_t local_iteration);

  /// True when iteration `iter` is a DKT boundary for this worker.
  bool is_boundary(std::uint64_t iter) const;

  /// Worker with the smallest known average loss (self included). When
  /// `now_iter` is provided and expiry is configured, reports staler than
  /// peer_loss_expiry_iters are skipped; workers flagged in `excluded`
  /// (e.g. suspected dead, or a peer whose pull just timed out) are skipped
  /// too. Falls back to self if nobody qualifies.
  std::size_t best_worker(std::optional<std::uint64_t> now_iter = std::nullopt,
                          const std::vector<bool>& excluded = {}) const;
  /// Worker with the largest known average loss (self included).
  std::size_t worst_worker(
      std::optional<std::uint64_t> now_iter = std::nullopt,
      const std::vector<bool>& excluded = {}) const;

  /// Whether this worker should request the best weights at a boundary.
  bool should_request(std::uint64_t iter) const;

  /// Merge the best weights into `model`: w -= lambda * (w - w_best),
  /// reading them directly from a received snapshot's payload views - no
  /// intermediate weight copy.
  void merge(nn::Model& model, const comm::WeightPayload& best_weights) const;

 private:
  /// True when entry `i` may participate in best/worst selection at
  /// (optional) local iteration `now_iter`.
  bool usable(std::size_t i, std::optional<std::uint64_t> now_iter,
              const std::vector<bool>& excluded) const;

  DktConfig config_;
  std::size_t self_;
  std::deque<double> window_;
  std::vector<double> peer_loss_;        // +inf until first report
  std::vector<std::int64_t> peer_stamp_; // local iter of last report; -1 none
};

}  // namespace dlion::core
