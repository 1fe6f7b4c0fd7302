// Global batch size controller (§3.2).
//
// Automatically grows the global batch size in two phases, driven by the
// paper's two empirical findings (Fig. 5): growing GBS rapidly in the first
// epochs hurts final accuracy, while growth after the early phase is safe.
//
//   warm-up : GBS_{t+1} = GBS_t + C_warmup, stop above 1% of the dataset
//   speed-up: GBS_{t+1} = GBS_t * C_speedup, stop above 10% of the dataset
//
// The controller is deterministic in (tick index, config), so every worker
// runs its own copy and they all agree on the current GBS without any
// coordination - a requirement of the decentralized design.
#pragma once

#include <cstddef>

namespace dlion::core {

struct GbsConfig {
  std::size_t initial_gbs = 192;        ///< paper: 6 workers x LBS 32
  std::size_t dataset_size = 60000;
  std::size_t c_warmup = 64;            ///< arithmetic increment
  double c_speedup = 2.0;               ///< geometric factor
  /// Number of controller ticks spent in the warm-up phase. The worker
  /// ticks the controller once per *epoch* of training progress (Fig. 5's
  /// findings are epoch-indexed), so this is a number of epochs.
  std::size_t warmup_ticks = 4;
  /// Warm-up cap: fraction of the dataset (paper: 1%).
  double warmup_cap_frac = 0.01;
  /// Speed-up cap: fraction of the dataset (paper: 10%, after [40]).
  double speedup_cap_frac = 0.10;
  bool enabled = true;
};

class GbsController {
 public:
  explicit GbsController(GbsConfig config);

  /// Advance one controller tick; returns the (possibly unchanged) GBS.
  std::size_t tick();

  std::size_t gbs() const { return gbs_; }
  std::size_t ticks() const { return ticks_; }
  bool in_warmup() const { return ticks_ < config_.warmup_ticks; }
  bool saturated() const;
  const GbsConfig& config() const { return config_; }

 private:
  GbsConfig config_;
  std::size_t gbs_;
  std::size_t ticks_ = 0;
};

}  // namespace dlion::core
