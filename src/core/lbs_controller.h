// Local batch size controller (§3.2).
//
// Estimates each worker's relative compute power (RCP) - the maximum local
// batch size the worker can process in one unit time - by fitting a linear
// regression of measured iteration times against batch sizes, instead of
// collecting hardware specs. Workers share RCPs and each derives its LBS
// from Eq. 5:  LBS_i = GBS * RCP_i / sum_j RCP_j.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/stats.h"

namespace dlion::core {

struct LbsConfig {
  /// Unit time used to define RCP (seconds).
  double unit_time_s = 1.0;
  /// Batch sizes probed when profiling.
  std::vector<std::size_t> probe_sizes = {8, 16, 32, 64};
  /// Smallest LBS ever assigned to a worker.
  std::size_t min_lbs = 1;
};

/// Relative compute power from (batch size, iteration seconds) samples.
/// Fits time = a + b * lbs and returns the largest LBS processable within
/// `unit_time_s` (at least 1). Returns 1 if the fit is degenerate.
double estimate_rcp(std::span<const double> batch_sizes,
                    std::span<const double> iteration_seconds,
                    double unit_time_s);

/// Eq. 5 allocation with largest-remainder rounding: the returned vector
/// sums exactly to `gbs` and every entry is >= min_lbs (when gbs allows).
std::vector<std::size_t> allocate_lbs(std::size_t gbs,
                                      std::span<const double> rcps,
                                      std::size_t min_lbs = 1);

}  // namespace dlion::core
