#include "core/lbs_controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dlion::core {

double estimate_rcp(std::span<const double> batch_sizes,
                    std::span<const double> iteration_seconds,
                    double unit_time_s) {
  const common::LinearFit fit = common::linear_fit(batch_sizes,
                                                   iteration_seconds);
  if (fit.n == 0 || fit.slope <= 0.0) return 1.0;
  const double rcp = (unit_time_s - fit.intercept) / fit.slope;
  return std::max(1.0, rcp);
}

std::vector<std::size_t> allocate_lbs(std::size_t gbs,
                                      std::span<const double> rcps,
                                      std::size_t min_lbs) {
  if (rcps.empty()) throw std::invalid_argument("allocate_lbs: no workers");
  if (min_lbs == 0) min_lbs = 1;
  const std::size_t n = rcps.size();
  double total_rcp = 0.0;
  for (double r : rcps) {
    if (r <= 0.0) throw std::invalid_argument("allocate_lbs: RCP <= 0");
    total_rcp += r;
  }
  if (gbs < n * min_lbs) {
    // Degenerate: not enough batch to give everyone the minimum; give the
    // minimum to as many of the strongest workers as possible.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return rcps[a] > rcps[b]; });
    std::vector<std::size_t> out(n, 0);
    std::size_t remaining = gbs;
    for (std::size_t i : order) {
      const std::size_t take = std::min<std::size_t>(min_lbs, remaining);
      out[i] = take;
      remaining -= take;
      if (remaining == 0) break;
    }
    return out;
  }

  // Eq. 5 proportional shares with largest-remainder rounding (exact when
  // the shares divide evenly), then a floor-repair pass that tops weak
  // workers up to min_lbs by taking from the largest allocations.
  std::vector<std::size_t> out(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (frac, worker)
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(gbs) * rcps[i] / total_rcp;
    const auto whole = static_cast<std::size_t>(std::floor(exact));
    out[i] = whole;
    assigned += whole;
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  // Largest remainder method; deterministic tie-break on worker index.
  std::sort(remainders.begin(), remainders.end(), [](const auto& a,
                                                     const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::size_t leftover = gbs - assigned;
  for (std::size_t i = 0; i < remainders.size() && leftover > 0; ++i) {
    out[remainders[i].second] += 1;
    --leftover;
  }
  // Floor repair: guaranteed feasible because gbs >= n * min_lbs here.
  for (std::size_t i = 0; i < n; ++i) {
    while (out[i] < min_lbs) {
      const std::size_t donor = static_cast<std::size_t>(
          std::max_element(out.begin(), out.end()) - out.begin());
      if (out[donor] <= min_lbs) break;
      --out[donor];
      ++out[i];
    }
  }
  return out;
}

}  // namespace dlion::core
