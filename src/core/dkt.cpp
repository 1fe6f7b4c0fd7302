#include "core/dkt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlion::core {

DktModule::DktModule(DktConfig config, std::size_t self, std::size_t n_workers)
    : config_(config),
      self_(self),
      peer_loss_(n_workers, std::numeric_limits<double>::infinity()),
      peer_stamp_(n_workers, -1) {
  if (self >= n_workers) throw std::invalid_argument("DktModule: bad self id");
  if (config_.period_iters == 0) {
    throw std::invalid_argument("DktModule: zero period");
  }
  if (config_.lambda < 0.0 || config_.lambda > 1.0) {
    throw std::invalid_argument("DktModule: lambda must be in [0, 1]");
  }
}

void DktModule::record_loss(double loss) {
  window_.push_back(loss);
  while (window_.size() > config_.loss_window) window_.pop_front();
  peer_loss_[self_] = avg_loss();
}

double DktModule::avg_loss() const {
  if (window_.empty()) return std::numeric_limits<double>::infinity();
  double s = 0.0;
  for (double v : window_) s += v;
  return s / static_cast<double>(window_.size());
}

void DktModule::record_peer_loss(std::size_t peer, double loss,
                                 std::uint64_t local_iteration) {
  peer_loss_.at(peer) = loss;
  peer_stamp_.at(peer) = static_cast<std::int64_t>(local_iteration);
}

bool DktModule::usable(std::size_t i, std::optional<std::uint64_t> now_iter,
                       const std::vector<bool>& excluded) const {
  if (i < excluded.size() && excluded[i]) return false;
  if (i == self_) return true;  // own window is always fresh
  if (config_.peer_loss_expiry_iters == 0 || !now_iter) return true;
  if (peer_stamp_[i] < 0) return true;  // +inf loss never wins anyway
  const auto age = static_cast<std::int64_t>(*now_iter) - peer_stamp_[i];
  return age <= static_cast<std::int64_t>(config_.peer_loss_expiry_iters);
}

bool DktModule::is_boundary(std::uint64_t iter) const {
  if (config_.mode == DktMode::kNone || iter == 0) return false;
  if (config_.early_only_iters && iter > *config_.early_only_iters) {
    return false;
  }
  return iter % config_.period_iters == 0;
}

std::size_t DktModule::best_worker(std::optional<std::uint64_t> now_iter,
                                   const std::vector<bool>& excluded) const {
  std::size_t best = self_;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < peer_loss_.size(); ++i) {
    if (!usable(i, now_iter, excluded)) continue;
    if (peer_loss_[i] < best_loss) {
      best_loss = peer_loss_[i];
      best = i;
    }
  }
  return best;
}

std::size_t DktModule::worst_worker(std::optional<std::uint64_t> now_iter,
                                    const std::vector<bool>& excluded) const {
  // Workers that never reported (+inf) are not "worst" in a meaningful
  // sense; prefer the largest finite loss, falling back to index 0.
  std::size_t worst = 0;
  double worst_loss = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < peer_loss_.size(); ++i) {
    if (!usable(i, now_iter, excluded)) continue;
    const double l = peer_loss_[i];
    if (std::isfinite(l) && l > worst_loss) {
      worst_loss = l;
      worst = i;
    }
  }
  return worst;
}

bool DktModule::should_request(std::uint64_t iter) const {
  if (!is_boundary(iter)) return false;
  const std::size_t best = best_worker(iter);
  if (best == self_) return false;  // already have the best weights
  switch (config_.mode) {
    case DktMode::kNone:
      return false;
    case DktMode::kBest2All:
      return true;
    case DktMode::kBest2Worst:
      return worst_worker(iter) == self_;
  }
  return false;
}

void DktModule::merge(nn::Model& model,
                      const comm::WeightPayload& best) const {
  auto& vars = model.variables();
  if (best.parts.size() != vars.size()) {
    throw std::invalid_argument("DktModule::merge: variable count mismatch");
  }
  const float lambda = static_cast<float>(config_.lambda);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    float* w = vars[v]->value().data();
    const comm::Payload<float>& b = best.parts[v];
    if (b.size() != vars[v]->size()) {
      throw std::invalid_argument("DktModule::merge: size mismatch at " +
                                  vars[v]->name());
    }
    const float* wb = b.data();
    for (std::size_t i = 0; i < b.size(); ++i) {
      w[i] -= lambda * (w[i] - wb[i]);
    }
  }
}

}  // namespace dlion::core
