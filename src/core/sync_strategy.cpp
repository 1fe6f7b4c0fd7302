#include "core/sync_strategy.h"

#include <algorithm>

namespace dlion::core {

std::string SyncPolicy::to_string() const {
  if (async) return "async";
  if (staleness_bound == 0 && backup_workers == 0) return "sync";
  return "bounded(s=" + std::to_string(staleness_bound) +
         ",b=" + std::to_string(backup_workers) + ")";
}

bool can_start_iteration(const SyncPolicy& policy, std::uint64_t next_iter,
                         std::span<const std::int64_t> peer_latest,
                         std::size_t self, const std::vector<bool>& excluded) {
  if (policy.async) return true;
  if (next_iter == 0) return true;  // first iteration never waits
  const auto required_iter =
      static_cast<std::int64_t>(next_iter) - 1 -
      static_cast<std::int64_t>(policy.staleness_bound);
  if (required_iter < 0) return true;
  std::size_t fresh_peers = 0;
  std::size_t n_peers = 0;
  for (std::size_t j = 0; j < peer_latest.size(); ++j) {
    if (j == self) continue;
    if (j < excluded.size() && excluded[j]) continue;  // not waited for
    ++n_peers;
    if (peer_latest[j] >= required_iter) ++fresh_peers;
  }
  const std::size_t required_peers =
      n_peers - std::min(policy.backup_workers, n_peers);
  return fresh_peers >= required_peers;
}

}  // namespace dlion::core
