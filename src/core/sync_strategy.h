// Training synchronization strategies (§4.2, the `synch_training` API).
//
// One parameterization covers the paper's three mechanisms:
//   synchronous        : staleness_bound = 0, backup_workers = 0
//   bounded synchronous: staleness_bound = s, backup_workers = b (Hop)
//   asynchronous       : async = true (Ako)
//
// A worker may start iteration t when, among its n-1 peers, at least
// (n-1 - backup_workers) have delivered a gradient update for iteration
// >= t - 1 - staleness_bound. Backup workers model Hop's technique of
// ignoring the b slowest workers; the staleness bound keeps any worker from
// running unboundedly ahead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dlion::core {

struct SyncPolicy {
  bool async = false;
  std::uint64_t staleness_bound = 0;
  std::size_t backup_workers = 0;

  static SyncPolicy synchronous() { return {false, 0, 0}; }
  static SyncPolicy asynchronous() { return {true, 0, 0}; }
  static SyncPolicy bounded(std::uint64_t staleness, std::size_t backup) {
    return {false, staleness, backup};
  }

  std::string to_string() const;
};

/// Decide whether the worker may start iteration `next_iter` given the
/// latest iteration number received from each peer (self entry ignored).
/// `peer_latest[j]` is the highest iteration j has delivered a gradient
/// update for, or -1 if none yet. Peers flagged in `excluded` (suspected
/// crashed by the heartbeat failure detector) are left out of the wait-set
/// entirely - they neither count toward the required quorum nor can
/// satisfy it. This is what keeps synchronous and bounded-staleness
/// training from deadlocking on a dead peer: with every peer excluded the
/// worker trains solo. An empty or all-false `excluded`
/// waits on every peer.
bool can_start_iteration(const SyncPolicy& policy, std::uint64_t next_iter,
                         std::span<const std::int64_t> peer_latest,
                         std::size_t self, const std::vector<bool>& excluded);

}  // namespace dlion::core
