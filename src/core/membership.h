// Membership controller: drives deterministic join/leave over a cluster of
// worker slots (DESIGN.md, "Elastic membership").
//
// The controller owns the authoritative roster epoch. Every membership
// change — one event of the MembershipSchedule script — bumps the epoch
// exactly once, flips one slot's member bit, and hands the new
// (epoch, bitmap) to the affected worker, which announces it to the
// cluster. Because changes are simulation events with fixed times and the
// epoch is a plain counter, the entire churn history replays bit-
// identically at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/worker.h"
#include "sim/fault_injector.h"

namespace dlion::core {

/// One completed (or in-flight) join, for BENCH_elastic.json.
struct JoinRecord {
  std::size_t worker = 0;
  common::SimTime requested = 0.0;
  common::SimTime completed = -1.0;  ///< bootstrap done; -1 = still pending
  std::size_t donors = 0;            ///< distinct bootstrap donors (>= 2 goal)
  std::uint64_t bootstrap_bytes = 0;
};

struct ElasticStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t epoch = 0;
  std::size_t final_members = 0;
  std::vector<JoinRecord> join_log;
};

class MembershipController {
 public:
  /// `workers` are non-owning; the cluster keeps them alive. `initial`
  /// must match the workers' construction-time roster.
  MembershipController(sim::Engine& engine, comm::Fabric& fabric,
                       std::vector<Worker*> workers,
                       sim::MembershipSchedule schedule,
                       std::vector<bool> initial, common::SimTime duration);

  /// Schedule the scripted events. Call once, before the engine runs.
  void start();

  std::uint64_t epoch() const { return epoch_; }
  const std::vector<bool>& members() const { return members_; }
  std::size_t member_count() const;

  /// Activate slot `w` now (join). No-op when already a member.
  void activate(std::size_t w);
  /// Deactivate slot `w` now (leave). Refuses to drop the last member.
  void deactivate(std::size_t w);

  /// Stats snapshot (join completion data pulled from the workers).
  ElasticStats stats() const;

 private:
  sim::Engine* engine_;
  comm::Fabric* fabric_;
  std::vector<Worker*> workers_;
  sim::MembershipSchedule schedule_;
  std::vector<bool> members_;
  std::uint64_t epoch_ = 0;
  common::SimTime duration_;
  ElasticStats stats_;
};

}  // namespace dlion::core
