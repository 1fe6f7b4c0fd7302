// Deterministic fault injection for the simulated micro-cloud.
//
// Micro-clouds are built from transient, unreliable resources; the paper's
// motivating scenarios (co-located jobs, flaky WAN links, preemptible VMs)
// include outright failures, not just capacity changes. A FaultSchedule is a
// declarative list of faults:
//   - worker crash/recover windows (the worker is down in [start, end)),
//   - directed-link blackouts (messages on i->j are dropped in the window;
//     a partition is a set of blackouts covering every cross-group link),
//   - per-link message-loss probability windows (lossy links).
// The FaultInjector evaluates the schedule against the simulation clock and
// draws loss decisions from a seeded RNG, so every failure behaviour is
// bit-for-bit reproducible from the schedule + seed. An empty schedule
// injects nothing and consumes no randomness.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace dlion::sim {

/// Worker `worker` is down (crashed) for t in [start, end).
struct CrashWindow {
  std::size_t worker = 0;
  common::SimTime start = 0.0;
  common::SimTime end = 0.0;
};

/// Directed link `from -> to` drops every message for t in [start, end).
struct LinkBlackout {
  std::size_t from = 0;
  std::size_t to = 0;
  common::SimTime start = 0.0;
  common::SimTime end = 0.0;
};

/// Directed link `from -> to` loses each message independently with
/// `probability` for t in [start, end).
struct LossRule {
  std::size_t from = 0;
  std::size_t to = 0;
  double probability = 0.0;
  common::SimTime start = 0.0;
  common::SimTime end = 0.0;
};

struct FaultSchedule {
  std::vector<CrashWindow> crashes;
  std::vector<LinkBlackout> blackouts;
  std::vector<LossRule> losses;
  /// Seed for the loss-draw stream (independent of the experiment seed so a
  /// schedule reproduces identically across workloads).
  std::uint64_t seed = 0x4fa017u;

  bool empty() const {
    return crashes.empty() && blackouts.empty() && losses.empty();
  }

  /// Builder helpers (all return *this for chaining).
  FaultSchedule& crash(std::size_t worker, common::SimTime start,
                       common::SimTime end);
  FaultSchedule& blackout(std::size_t from, std::size_t to,
                          common::SimTime start, common::SimTime end);
  /// Blackout both directions of every link between `group_a` and `group_b`.
  FaultSchedule& partition(const std::vector<std::size_t>& group_a,
                           const std::vector<std::size_t>& group_b,
                           common::SimTime start, common::SimTime end);
  FaultSchedule& lossy(std::size_t from, std::size_t to, double probability,
                       common::SimTime start, common::SimTime end);
};

/// Evaluates a FaultSchedule against the simulation clock. Pure queries
/// (worker_down / link_blacked_out / loss_probability) are stateless; the
/// drop decision `should_drop` consumes the seeded RNG stream only when a
/// loss rule is active, so schedules without loss rules stay RNG-free.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  const FaultSchedule& schedule() const { return schedule_; }

  /// True if `worker` is inside any of its crash windows at time `t`.
  bool worker_down(std::size_t worker, common::SimTime t) const;

  /// True if the directed link is inside a blackout window at time `t`.
  bool link_blacked_out(std::size_t from, std::size_t to,
                        common::SimTime t) const;

  /// Whether a message may traverse `from -> to` at time `t`: both
  /// endpoints up and no blackout in effect. (Loss is probabilistic and
  /// handled separately by should_drop.)
  bool link_usable(std::size_t from, std::size_t to, common::SimTime t) const;

  /// Message-loss probability in effect on the link at time `t` (the
  /// complement-product of all active loss rules; 0 if none).
  double loss_probability(std::size_t from, std::size_t to,
                          common::SimTime t) const;

  /// Deterministic per-message loss draw. Consumes one RNG value iff a loss
  /// rule is active on the link at `t`.
  bool should_drop(std::size_t from, std::size_t to, common::SimTime t);

  /// Messages dropped by loss draws so far (blackout/crash drops are
  /// counted by the network, which also sees the usability checks).
  std::uint64_t loss_drops() const { return loss_drops_; }

 private:
  FaultSchedule schedule_;
  common::Rng rng_;
  std::uint64_t loss_drops_ = 0;
};

}  // namespace dlion::sim
