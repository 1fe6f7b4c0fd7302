// A DLion worker: the event-driven embodiment of the paper's Fig. 10.
//
// The main training workflow computes gradients over the current LBS,
// generates per-link partial gradients, and periodically updates batch
// sizes. The modules the prototype runs as separate threads - model update,
// model synchronization (DKT), network resource monitor - become message
// handlers and periodic events on the simulation engine, preserving the
// paper's module boundaries while keeping runs deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "comm/fabric.h"
#include "common/stats.h"
#include "core/dkt.h"
#include "obs/obs.h"
#include "core/gbs_controller.h"
#include "core/lbs_controller.h"
#include "core/strategy.h"
#include "core/sync_strategy.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "sim/compute_model.h"
#include "sim/trace.h"

namespace dlion::core {

/// Fault-tolerance / graceful-degradation layer (DESIGN.md §4), switched by
/// WorkerOptions::fault_tolerance.
///
/// When enabled the worker broadcasts a heartbeat every kHeartbeatPeriodS,
/// suspects peers it has not heard from within kSuspicionTimeoutS, excludes
/// suspected peers from synchronization wait-sets and weighted-update
/// renormalization, takes an in-memory DLCK checkpoint every
/// kCheckpointPeriodS for crash recovery, and sends DKT weight pulls over
/// the reliable (ack + retry, kControlRetry) control channel with fallback
/// to the next-best peer on timeout.
///
/// Disabled (the default) the worker's event sequence is bit-identical to a
/// build without this layer: no heartbeats, no checkpoints, no retries, and
/// every liveness structure stays in its all-live state.
inline constexpr double kHeartbeatPeriodS = 2.0;
inline constexpr double kSuspicionTimeoutS = 6.0;
inline constexpr double kCheckpointPeriodS = 20.0;
inline constexpr comm::RetryPolicy kControlRetry{};

struct WorkerOptions {
  double learning_rate = 0.05;
  /// Weighted dynamic batching (§3.2): GBS + LBS controllers. When false,
  /// every worker uses `fixed_lbs` (the traditional even split).
  bool dynamic_batching = true;
  /// Weighted model update (Eq. 7 db weights, normalized to n*LBS_j/GBS;
  /// see weighted_update.h). When false, db = 1.
  bool weighted_update = true;
  std::size_t fixed_lbs = 32;
  GbsConfig gbs;
  LbsConfig lbs;
  DktConfig dkt;
  SyncPolicy sync = SyncPolicy::bounded(5, 0);
  /// Batch size update module tick period (profiling + GBS controller).
  double batch_update_period_s = 20.0;
  /// Evaluate model accuracy every this many iterations (paper: 20).
  std::uint64_t eval_period_iters = 20;
  /// Test samples used per evaluation (subset keeps wall time bounded).
  std::size_t eval_subset = 512;
  std::uint64_t max_iterations = UINT64_MAX;
  /// Optional externally-scripted GBS (used by the Fig. 5 study); when set
  /// it replaces the GBS controller. Called at every batch tick.
  std::function<std::size_t(std::uint64_t iteration, double now)> gbs_schedule;
  /// Fault-tolerance layer; disabled by default (see kHeartbeatPeriodS).
  bool fault_tolerance = false;
};

class Worker {
 public:
  Worker(std::size_t id, sim::Engine& engine, comm::Fabric& fabric,
         sim::ComputeResource compute, nn::BuiltModel built,
         data::Dataset shard, const data::Dataset* test_set,
         StrategyPtr strategy, WorkerOptions options, std::uint64_t seed);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Begin training; the worker stops starting iterations at `until`.
  void start(common::SimTime until);

  std::size_t id() const { return id_; }
  std::uint64_t iterations() const { return iteration_; }
  std::size_t current_lbs() const { return current_lbs_; }
  std::size_t current_gbs() const;
  /// The global batch size in effect: the controller's GBS under dynamic
  /// batching, n * fixed_lbs otherwise.
  std::size_t effective_gbs() const;

  const sim::Trace& accuracy_trace() const { return accuracy_trace_; }
  const sim::Trace& loss_trace() const { return loss_trace_; }
  const sim::Trace& lbs_trace() const { return lbs_trace_; }
  const sim::Trace& gbs_trace() const { return gbs_trace_; }
  /// Partial-gradient entries sent to each peer, one trace per peer id.
  const sim::Trace& entries_trace(std::size_t peer) const {
    return entries_traces_.at(peer);
  }
  /// Equivalent Max N values chosen per send (only meaningful for DLion).
  const sim::Trace& chosen_n_trace() const { return chosen_n_trace_; }

  nn::Model& model() { return built_.model; }
  PartialGradientStrategy& strategy() { return *strategy_; }
  const WorkerOptions& options() const { return options_; }

  /// Evaluate accuracy on the held-out subset right now (also recorded on
  /// the accuracy trace when called internally).
  double evaluate_accuracy();

  /// Attach an observer (non-owning; nullptr detaches). Call before
  /// start(). The worker records its training phases as spans on a
  /// "workers / worker i" track (compute, stall, dkt_pull), instants
  /// (send, eval, dkt_boundary, checkpoint, crash, recover), counter
  /// charts (lbs, gbs, staleness), and registry series (core.iterations,
  /// core.compute_seconds, core.stall_seconds, core.staleness_iters,
  /// core.grad_entries, core.grad_bytes, ...). Recording never changes the
  /// training schedule (DESIGN.md determinism contract).
  void set_obs(obs::Observability* o);

  // --- Fault-tolerance layer (DESIGN.md §4) ---

  /// Crash this worker now: detach from the fabric (messages to it dead-
  /// letter), cancel all scheduled activity, freeze training state.
  void crash();
  /// Recover from a crash: restore the last in-memory checkpoint, reattach
  /// to the fabric, re-announce RCP + liveness, pull fresh state from a live
  /// peer (catch-up), and resume training.
  void recover();
  bool crashed() const { return crashed_; }
  /// Workers not currently excluded, self included. Equals the fabric
  /// size whenever fault tolerance is disabled. O(1): the count is kept in
  /// step with every exclusion write.
  std::size_t live_worker_count() const;
  /// Per-worker exclusion mask: peers suspected crashed (self is always
  /// false).
  const std::vector<bool>& excluded_peers() const { return excluded_; }
  std::uint64_t crash_count() const { return crash_count_; }
  std::uint64_t recover_count() const { return recover_count_; }
  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  /// Cached observability handles (resolved once in set_obs). Histograms
  /// are label-free (shared across workers); counters carry {worker=i}.
  struct ObsHandles {
    obs::Counter* iterations = nullptr;
    obs::Counter* dkt_boundaries = nullptr;
    obs::Counter* dkt_pulls = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Histogram* compute_s = nullptr;
    obs::Histogram* stall_s = nullptr;
    obs::Histogram* staleness = nullptr;
    obs::Histogram* grad_entries = nullptr;
    obs::Histogram* grad_bytes = nullptr;
  };

  void on_message(std::size_t from, comm::MessagePtr msg);
  void try_start_iteration();
  void finish_iteration();
  void batch_tick();
  void profile_rcp(bool broadcast_if_changed);
  void recompute_lbs();
  void run_dkt_boundary();

  bool ft() const { return options_.fault_tolerance; }
  /// LBS comes from the LBS controller (dynamic batching or a scripted
  /// GBS), not from fixed_lbs.
  bool lbs_controlled() const {
    return options_.dynamic_batching || options_.gbs_schedule != nullptr;
  }
  /// Run member `Fn` after `delay` unless this incarnation ends first. The
  /// closure holds only `this` and the incarnation (16 bytes), which fits
  /// std::function's small buffer.
  template <void (Worker::*Fn)()>
  void after(double delay);
  /// Control-plane send: reliable (ack + retry) under fault tolerance, a
  /// plain send otherwise.
  void send_control(std::size_t to, comm::Message msg);
  /// Record `value` on `trace` and, when observing, as the same-named
  /// counter sample on this worker's track.
  void record_batch(sim::Trace& trace, std::size_t value);
  /// Profile compute power, announce it to peers, and re-derive LBS.
  void announce_rcp();
  void attach_to_fabric();
  /// Clear every suspicion.
  void reset_exclusions();
  /// Set peer `j`'s exclusion bit, keeping the live-worker count in step.
  void set_excluded(std::size_t j, bool excluded);
  /// Schedule the periodic modules (batch tick; plus heartbeat + checkpoint
  /// ticks when fault tolerance is enabled) under the current incarnation.
  void schedule_ticks();
  void heartbeat_tick();
  void checkpoint_tick();
  void take_checkpoint();
  /// Reliable weight pull with next-best fallback: request weights from the
  /// best non-excluded worker; on ack timeout exclude it and retry with the
  /// next best. `catch_up` pulls adopt iteration state too (post-recovery).
  void send_weight_pull(std::vector<bool> excluded, std::size_t attempts_left,
                        bool catch_up);
  void request_catch_up();

  /// Stage every variable's values into the data-plane arena as one
  /// payload part per variable (one production write; every message
  /// carrying the result shares the same blocks).
  comm::WeightPayload stage_weights();

  std::size_t id_;
  sim::Engine* engine_;
  comm::Fabric* fabric_;
  sim::ComputeResource compute_;
  nn::BuiltModel built_;
  data::Dataset shard_;
  const data::Dataset* test_set_;
  StrategyPtr strategy_;
  WorkerOptions options_;
  data::MinibatchSampler sampler_;
  data::Batch eval_batch_;
  /// Data-plane payload arena: everything this worker ships on the data
  /// lane (gradient selections, weight snapshots) is staged here; in-flight
  /// messages pin their blocks, recycled blocks are reused once delivery
  /// drops the last view (comm/payload.h).
  comm::PayloadArena arena_;

  GbsController gbs_ctrl_;
  DktModule dkt_;
  std::vector<double> rcp_table_;
  std::vector<std::int64_t> peer_latest_;

  std::uint64_t iteration_ = 0;
  /// Cluster-level epoch progress estimate: sum over own iterations of
  /// GBS/dataset_size (each iteration, the cluster as a whole consumes
  /// about one GBS worth of samples). Drives GBS controller ticks.
  double epoch_progress_ = 0.0;
  double epochs_ticked_ = 0.0;
  std::size_t current_lbs_;
  std::size_t scheduled_gbs_;  // from gbs_schedule override, if any
  bool running_ = false;
  /// The running iteration's local batch size and compute seconds, kept
  /// here so its finish event captures only {this, incarnation}.
  std::size_t running_lbs_ = 0;
  double running_seconds_ = 0.0;
  bool waiting_ = false;
  common::SimTime end_time_ = 0.0;
  common::Ewma iter_interval_;  // EWMA of full iteration cycle seconds
  common::SimTime last_finish_ = -1.0;

  // Fault-tolerance state. All of it stays in its initial "everything live"
  // configuration when ft() is false, so the training path reads it
  // without branching on the flag.
  bool crashed_ = false;
  bool catching_up_ = false;
  /// Bumped on crash(); scheduled lambdas capture the incarnation they were
  /// created under and become no-ops when it no longer matches.
  std::uint64_t incarnation_ = 0;
  std::vector<common::SimTime> last_heard_;  // per peer; self unused
  std::vector<std::uint8_t> checkpoint_buf_;  // DLCK bytes, crash restore
  std::uint64_t checkpoint_iteration_ = 0;
  bool checkpoint_valid_ = false;
  std::uint64_t crash_count_ = 0;
  std::uint64_t recover_count_ = 0;
  std::uint64_t checkpoints_taken_ = 0;
  /// Per-peer exclusion mask: peers suspected crashed (heartbeat sweep);
  /// self is always false. Maintained incrementally (never rebuilt on the
  /// iteration hot path); every write goes through set_excluded().
  std::vector<bool> excluded_;
  /// live_worker_count(): workers whose exclusion bit is clear.
  std::size_t live_workers_ = 0;

  sim::Trace accuracy_trace_;
  sim::Trace loss_trace_;
  sim::Trace lbs_trace_;
  sim::Trace gbs_trace_;
  sim::Trace chosen_n_trace_;
  std::vector<sim::Trace> entries_traces_;

  // Observability (all inert unless an observer is attached and enabled).
  obs::Observability* obs_ = nullptr;  // non-owning, optional
  obs::TrackId obs_track_ = 0;         // "workers / worker i"
  ObsHandles obs_h_;
  common::SimTime stall_start_ = -1.0;  // open sync-wait span, -1 = none
  common::SimTime pull_start_ = -1.0;   // open DKT weight-pull span
};

}  // namespace dlion::core
