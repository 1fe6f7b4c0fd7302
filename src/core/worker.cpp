#include "core/worker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/link_prioritizer.h"
#include "core/weighted_update.h"
#include "nn/checkpoint.h"
#include "obs/track_names.h"
#include "obs/watchdog.h"

namespace dlion::core {

namespace {
constexpr double kRcpChangeThreshold = 0.05;  // re-broadcast if >5% change
/// RCP substituted for excluded peers when renormalizing LBS allocation:
/// allocate_lbs rejects non-positive compute powers, so "dead" is modeled as
/// vanishingly small instead of zero.
constexpr double kDeadRcp = 1e-12;

/// When fault tolerance is enabled but the caller left DKT peer-loss expiry
/// at its disabled default, age reports out after a few DKT periods so a
/// silent (crashed or partitioned) peer cannot stay "best" forever.
DktConfig with_ft_expiry(DktConfig cfg, bool fault_tolerance) {
  if (fault_tolerance && cfg.peer_loss_expiry_iters == 0) {
    cfg.peer_loss_expiry_iters = 3 * cfg.period_iters;
  }
  return cfg;
}
}  // namespace

Worker::Worker(std::size_t id, sim::Engine& engine, comm::Fabric& fabric,
               sim::ComputeResource compute, nn::BuiltModel built,
               data::Dataset shard, const data::Dataset* test_set,
               StrategyPtr strategy, WorkerOptions options, std::uint64_t seed)
    : id_(id),
      engine_(&engine),
      fabric_(&fabric),
      compute_(std::move(compute)),
      built_(std::move(built)),
      shard_(std::move(shard)),
      test_set_(test_set),
      strategy_(std::move(strategy)),
      options_(std::move(options)),
      sampler_(shard_, seed),
      gbs_ctrl_(options_.gbs),
      dkt_(with_ft_expiry(options_.dkt, options_.fault_tolerance), id,
           fabric.size()),
      rcp_table_(fabric.size(), 1.0),
      peer_latest_(fabric.size(), -1),
      current_lbs_(options_.fixed_lbs),
      scheduled_gbs_(options_.gbs.initial_gbs),
      iter_interval_(0.3),
      last_heard_(fabric.size(), 0.0),
      excluded_(fabric.size(), false),
      live_workers_(fabric.size()),
      accuracy_trace_("accuracy"),
      loss_trace_("loss"),
      lbs_trace_("lbs"),
      gbs_trace_("gbs"),
      chosen_n_trace_("chosen_n"),
      entries_traces_(fabric.size()) {
  // Fixed evaluation subset: deterministic, shared across the run.
  if (test_set_ != nullptr && test_set_->size() > 0) {
    const std::size_t n = std::min(options_.eval_subset, test_set_->size());
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    eval_batch_ = data::gather(*test_set_, idx);
  }
  attach_to_fabric();
}

template <void (Worker::*Fn)()>
void Worker::after(double delay) {
  const auto call = [this, inc = incarnation_] {
    if (inc == incarnation_) (this->*Fn)();
  };
  static_assert(sim::is_inline_callback_v<decltype(call)>);
  engine_->after(delay, call);
}

void Worker::send_control(std::size_t to, comm::Message msg) {
  if (ft()) {
    fabric_->send_reliable(id_, to, std::move(msg), kControlRetry);
  } else {
    fabric_->send(id_, to, std::move(msg));
  }
}

void Worker::record_batch(sim::Trace& trace, std::size_t value) {
  trace.record(engine_->now(), static_cast<double>(value));
  if (obs::on(obs_)) {
    obs_->tracer().counter(obs_track_, trace.name(), engine_->now(),
                           static_cast<double>(value));
  }
}

void Worker::attach_to_fabric() {
  fabric_->attach(id_, [this](std::size_t from, comm::MessagePtr msg) {
    on_message(from, std::move(msg));
  });
}

void Worker::reset_exclusions() {
  for (std::size_t j = 0; j < excluded_.size(); ++j) set_excluded(j, false);
}

void Worker::set_excluded(std::size_t j, bool excluded) {
  if (excluded_[j] == excluded) return;
  excluded_[j] = excluded;
  if (excluded) {
    --live_workers_;
  } else {
    ++live_workers_;
  }
}

void Worker::set_obs(obs::Observability* o) {
  obs_ = o;
  obs_track_ = 0;
  obs_h_ = ObsHandles{};
  if (o == nullptr) return;
  obs_track_ = o->tracer().track("workers", obs::worker_track(id_));
  obs::MetricsRegistry& m = o->metrics();
  const obs::Labels labels{{"worker", obs::id_str(id_)}};
  obs_h_.iterations = &m.counter("core.iterations", labels);
  obs_h_.dkt_boundaries = &m.counter("core.dkt_boundaries", labels);
  obs_h_.dkt_pulls = &m.counter("core.dkt_pulls", labels);
  obs_h_.crashes = &m.counter("core.crashes", labels);
  obs_h_.recoveries = &m.counter("core.recoveries", labels);
  obs_h_.compute_s = &m.histogram("core.compute_seconds", {},
                                  obs::Histogram::default_time_bounds());
  obs_h_.stall_s = &m.histogram("core.stall_seconds", {},
                                obs::Histogram::default_time_bounds());
  obs_h_.staleness = &m.histogram(
      "core.staleness_iters", {},
      {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 7.5, 10.5, 15.5, 20.5, 50.5, 100.5});
  obs_h_.grad_entries = &m.histogram("core.grad_entries", {},
                                     obs::Histogram::default_size_bounds());
  obs_h_.grad_bytes = &m.histogram("core.grad_bytes", {},
                                   obs::Histogram::default_size_bounds());
}

std::size_t Worker::current_gbs() const {
  if (options_.gbs_schedule) return scheduled_gbs_;
  return gbs_ctrl_.gbs();
}

std::size_t Worker::live_worker_count() const {
  DLION_DCHECK(live_workers_ == static_cast<std::size_t>(std::count(
                                   excluded_.begin(), excluded_.end(), false)),
               "cached live-worker count out of sync with the exclusion mask");
  return live_workers_;
}

std::size_t Worker::effective_gbs() const {
  if (lbs_controlled()) return std::max<std::size_t>(1, current_gbs());
  return std::max<std::size_t>(1, options_.fixed_lbs * live_worker_count());
}

void Worker::start(common::SimTime until) {
  end_time_ = until;
  std::fill(last_heard_.begin(), last_heard_.end(), engine_->now());
  if (lbs_controlled()) {
    announce_rcp();
  } else {
    current_lbs_ = options_.fixed_lbs;
    record_batch(lbs_trace_, current_lbs_);
  }
  record_batch(gbs_trace_, current_gbs());
  // Batch size update module: periodic profiling + GBS controller ticks
  // (plus the fault-tolerance heartbeat/checkpoint modules when enabled).
  schedule_ticks();
  try_start_iteration();
}

void Worker::schedule_ticks() {
  after<&Worker::batch_tick>(options_.batch_update_period_s);
  if (ft()) {
    after<&Worker::heartbeat_tick>(kHeartbeatPeriodS);
    after<&Worker::checkpoint_tick>(kCheckpointPeriodS);
  }
}

void Worker::batch_tick() {
  // Periodic LBS-controller work only: re-profile the (possibly changed)
  // compute capacity and re-derive LBS. GBS controller ticks are driven by
  // epoch progress in finish_iteration(), not by wall time.
  if (engine_->now() >= end_time_) return;
  if (options_.gbs_schedule) {
    scheduled_gbs_ = options_.gbs_schedule(iteration_, engine_->now());
  }
  if (lbs_controlled()) {
    profile_rcp(/*broadcast_if_changed=*/true);
    recompute_lbs();
  }
  record_batch(gbs_trace_, current_gbs());
  after<&Worker::batch_tick>(options_.batch_update_period_s);
}

void Worker::heartbeat_tick() {
  if (engine_->now() >= end_time_) return;
  fabric_->broadcast(
      id_, comm::Heartbeat{static_cast<std::uint32_t>(id_), iteration_});
  // Suspicion sweep: a peer unheard-from past the timeout is excluded from
  // wait-sets, renormalization, and weight-pull targeting until it speaks
  // again (on_message clears suspicion on any received message).
  const common::SimTime now = engine_->now();
  bool changed = false;
  for (std::size_t j = 0; j < excluded_.size(); ++j) {
    if (j == id_) continue;
    const bool sus = (now - last_heard_[j]) > kSuspicionTimeoutS;
    if (sus != excluded_[j]) {
      set_excluded(j, sus);
      changed = true;
    }
  }
  if (changed) {
    // Degrade gracefully: reallocate batch shares across live workers and
    // re-check the (possibly shrunken) synchronization wait-set.
    if (lbs_controlled()) recompute_lbs();
    if (waiting_) after<&Worker::try_start_iteration>(0.0);
  }
  after<&Worker::heartbeat_tick>(kHeartbeatPeriodS);
}

void Worker::checkpoint_tick() {
  if (engine_->now() >= end_time_) return;
  take_checkpoint();
  after<&Worker::checkpoint_tick>(kCheckpointPeriodS);
}

void Worker::take_checkpoint() {
  checkpoint_buf_ = nn::serialize_checkpoint(built_.model);
  checkpoint_iteration_ = iteration_;
  checkpoint_valid_ = true;
  ++checkpoints_taken_;
  if (obs::on(obs_)) {
    obs_->tracer().instant(
        obs_track_, "checkpoint", engine_->now(),
        {{"iteration", static_cast<double>(iteration_)},
         {"bytes", static_cast<double>(checkpoint_buf_.size())}});
  }
}

void Worker::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (obs::on(obs_)) {
    obs_h_.crashes->inc();
    obs_->tracer().instant(obs_track_, "crash", engine_->now(),
                           {{"iteration", static_cast<double>(iteration_)}});
  }
  ++crash_count_;
  ++incarnation_;  // cancels every lambda scheduled by the old incarnation
  running_ = false;
  waiting_ = false;
  catching_up_ = false;
  stall_start_ = -1.0;  // the crash voids any open stall/pull span
  pull_start_ = -1.0;
  fabric_->detach(id_);  // in-flight messages to this worker dead-letter
}

void Worker::recover() {
  if (!crashed_) return;
  crashed_ = false;
  ++recover_count_;
  if (obs::on(obs_)) {
    obs_h_.recoveries->inc();
    obs_->tracer().instant(
        obs_track_, "recover", engine_->now(),
        {{"checkpoint_iteration",
          static_cast<double>(checkpoint_iteration_)}});
  }
  attach_to_fabric();
  // Restore the last pre-crash snapshot; training state between the
  // checkpoint and the crash is lost (that is the point of catch-up below).
  if (checkpoint_valid_) {
    nn::restore_checkpoint(built_.model, checkpoint_buf_);
    iteration_ = checkpoint_iteration_;
  }
  iter_interval_.reset();
  last_finish_ = -1.0;
  // Grace period: give every peer a fresh liveness stamp so the recovering
  // worker does not instantly suspect the whole cluster.
  std::fill(last_heard_.begin(), last_heard_.end(), engine_->now());
  reset_exclusions();
  // Re-announce compute power and liveness to peers.
  if (lbs_controlled()) announce_rcp();
  if (ft()) {
    fabric_->broadcast(
        id_, comm::Heartbeat{static_cast<std::uint32_t>(id_), iteration_});
  }
  schedule_ticks();
  request_catch_up();
  try_start_iteration();
}

void Worker::request_catch_up() {
  if (!ft()) return;
  // Pull fresh weights + iteration state from a live peer; until the
  // snapshot arrives the worker trains from its (stale) checkpoint.
  // Attempts are bounded by the number of workers live right now.
  catching_up_ = true;
  send_weight_pull(excluded_, live_worker_count(), /*catch_up=*/true);
}

void Worker::profile_rcp(bool broadcast_if_changed) {
  // The LBS controller measures iteration time at several probe batch sizes
  // and fits time = a + b*LBS (§3.2). Probes read the compute model's
  // nominal timing - the simulated analogue of running short timing probes.
  std::vector<double> xs, ys;
  xs.reserve(options_.lbs.probe_sizes.size());
  ys.reserve(options_.lbs.probe_sizes.size());
  for (std::size_t lbs : options_.lbs.probe_sizes) {
    xs.push_back(static_cast<double>(lbs));
    ys.push_back(compute_.nominal_iteration_seconds(lbs, engine_->now()));
  }
  const double rcp = estimate_rcp(xs, ys, options_.lbs.unit_time_s);
  const double old = rcp_table_[id_];
  rcp_table_[id_] = rcp;
  if (broadcast_if_changed &&
      std::fabs(rcp - old) > kRcpChangeThreshold * std::max(old, 1.0)) {
    fabric_->broadcast(id_,
                       comm::RcpReport{static_cast<std::uint32_t>(id_), rcp});
  }
}

void Worker::announce_rcp() {
  profile_rcp(/*broadcast_if_changed=*/false);
  fabric_->broadcast(
      id_, comm::RcpReport{static_cast<std::uint32_t>(id_), rcp_table_[id_]});
  recompute_lbs();
}

void Worker::recompute_lbs() {
  // Suspected peers contribute (effectively) zero compute power, so their
  // batch share is redistributed across live workers. With no suspicion
  // the table is used verbatim - identical to the non-fault-tolerant path.
  std::vector<double> rcp = rcp_table_;
  for (std::size_t j = 0; j < rcp.size(); ++j) {
    if (excluded_[j]) rcp[j] = kDeadRcp;
  }
  const std::vector<std::size_t> allocation =
      allocate_lbs(current_gbs(), rcp, options_.lbs.min_lbs);
  DLION_ASSERT(allocation.size() == rcp_table_.size(),
               "LBS allocation lost a worker");
  const std::size_t lbs = std::max<std::size_t>(1, allocation[id_]);
  // LBS bounds contract (Eq. 5): a worker's share never exceeds the global
  // batch it was carved from.
  DLION_ASSERT(lbs <= std::max<std::size_t>(1, current_gbs()),
               "LBS " + std::to_string(lbs) + " exceeds GBS " +
                   std::to_string(current_gbs()));
  current_lbs_ = lbs;
  record_batch(lbs_trace_, current_lbs_);
}

void Worker::try_start_iteration() {
  if (crashed_ || running_ || engine_->now() >= end_time_ ||
      iteration_ >= options_.max_iterations) {
    return;
  }
  // Wait-set ⊆ live-set contract: the worker itself is always live (a
  // crashed worker never reaches this point — crash() clears running state
  // and detaches), so the synchronization wait-set below, which excludes
  // every suspected peer, can never contain a dead participant or demand a
  // wait on ourselves.
  DLION_DCHECK(!crashed_ && !excluded_[id_],
               "wait-set would include a dead participant");
  DLION_DCHECK(live_worker_count() >= 1, "live-set lost the worker itself");
  // Suspected peers are excluded from the wait-set entirely, so a crashed
  // peer cannot deadlock synchronous or bounded-staleness training.
  if (!can_start_iteration(options_.sync, iteration_, peer_latest_, id_,
                           excluded_)) {
    waiting_ = true;
    // Open (or keep open) the sync-stall span for this gap.
    if (obs::on(obs_) && stall_start_ < 0.0) stall_start_ = engine_->now();
    return;
  }
  waiting_ = false;
  running_ = true;
  if (obs::on(obs_)) {
    if (stall_start_ >= 0.0) {
      const double stalled = engine_->now() - stall_start_;
      obs_->tracer().complete(obs_track_, "stall", stall_start_,
                              engine_->now());
      obs_h_.stall_s->observe(stalled);
      stall_start_ = -1.0;
    }
    // Staleness at iteration start: how far this worker has run ahead of
    // the slowest live peer's last received gradient (§3.3's bounded-
    // staleness clock). Negative values mean peers are ahead of us.
    std::int64_t min_peer = std::numeric_limits<std::int64_t>::max();
    for (std::size_t j = 0; j < peer_latest_.size(); ++j) {
      if (j == id_ || excluded_[j]) continue;
      min_peer = std::min(min_peer, peer_latest_[j]);
    }
    if (min_peer != std::numeric_limits<std::int64_t>::max()) {
      const double staleness =
          static_cast<double>(static_cast<std::int64_t>(iteration_) -
                              min_peer);
      obs_h_.staleness->observe(staleness);
      obs_->tracer().counter(obs_track_, "staleness", engine_->now(),
                             staleness);
      if (obs::Watchdog* wd = obs_->watchdog()) {
        wd->on_staleness(id_, engine_->now(), staleness);
      }
    }
  }
  const std::size_t lbs = current_lbs_;
  // Real gradient math on the local shard; simulated time charged below.
  const data::Batch batch = sampler_.next(lbs);
  const nn::LossResult res =
      built_.model.compute_gradients(batch.images, batch.labels);
  dkt_.record_loss(res.loss);
  loss_trace_.record(engine_->now(), res.loss);
  if (obs::on(obs_)) {
    if (obs::Watchdog* wd = obs_->watchdog()) {
      wd->on_loss(id_, engine_->now(), res.loss);
    }
  }
  running_lbs_ = lbs;
  running_seconds_ = compute_.iteration_seconds(lbs, engine_->now());
  const auto finish = [this, inc = incarnation_] {
    if (inc == incarnation_) finish_iteration();
  };
  static_assert(sim::is_inline_callback_v<decltype(finish)>);
  engine_->after(running_seconds_, finish);
}

void Worker::finish_iteration() {
  const std::size_t lbs = running_lbs_;
  const double compute_seconds = running_seconds_;
  if (obs::on(obs_)) {
    // The gradient-compute phase ran from the iteration's start until now.
    obs_->tracer().complete(obs_track_, "compute",
                            engine_->now() - compute_seconds, engine_->now(),
                            {{"iteration", static_cast<double>(iteration_)},
                             {"lbs", static_cast<double>(lbs)}});
    obs_h_.compute_s->observe(compute_seconds);
    obs_h_.iterations->inc();
    if (obs::Watchdog* wd = obs_->watchdog()) {
      wd->on_iteration(id_, engine_->now());
    }
  }
  // Apply own gradients (Eq. 7's j = k term, db = n*LBS_k/GBS). Averaging
  // runs over *live* workers so updates keep their magnitude when peers die
  // (n = fabric size when nothing is excluded).
  const std::size_t n_live = live_worker_count();
  // GBS bounds contract: the effective global batch always covers this
  // worker's own contribution and never exceeds what the live cluster can
  // actually supply in fixed-LBS mode.
  DLION_ASSERT(n_live >= 1 && n_live <= fabric_->size());
  DLION_DCHECK(effective_gbs() >= 1, "effective GBS collapsed to zero");
  const double own_db = normalized_batching_weight(
      lbs, effective_gbs(), n_live, options_.weighted_update);
  apply_own_gradients(built_.model, options_.learning_rate, n_live, own_db);

  // Iter_com_i (§3.3) is the worker's achieved iteration rate - the full
  // cycle including synchronization waits, not just gradient compute - so
  // the per-link byte budget self-regulates under congestion.
  const double interval = last_finish_ < 0.0
                              ? compute_seconds
                              : engine_->now() - last_finish_;
  last_finish_ = engine_->now();
  iter_interval_.add(std::max(interval, 1e-9));

  // Partial gradients generation module: per-link selection + send.
  // Suspected peers get nothing (their link budget is reclaimed); they
  // re-enter the loop as soon as a message from them clears suspicion.
  strategy_->begin_iteration(built_.model, iteration_);
  const double iters_per_sec = 1.0 / std::max(iter_interval_.value(), 1e-9);
  double sent_entries = 0.0;
  double sent_bytes = 0.0;
  double sent_peers = 0.0;
  auto* const prioritizer = dynamic_cast<LinkPrioritizer*>(strategy_.get());
  for (std::size_t peer = 0; peer < fabric_->size(); ++peer) {
    if (peer == id_) continue;
    if (excluded_[peer]) continue;
    LinkContext ctx;
    ctx.self = id_;
    ctx.peer = peer;
    ctx.iteration = iteration_;
    // The network monitor reports the link's effective rate: the fair share
    // of the sender's shaped uplink across its n-1 peers, capped by the
    // explicit link matrix entry (WAN paths).
    ctx.available_mbps = fabric_->network().available_mbps(id_, peer);
    ctx.iterations_per_sec = iters_per_sec;
    ctx.byte_scale = fabric_->byte_scale();
    ctx.learning_rate = options_.learning_rate;
    ctx.n_workers = n_live;
    ctx.arena = &arena_;
    comm::GradientUpdate update;
    update.from = static_cast<std::uint32_t>(id_);
    update.iteration = iteration_;
    update.lbs = static_cast<std::uint32_t>(lbs);
    update.vars = strategy_->generate(built_.model, ctx);
    entries_traces_[peer].record(engine_->now(),
                                 static_cast<double>(update.num_entries()));
    if (prioritizer != nullptr) {
      chosen_n_trace_.record(engine_->now(), prioritizer->last_n());
    }
    if (obs::on(obs_)) {
      // Per-link gradient size (the quantity Fig. 8 studies). Charged
      // bytes are recomputed here only when observing.
      const double entries = static_cast<double>(update.num_entries());
      const double bytes =
          static_cast<double>(fabric_->charged_bytes(update));
      obs_h_.grad_entries->observe(entries);
      obs_h_.grad_bytes->observe(bytes);
      sent_entries += entries;
      sent_bytes += bytes;
      sent_peers += 1.0;
    }
    fabric_->send(id_, peer, std::move(update));
  }
  if (obs::on(obs_) && sent_peers > 0.0) {
    obs_->tracer().instant(obs_track_, "send", engine_->now(),
                           {{"peers", sent_peers},
                            {"entries", sent_entries},
                            {"bytes", sent_bytes}});
  }

  ++iteration_;

  // GBS controller (§3.2): one tick per epoch of estimated cluster-wide
  // training progress. Every iteration consumes about one GBS of samples
  // across the cluster.
  if (options_.dynamic_batching && !options_.gbs_schedule &&
      options_.gbs.dataset_size > 0) {
    epoch_progress_ += static_cast<double>(effective_gbs()) /
                       static_cast<double>(options_.gbs.dataset_size);
    if (epoch_progress_ >= epochs_ticked_ + 1.0) {
      epochs_ticked_ += 1.0;
      gbs_ctrl_.tick();
      profile_rcp(/*broadcast_if_changed=*/false);
      recompute_lbs();
      record_batch(gbs_trace_, current_gbs());
    }
  }

  // Model accuracy measured every eval_period iterations (§5.1.3).
  if (test_set_ != nullptr && iteration_ % options_.eval_period_iters == 0) {
    evaluate_accuracy();
  }

  // Model synchronization module (§3.4).
  if (dkt_.is_boundary(iteration_)) run_dkt_boundary();

  running_ = false;
  after<&Worker::try_start_iteration>(0.0);
}

void Worker::run_dkt_boundary() {
  if (obs::on(obs_)) {
    obs_h_.dkt_boundaries->inc();
    obs_->tracer().instant(obs_track_, "dkt_boundary", engine_->now(),
                           {{"iteration", static_cast<double>(iteration_)},
                            {"avg_loss", dkt_.avg_loss()}});
  }
  fabric_->broadcast(id_, comm::LossReport{static_cast<std::uint32_t>(id_),
                                          iteration_, dkt_.avg_loss()});
  if (!dkt_.should_request(iteration_)) return;
  if (ft()) {
    // Reliable pull with next-best fallback: an unacked request (crashed or
    // partitioned best worker) falls through to the next-best candidate.
    send_weight_pull(excluded_, live_worker_count(), /*catch_up=*/false);
    return;
  }
  // Without fault tolerance nothing excludes peers: the mask is all false
  // and should_request has already ruled out pulling from ourselves.
  const std::size_t best = dkt_.best_worker(iteration_, excluded_);
  if (best == id_) return;  // no usable peer to pull from
  if (obs::on(obs_)) {
    obs_h_.dkt_pulls->inc();
    if (pull_start_ < 0.0) pull_start_ = engine_->now();
  }
  fabric_->send(id_, best,
                comm::DktRequest{static_cast<std::uint32_t>(id_), iteration_});
}

void Worker::send_weight_pull(std::vector<bool> excluded,
                              std::size_t attempts_left, bool catch_up) {
  if (excluded.size() < fabric_->size()) {
    excluded.resize(fabric_->size(), false);
  }
  excluded[id_] = true;  // never pull from ourselves
  if (attempts_left == 0) {
    if (catch_up) catching_up_ = false;
    return;
  }
  std::size_t target = dkt_.best_worker(iteration_, excluded);
  if (target == id_) {
    // DKT knows no usable better peer. A DKT boundary simply skips the
    // exchange; a catch-up pull takes any live peer (anyone's state is
    // fresher than our checkpoint).
    if (!catch_up) return;
    target = fabric_->size();
    for (std::size_t j = 0; j < fabric_->size(); ++j) {
      if (!excluded[j]) {
        target = j;
        break;
      }
    }
    if (target == fabric_->size()) {
      catching_up_ = false;  // nobody reachable; keep training from snapshot
      return;
    }
  }
  if (obs::on(obs_)) {
    obs_h_.dkt_pulls->inc();
    if (pull_start_ < 0.0) pull_start_ = engine_->now();
  }
  const std::uint64_t inc = incarnation_;
  fabric_->send_reliable(
      id_, target,
      comm::DktRequest{static_cast<std::uint32_t>(id_), iteration_},
      kControlRetry,
      [this, inc, excluded = std::move(excluded), attempts_left, catch_up,
       target](bool acked) mutable {
        if (inc != incarnation_) return;
        if (acked) return;  // the WeightSnapshot reply is on its way
        excluded[target] = true;
        send_weight_pull(std::move(excluded), attempts_left - 1, catch_up);
      });
}

double Worker::evaluate_accuracy() {
  if (eval_batch_.size() == 0) return 0.0;
  const nn::LossResult res =
      built_.model.evaluate(eval_batch_.images, eval_batch_.labels);
  accuracy_trace_.record(engine_->now(), res.accuracy);
  if (obs::on(obs_)) {
    obs_->tracer().instant(obs_track_, "eval", engine_->now(),
                           {{"accuracy", res.accuracy}});
  }
  return res.accuracy;
}

void Worker::on_message(std::size_t from, comm::MessagePtr msg) {
  DLION_DCHECK(from < fabric_->size() && from != id_,
               "message from impossible sender " + std::to_string(from));
  // Any message is proof of life: refresh the liveness stamp and clear
  // suspicion (a no-op whenever fault tolerance is disabled).
  last_heard_[from] = engine_->now();
  set_excluded(from, false);
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, comm::GradientUpdate>) {
          peer_latest_[from] =
              std::max(peer_latest_[from],
                       static_cast<std::int64_t>(m.iteration));
          const std::size_t n_live = live_worker_count();
          const double db = normalized_batching_weight(
              std::max<std::size_t>(1, m.lbs), effective_gbs(), n_live,
              options_.weighted_update);
          apply_gradient_update(built_.model, m, options_.learning_rate,
                                n_live, db);
          if (obs::on(obs_)) {
            // Zero-duration "apply" span at delivery time: the destination
            // slice for the fabric's flow-end recorded just before this
            // handler ran (same track, same timestamp), and the node the
            // critical-path analyzer charges the incoming transfer to.
            // Deliberately arg-free: this is the hottest causal record site
            // and an args vector would heap-allocate per delivery.
            obs_->tracer().complete(obs_track_, "apply", engine_->now(),
                                    engine_->now());
          }
          if (waiting_) after<&Worker::try_start_iteration>(0.0);
        } else if constexpr (std::is_same_v<T, comm::LossReport>) {
          // Stamped with the *receiver's* iteration: one coherent freshness
          // clock even when peers' own iteration counts diverge.
          dkt_.record_peer_loss(from, m.avg_loss, iteration_);
        } else if constexpr (std::is_same_v<T, comm::DktRequest>) {
          comm::WeightSnapshot snap;
          snap.from = static_cast<std::uint32_t>(id_);
          snap.iteration = iteration_;
          snap.loss = dkt_.avg_loss();
          snap.weights = stage_weights();
          send_control(from, std::move(snap));
        } else if constexpr (std::is_same_v<T, comm::WeightSnapshot>) {
          if (obs::on(obs_) && pull_start_ >= 0.0) {
            // Close the DKT weight-pull phase opened when the (first)
            // request of this exchange went out.
            obs_->tracer().complete(obs_track_, "dkt_pull", pull_start_,
                                    engine_->now(),
                                    {{"from", static_cast<double>(from)}});
            pull_start_ = -1.0;
          }
          if (catching_up_) {
            // Post-recovery catch-up: adopt the peer's weights and jump to
            // its iteration so peers' staleness bounds see us as current.
            assign_weights(built_.model, m.weights);
            iteration_ = std::max(iteration_, m.iteration);
            catching_up_ = false;
            take_checkpoint();  // fresh restore point post-rejoin
            if (waiting_) after<&Worker::try_start_iteration>(0.0);
          } else {
            dkt_.merge(built_.model, m.weights);
          }
        } else if constexpr (std::is_same_v<T, comm::RcpReport>) {
          rcp_table_[from] = m.rcp;
          if (lbs_controlled()) recompute_lbs();
        } else if constexpr (std::is_same_v<T, comm::Heartbeat>) {
          // Liveness handled above; the beacon carries no training payload.
        }
      },
      *msg);
}

comm::WeightPayload Worker::stage_weights() {
  const auto& vars = built_.model.variables();
  // Size the writer's block hint to the whole model so the parts land in
  // one block whenever the arena can serve it.
  std::size_t total_bytes = 0;
  for (const auto* var : vars) total_bytes += var->size() * sizeof(float);
  comm::PayloadWriter writer(
      arena_, std::max(total_bytes, comm::PayloadArena::kMinBlockBytes));
  comm::WeightPayload out;
  out.parts.reserve(vars.size());
  for (const auto* var : vars) {
    const tensor::Tensor& t = var->value();
    out.parts.push_back(
        writer.copy(std::span<const float>(t.data(), t.size())));
  }
  return out;
}

}  // namespace dlion::core
