#include "core/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlion::core {

Cluster::Cluster(const ClusterSpec& spec, const data::Dataset& train,
                 const data::Dataset& test)
    : spec_duration_(spec.duration_s) {
  const std::size_t n = spec.compute.size();
  if (n == 0) throw std::invalid_argument("Cluster: no workers");
  if (!spec.strategy_factory) {
    throw std::invalid_argument("Cluster: missing strategy factory");
  }
  if (spec.serving.has_value() && spec.elastic.has_value()) {
    // Serving replicas ride on extra fabric slots outside the worker
    // roster; the elastic controller assumes the roster spans the whole
    // fabric, so the two layers cannot share a cluster yet.
    throw std::invalid_argument("Cluster: serving and elastic are exclusive");
  }

  // Serving replicas occupy slots [n, n + extra) in the same network and
  // fabric; set_active_workers keeps the egress fair-share divisor at the
  // worker count, so training traffic shapes exactly as without serving.
  const std::size_t extra = spec.serving ? spec.serving->replicas : 0;
  network_ = std::make_unique<sim::Network>(engine_, n + extra);
  if (extra > 0) network_->set_active_workers(n);
  if (spec.network_setup) spec.network_setup(*network_);
  if (spec.obs != nullptr) {
    engine_.set_obs(spec.obs);
    network_->set_obs(spec.obs);
    spec.obs->metrics().gauge("cluster.workers").set(static_cast<double>(n));
  }

  // Fault injection: attach only for non-empty schedules, so fault-free
  // runs execute exactly the code they always did (byte-identical traces).
  if (!spec.faults.empty()) {
    faults_ = std::make_unique<sim::FaultInjector>(spec.faults);
    network_->set_fault_injector(faults_.get());
  }

  // All workers start from identical weights (decentralized training with a
  // common initialization), so one seed builds every replica; samplers and
  // compute jitter fork per worker.
  common::Rng init_rng(spec.seed);
  nn::BuiltModel reference = nn::make_model(spec.model, init_rng);
  const double actual_bytes =
      static_cast<double>(reference.model.num_params()) * sizeof(float);
  const double byte_scale =
      actual_bytes > 0.0
          ? static_cast<double>(reference.profile.nominal_bytes) / actual_bytes
          : 1.0;
  fabric_ = std::make_unique<comm::Fabric>(*network_, byte_scale);
  if (spec.obs != nullptr) fabric_->set_obs(spec.obs);

  // Elastic membership: compute.size() is the slot *capacity*; only the
  // first initial_workers slots start live, the rest dormant.
  elastic_ = spec.elastic.has_value();
  std::vector<bool> initial_members(n, true);
  if (elastic_) {
    const std::size_t live = spec.elastic->initial_workers == 0
                                 ? n
                                 : std::min(spec.elastic->initial_workers, n);
    if (live == 0) throw std::invalid_argument("Cluster: empty roster");
    for (std::size_t i = live; i < n; ++i) initial_members[i] = false;
  }

  common::Rng seeder(spec.seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < n; ++i) {
    common::Rng model_rng(spec.seed);  // identical init on every worker
    nn::BuiltModel built = nn::make_model(spec.model, model_rng);
    WorkerOptions options = spec.worker_options;
    options.gbs.dataset_size = train.size();
    if (faults_ != nullptr && spec.auto_fault_tolerance) {
      options.fault_tolerance = true;
    }
    if (elastic_) {
      options.initial_members = initial_members;
    } else if (extra > 0) {
      // Serving slots must never receive worker broadcasts. A static
      // roster of exactly the worker slots rides the elastic layer's
      // roster-targeted broadcast; with no membership events this is
      // bit-identical to the legacy all-worker broadcast (PR 6 noop-elastic
      // identity), just over a fabric with extra non-member slots.
      std::vector<bool> worker_slots(n + extra, false);
      for (std::size_t j = 0; j < n; ++j) worker_slots[j] = true;
      options.initial_members = std::move(worker_slots);
    }
    workers_.push_back(std::make_unique<Worker>(
        i, engine_, *fabric_,
        sim::ComputeResource(spec.compute[i], built.profile,
                             seeder.next()),
        std::move(built), data::shard(train, n, i), &test,
        spec.strategy_factory(i), std::move(options), seeder.next()));
    if (spec.obs != nullptr) workers_.back()->set_obs(spec.obs);
  }

  if (elastic_) {
    std::vector<Worker*> raw;
    raw.reserve(workers_.size());
    for (auto& w : workers_) raw.push_back(w.get());
    membership_ = std::make_unique<MembershipController>(
        engine_, *fabric_, std::move(raw), spec.elastic->schedule,
        initial_members, spec_duration_);
  }

  // Crash windows drive the workers directly: the worker object crashes
  // (detaches, loses post-checkpoint state) at window start and runs its
  // recovery protocol at window end.
  if (faults_ != nullptr) {
    for (const auto& cw : spec.faults.crashes) {
      if (cw.worker >= workers_.size()) continue;
      Worker* w = workers_[cw.worker].get();
      engine_.at(cw.start, [w] { w->crash(); });
      engine_.at(cw.end, [w] { w->recover(); });
    }
  }

  if (extra > 0) {
    // Refresh source: the freshest live worker (most iterations, lowest id
    // on ties) donates its weight snapshot each publish round.
    std::vector<Worker*> raw;
    raw.reserve(workers_.size());
    for (auto& w : workers_) raw.push_back(w.get());
    auto publish_source =
        [raw = std::move(raw)]() -> std::optional<serve::PublishSource> {
      Worker* best = nullptr;
      for (Worker* w : raw) {
        if (w->crashed() || w->dormant()) continue;
        if (best == nullptr || w->iterations() > best->iterations()) best = w;
      }
      if (best == nullptr) return std::nullopt;
      serve::PublishSource source;
      source.slot = best->id();
      source.iteration = best->iterations();
      source.weights = best->model().weights();
      return source;
    };
    serving_ = std::make_unique<serve::ServingTier>(
        engine_, *fabric_, *spec.serving, spec.model, spec.compute, &test,
        spec.seed, /*first_slot=*/n, std::move(publish_source), spec.obs);
  }
}

double Cluster::byte_scale() const { return fabric_->byte_scale(); }

void Cluster::run_until(common::SimTime t) {
  if (!started_) {
    started_ = true;
    // Dormant slots do not start training; a membership event starts them
    // through Worker::join.
    for (auto& w : workers_) {
      if (!w->dormant()) w->start(spec_duration_);
    }
    if (membership_ != nullptr) membership_->start();
    if (serving_ != nullptr) serving_->start(spec_duration_);
  }
  engine_.run_until(std::min(t, spec_duration_));
  if (serving_ != nullptr && !serving_finalized_ && t >= spec_duration_) {
    serving_finalized_ = true;
    serving_->finalize(spec_duration_);
  }
}

void Cluster::run() { run_until(spec_duration_); }

double Cluster::mean_accuracy() const {
  // Elastic runs average over workers that ever trained (slots that stayed
  // dormant would otherwise drag the cluster mean toward zero); legacy runs
  // keep the all-worker denominator bit-identically.
  double s = 0.0;
  std::size_t counted = 0;
  for (const auto& w : workers_) {
    if (elastic_ && w->accuracy_trace().points().empty()) continue;
    const double a = w->accuracy_trace().last();
    s += std::isnan(a) ? 0.0 : a;
    ++counted;
  }
  if (counted == 0) return 0.0;
  return s / static_cast<double>(counted);
}

double Cluster::accuracy_stddev() const {
  std::vector<double> accs;
  accs.reserve(workers_.size());
  for (const auto& w : workers_) {
    if (elastic_ && w->accuracy_trace().points().empty()) continue;
    const double a = w->accuracy_trace().last();
    accs.push_back(std::isnan(a) ? 0.0 : a);
  }
  return common::population_stddev(accs);
}

sim::Trace Cluster::mean_accuracy_trace() const {
  // Merge the per-worker eval points: at each recorded time, the cluster
  // accuracy is the mean of every worker's latest value at that time.
  std::vector<common::SimTime> times;
  for (const auto& w : workers_) {
    for (const auto& p : w->accuracy_trace().points()) {
      times.push_back(p.time);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  sim::Trace merged("mean_accuracy");
  for (const common::SimTime t : times) {
    double s = 0.0;
    std::size_t counted = 0;
    for (const auto& w : workers_) {
      // Elastic runs: a worker enters the mean only once it has evaluated
      // at least once by time t (its trace has a point at or before t), so
      // the cluster curve has no artificial cliff at each join.
      if (elastic_ && std::isnan(w->accuracy_trace().value_at(t))) continue;
      const double a = w->accuracy_trace().value_at(t);
      s += std::isnan(a) ? 0.0 : a;
      ++counted;
    }
    if (counted == 0) counted = workers_.size();
    merged.record(t, s / static_cast<double>(counted));
  }
  return merged;
}

double Cluster::time_to_accuracy(double threshold) const {
  return mean_accuracy_trace().time_to_reach(threshold);
}

common::Bytes Cluster::total_bytes_sent() const {
  return network_->total_stats().bytes_sent;
}

std::uint64_t Cluster::total_iterations() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->iterations();
  return total;
}

}  // namespace dlion::core
