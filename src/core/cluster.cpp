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

  network_ = std::make_unique<sim::Network>(engine_, n);
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

  common::Rng seeder(spec.seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < n; ++i) {
    common::Rng model_rng(spec.seed);  // identical init on every worker
    nn::BuiltModel built = nn::make_model(spec.model, model_rng);
    WorkerOptions options = spec.worker_options;
    options.gbs.dataset_size = train.size();
    if (faults_ != nullptr && spec.auto_fault_tolerance) {
      options.fault_tolerance = true;
    }
    workers_.push_back(std::make_unique<Worker>(
        i, engine_, *fabric_,
        sim::ComputeResource(spec.compute[i], built.profile,
                             seeder.next()),
        std::move(built), data::shard(train, n, i), &test,
        spec.strategy_factory(i), std::move(options), seeder.next()));
    if (spec.obs != nullptr) workers_.back()->set_obs(spec.obs);
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
}

double Cluster::byte_scale() const { return fabric_->byte_scale(); }

void Cluster::run_until(common::SimTime t) {
  if (!started_) {
    started_ = true;
    for (auto& w : workers_) w->start(spec_duration_);
  }
  engine_.run_until(std::min(t, spec_duration_));
}

void Cluster::run() { run_until(spec_duration_); }

double Cluster::mean_accuracy() const {
  double s = 0.0;
  for (const auto& w : workers_) {
    const double a = w->accuracy_trace().last();
    s += std::isnan(a) ? 0.0 : a;
  }
  return s / static_cast<double>(workers_.size());
}

double Cluster::accuracy_stddev() const {
  std::vector<double> accs;
  accs.reserve(workers_.size());
  for (const auto& w : workers_) {
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
    for (const auto& w : workers_) {
      const double a = w->accuracy_trace().value_at(t);
      s += std::isnan(a) ? 0.0 : a;
    }
    merged.record(t, s / static_cast<double>(workers_.size()));
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
