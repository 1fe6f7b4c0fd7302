// Cluster assembly: builds the simulated micro-cloud (engine, network,
// fabric) and n DLion workers over sharded training data, runs the
// experiment for a simulated duration, and exposes the workers' traces.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/worker.h"
#include "data/synthetic.h"
#include "sim/fault_injector.h"

namespace dlion::core {

struct ClusterSpec {
  /// Model zoo name ("cipher-lite", "cipher", "mobilenet", ...).
  std::string model = "cipher-lite";
  std::uint64_t seed = 42;
  /// Per-worker compute resources; size determines the worker count.
  std::vector<sim::ComputeSpec> compute;
  /// Applies the environment's bandwidth/latency schedules to the network
  /// (egress shaping, link matrix). Called once during construction.
  std::function<void(sim::Network&)> network_setup;
  /// Base worker options (copied per worker).
  WorkerOptions worker_options;
  /// Creates each worker's partial-gradient strategy.
  std::function<StrategyPtr(std::size_t worker)> strategy_factory;
  /// Simulated training duration (seconds).
  double duration_s = 300.0;
  /// Deterministic fault schedule (worker crashes, link blackouts /
  /// partitions, lossy links). Empty (the default) attaches no injector and
  /// leaves every event trace bit-identical to a fault-free build.
  sim::FaultSchedule faults;
  /// Auto-enable the workers' fault-tolerance layer whenever `faults` is
  /// non-empty. Set false to study an undefended system under churn (the
  /// bench's "no-FT" baseline); worker_options.fault_tolerance = true
  /// always wins.
  bool auto_fault_tolerance = true;
  /// Observer wired through engine, network, fabric, and every worker
  /// (non-owning; must outlive the cluster). nullptr (the default) records
  /// nothing and leaves the run's hot paths untouched beyond a pointer
  /// check per potential record site.
  obs::Observability* obs = nullptr;
};

class Cluster {
 public:
  Cluster(const ClusterSpec& spec, const data::Dataset& train,
          const data::Dataset& test);

  /// Run the simulation to completion (duration_s of simulated time).
  void run();
  /// Run up to an intermediate simulated time (can be called repeatedly in
  /// increasing order; run() finishes the remainder).
  void run_until(common::SimTime t);

  std::size_t size() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_.at(i); }
  const Worker& worker(std::size_t i) const { return *workers_.at(i); }
  sim::Engine& engine() { return engine_; }
  sim::Network& network() { return *network_; }
  comm::Fabric& fabric() { return *fabric_; }
  /// The attached fault injector, or nullptr when the schedule is empty.
  sim::FaultInjector* fault_injector() { return faults_.get(); }
  double duration() const { return spec_duration_; }

  /// Ratio nominal-model-bytes / trained-model-bytes charged by the fabric.
  double byte_scale() const;

  /// Mean of workers' latest measured accuracies.
  double mean_accuracy() const;
  /// Population standard deviation of workers' latest accuracies (Fig. 17).
  double accuracy_stddev() const;
  /// Cluster-mean accuracy as a time series (merged across workers).
  sim::Trace mean_accuracy_trace() const;
  /// Earliest simulated time the cluster-mean accuracy reaches `threshold`
  /// (+inf if never).
  double time_to_accuracy(double threshold) const;
  /// Total bytes all workers pushed into the network.
  common::Bytes total_bytes_sent() const;
  /// Total iterations across all workers.
  std::uint64_t total_iterations() const;

 private:
  double spec_duration_;
  bool started_ = false;
  sim::Engine engine_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<comm::Fabric> fabric_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace dlion::core
