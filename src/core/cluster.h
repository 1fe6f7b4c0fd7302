// Cluster assembly: builds the simulated micro-cloud (engine, network,
// fabric) and n DLion workers over sharded training data, runs the
// experiment for a simulated duration, and exposes the workers' traces.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/membership.h"
#include "core/worker.h"
#include "data/synthetic.h"
#include "serve/serving.h"
#include "sim/fault_injector.h"

namespace dlion::core {

/// Elastic-membership configuration for a cluster (DESIGN.md, "Elastic
/// membership"). `compute.size()` becomes the slot *capacity*; only the
/// first `initial_workers` slots start as members, the rest sit dormant
/// until a scripted membership event activates them.
struct ElasticSpec {
  /// Slots that are members at t=0 (0 = all of them).
  std::size_t initial_workers = 0;
  /// Scripted joins and leaves.
  sim::MembershipSchedule schedule;
};

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
  /// Elastic membership: dormant slots and scripted churn.
  /// Disabled (nullopt, the default) leaves every run bit-identical to the
  /// pre-elastic cluster.
  std::optional<ElasticSpec> elastic;
  /// Serving tier: inference replicas on extra fabric slots, refreshed
  /// online from the freshest training worker (DESIGN.md "Serving tier").
  /// Disabled (nullopt, the default) leaves every run bit-identical to a
  /// training-only cluster. Mutually exclusive with `elastic`.
  std::optional<serve::ServingSpec> serving;
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
  /// The membership controller, or nullptr when elastic is disabled.
  MembershipController* membership() { return membership_.get(); }
  const MembershipController* membership() const { return membership_.get(); }
  /// The serving tier, or nullptr when serving is disabled. Stats are
  /// finalized once the run reaches its full duration.
  serve::ServingTier* serving() { return serving_.get(); }
  const serve::ServingTier* serving() const { return serving_.get(); }
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
  bool elastic_ = false;
  sim::Engine engine_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<comm::Fabric> fabric_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<MembershipController> membership_;
  std::unique_ptr<serve::ServingTier> serving_;
  bool serving_finalized_ = false;
};

}  // namespace dlion::core
