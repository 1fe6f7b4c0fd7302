// Fault-tolerance integration tests: worker crashes, network partitions,
// and lossy links injected into full training clusters, exercising the
// heartbeat failure detector, wait-set degradation, checkpoint restore,
// state catch-up, and the deterministic-replay guarantee.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "obs/obs.h"
#include "systems/registry.h"

namespace dlion::core {
namespace {

data::TrainTest blobs_data() { return data::make_blobs(31, 16, 4, 2048, 512); }

ClusterSpec spec_for(const std::string& system_name, std::size_t n_workers,
                     double duration) {
  const systems::SystemSpec system = systems::make_system(system_name);
  ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 13;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < n_workers; ++i) {
    spec.compute.push_back(exp::cpu_cores(4));
  }
  spec.strategy_factory = system.strategy_factory;
  WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * n_workers;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

/// Four workers under a crash, a 2|2 partition and a lossy link.
ClusterSpec fault_schedule_spec() {
  ClusterSpec spec = spec_for("dlion", 4, 90.0);
  spec.faults.crash(3, 20.0, 40.0).partition({0, 1}, {2, 3}, 50.0, 60.0);
  spec.faults.lossy(0, 1, 0.3, 10.0, 70.0);
  return spec;
}

/// Everything an observed fault_schedule_spec() run produces that the
/// determinism contract covers.
struct FaultRunOut {
  std::vector<std::uint64_t> iterations;
  std::vector<std::vector<float>> weights;  // per worker, flattened
  std::vector<sim::TracePoint> curve;
  std::uint64_t messages_dropped = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t reliable_retries = 0;
  std::uint64_t reliable_failures = 0;
  std::string metrics_json;
};

FaultRunOut run_observed_fault_schedule() {
  const data::TrainTest data = blobs_data();
  obs::Observability o;
  ClusterSpec spec = fault_schedule_spec();
  spec.obs = &o;
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  FaultRunOut out;
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    out.iterations.push_back(cluster.worker(w).iterations());
    const nn::Snapshot snap = cluster.worker(w).model().weights();
    std::vector<float> flat;
    for (const tensor::Tensor& t : snap.values) {
      flat.insert(flat.end(), t.data(), t.data() + t.size());
    }
    out.weights.push_back(std::move(flat));
  }
  out.curve = cluster.mean_accuracy_trace().points();
  out.messages_dropped = cluster.network().total_stats().messages_dropped;
  out.dead_letters = cluster.fabric().dead_letters();
  out.reliable_retries = cluster.fabric().reliable_retries();
  out.reliable_failures = cluster.fabric().reliable_failures();
  out.metrics_json = o.metrics().to_json();
  return out;
}

TEST(FaultTolerance, CrashTwoOfSixPlusPartitionKeepsTrainingWithoutDeadlock) {
  // The acceptance scenario: two of six workers crash in staggered windows
  // and the cluster partitions 3|3, under bounded-staleness sync. With the
  // fault-tolerance layer on, suspicion shrinks the wait-set and training
  // rides through; the undefended twin stalls whenever the staleness budget
  // runs out against a dead or unreachable peer.
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 6, 120.0);  // bounded(5, 0)
  spec.faults.crash(4, 30.0, 60.0)
      .crash(5, 40.0, 70.0)
      .partition({0, 1, 2}, {3, 4, 5}, 80.0, 95.0);

  ClusterSpec undefended = spec;
  undefended.auto_fault_tolerance = false;

  Cluster ft_cluster(spec, data.train, data.test);
  Cluster raw_cluster(undefended, data.train, data.test);
  ft_cluster.run();   // completing at all proves no deadlock
  raw_cluster.run();

  // Healthy workers kept iterating through both crash windows and the
  // partition.
  for (std::size_t w : {0u, 1u, 2u, 3u}) {
    EXPECT_GT(ft_cluster.worker(w).iterations(), 100u) << "worker " << w;
    EXPECT_FALSE(ft_cluster.worker(w).crashed());
  }
  // Both crashed workers completed a crash->recover cycle.
  EXPECT_EQ(ft_cluster.worker(4).crash_count(), 1u);
  EXPECT_EQ(ft_cluster.worker(4).recover_count(), 1u);
  EXPECT_EQ(ft_cluster.worker(5).recover_count(), 1u);
  EXPECT_FALSE(ft_cluster.worker(4).crashed());
  // Graceful degradation beats stalling on dead peers.
  EXPECT_GT(ft_cluster.total_iterations(), raw_cluster.total_iterations());
  // The cluster still learns the task.
  EXPECT_GT(ft_cluster.mean_accuracy(), 0.8);
}

TEST(FaultTolerance, CrashedWorkerRestoresCheckpointAndCatchesUp) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 4, 120.0);
  spec.faults.crash(3, 30.0, 50.0);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  const Worker& crashed = cluster.worker(3);
  EXPECT_EQ(crashed.recover_count(), 1u);
  // Checkpoint module ran (default period 20 s over a 120 s run).
  EXPECT_GE(crashed.checkpoints_taken(), 3u);
  // State catch-up: after restoring a checkpoint from <= t=30 the worker
  // adopts a live peer's iteration, so it finishes close to the healthy
  // workers instead of lagging by the lost window.
  EXPECT_GT(crashed.iterations(), cluster.worker(0).iterations() / 2);
  EXPECT_GT(cluster.mean_accuracy(), 0.8);
}

TEST(FaultTolerance, SuspicionRisesDuringCrashAndClearsAfterRecovery) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 3, 90.0);
  spec.faults.crash(2, 20.0, 50.0);
  Cluster cluster(spec, data.train, data.test);
  // Mid-crash, past the suspicion timeout (default 6 s): worker 0 must have
  // suspected worker 2.
  cluster.run_until(40.0);
  EXPECT_TRUE(cluster.worker(2).crashed());
  EXPECT_TRUE(cluster.worker(0).excluded_peers()[2]);
  EXPECT_EQ(cluster.worker(0).live_worker_count(), 2u);
  // After recovery plus a few heartbeats the suspicion has cleared.
  cluster.run();
  EXPECT_FALSE(cluster.worker(2).crashed());
  EXPECT_FALSE(cluster.worker(0).excluded_peers()[2]);
  EXPECT_EQ(cluster.worker(0).live_worker_count(), 3u);
}

TEST(FaultTolerance, SuspicionFollowsTheFixedTimeout) {
  // Survivors exclude a crashed peer no earlier than the 6 s suspicion
  // timeout and no later than one 2 s heartbeat sweep past it. Zero
  // latency makes the crash the instant worker 2 falls silent: transfers
  // still on the wire then are dropped, none are mid-propagation.
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 3, 60.0);
  spec.network_setup = [](sim::Network& net) { net.set_all_latency(0.0); };
  const double crash = 21.0;
  spec.faults.crash(2, crash, 50.0);
  Cluster cluster(spec, data.train, data.test);
  cluster.run_until(crash + 6.0 - 1e-6);
  for (std::size_t w : {0u, 1u}) {
    EXPECT_FALSE(cluster.worker(w).excluded_peers()[2]) << "worker " << w;
  }
  cluster.run_until(crash + 8.0);
  for (std::size_t w : {0u, 1u}) {
    EXPECT_TRUE(cluster.worker(w).excluded_peers()[2]) << "worker " << w;
  }
}

TEST(FaultTolerance, LossyLinksDegradeButDoNotStopTraining) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 3, 90.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) spec.faults.lossy(i, j, 0.2, 10.0, 60.0);
    }
  }
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  ASSERT_NE(cluster.fault_injector(), nullptr);
  EXPECT_GT(cluster.fault_injector()->loss_drops(), 0u);
  EXPECT_GT(cluster.network().total_stats().messages_dropped, 0u);
  EXPECT_GT(cluster.mean_accuracy(), 0.8);
}

TEST(FaultTolerance, DeterministicReplayUnderFaultSchedule) {
  // The determinism guarantee extends to faulty runs: the same spec (same
  // seed, same fault schedule incl. probabilistic loss) replays to
  // bit-identical traces and statistics.
  const data::TrainTest data = blobs_data();
  const ClusterSpec spec = fault_schedule_spec();
  Cluster a(spec, data.train, data.test);
  Cluster b(spec, data.train, data.test);
  a.run();
  b.run();
  EXPECT_EQ(a.total_iterations(), b.total_iterations());
  EXPECT_EQ(a.network().total_stats().messages_dropped,
            b.network().total_stats().messages_dropped);
  EXPECT_EQ(a.fabric().dead_letters(), b.fabric().dead_letters());
  EXPECT_EQ(a.fabric().reliable_retries(), b.fabric().reliable_retries());
  const auto pa = a.mean_accuracy_trace().points();
  const auto pb = b.mean_accuracy_trace().points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i].time, pb[i].time);
    EXPECT_DOUBLE_EQ(pa[i].value, pb[i].value);
  }
  // Per-worker loss traces too - not just the aggregated curve.
  for (std::size_t w = 0; w < a.size(); ++w) {
    const auto la = a.worker(w).loss_trace().points();
    const auto lb = b.worker(w).loss_trace().points();
    ASSERT_EQ(la.size(), lb.size()) << "worker " << w;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_DOUBLE_EQ(la[i].time, lb[i].time);
      EXPECT_DOUBLE_EQ(la[i].value, lb[i].value);
    }
  }
}

TEST(FaultTolerance, FaultScheduleIsDeterministicAcrossThreadCounts) {
  // The same seed and fault schedule, observed, give bit-identical weights,
  // curves, tallies and metrics whether the thread pool runs 1 or 4
  // workers.
  common::ThreadPool::reset_global_for_testing(1);
  const FaultRunOut single = run_observed_fault_schedule();
  common::ThreadPool::reset_global_for_testing(4);
  const FaultRunOut pooled = run_observed_fault_schedule();
  common::ThreadPool::reset_global_for_testing(0);  // restore the default

  EXPECT_EQ(single.iterations, pooled.iterations);
  ASSERT_EQ(single.weights.size(), pooled.weights.size());
  for (std::size_t w = 0; w < single.weights.size(); ++w) {
    // Exact float equality: the contract is bit-identical, not close.
    EXPECT_EQ(single.weights[w], pooled.weights[w]) << "worker " << w;
  }
  ASSERT_EQ(single.curve.size(), pooled.curve.size());
  for (std::size_t i = 0; i < single.curve.size(); ++i) {
    EXPECT_EQ(single.curve[i].time, pooled.curve[i].time);
    EXPECT_EQ(single.curve[i].value, pooled.curve[i].value);
  }
  EXPECT_EQ(single.messages_dropped, pooled.messages_dropped);
  EXPECT_EQ(single.dead_letters, pooled.dead_letters);
  EXPECT_EQ(single.reliable_retries, pooled.reliable_retries);
  EXPECT_EQ(single.reliable_failures, pooled.reliable_failures);
  EXPECT_EQ(single.metrics_json, pooled.metrics_json);
  // The schedule did bite: the crash and the lossy link dropped traffic.
  EXPECT_GT(single.messages_dropped, 0u);
}

TEST(FaultTolerance, EmptyScheduleAttachesNothingAndTouchesNoFaultState) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 3, 60.0);
  ASSERT_TRUE(spec.faults.empty());
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  EXPECT_EQ(cluster.fault_injector(), nullptr);
  EXPECT_EQ(cluster.network().total_stats().messages_dropped, 0u);
  EXPECT_EQ(cluster.fabric().dead_letters(), 0u);
  EXPECT_EQ(cluster.fabric().reliable_retries(), 0u);
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    EXPECT_EQ(cluster.worker(w).crash_count(), 0u);
    EXPECT_EQ(cluster.worker(w).checkpoints_taken(), 0u);
    EXPECT_EQ(cluster.worker(w).live_worker_count(), 3u);
  }
}

TEST(FaultTolerance, ManualFaultToleranceWithoutFaultsIsAllowed) {
  // The layer can run on a healthy cluster (heartbeats + checkpoints only);
  // it must not disturb convergence.
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for("dlion", 3, 60.0);
  spec.worker_options.fault_tolerance = true;
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  EXPECT_GT(cluster.worker(0).checkpoints_taken(), 0u);
  EXPECT_EQ(cluster.worker(0).crash_count(), 0u);
  EXPECT_GT(cluster.mean_accuracy(), 0.8);
}

}  // namespace
}  // namespace dlion::core
