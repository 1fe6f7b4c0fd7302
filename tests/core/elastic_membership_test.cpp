// Elastic-membership integration tests: scripted joins and leaves over a
// training cluster, exercising roster-epoch propagation, multi-peer
// bootstrap weight transfer, GBS/LBS renormalization over the live set,
// and the determinism contract (same seed + churn schedule => byte-
// identical telemetry and final weights at any thread count, with or
// without an observer attached). Unit tests for the pure pieces -
// plan_bootstrap, allocate_lbs_live, RosterView::adopt - pin the
// protocol-level invariants the integration runs rely on.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/lbs_controller.h"
#include "core/roster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "exp/experiment.h"
#include "obs/obs.h"
#include "obs/track_names.h"
#include "obs/watchdog.h"
#include "systems/registry.h"

namespace dlion::core {
namespace {

data::TrainTest blobs_data() { return data::make_blobs(31, 16, 4, 2048, 512); }

ClusterSpec spec_for(std::size_t capacity, double duration,
                     const std::string& system_name = "dlion") {
  const systems::SystemSpec system = systems::make_system(system_name);
  ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 13;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < capacity; ++i) {
    spec.compute.push_back(exp::cpu_cores(4));
  }
  spec.strategy_factory = system.strategy_factory;
  WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * capacity;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

/// A churn schedule shared by the determinism tests: 6 slots, 4 live at
/// t=0, two staggered joins, one leave.
ClusterSpec churn_spec(double duration) {
  ClusterSpec spec = spec_for(6, duration);
  ElasticSpec elastic;
  elastic.initial_workers = 4;
  elastic.schedule.join(4, 20.0).join(5, 30.0).leave(2, 50.0);
  spec.elastic = std::move(elastic);
  return spec;
}

/// Everything a churn run produces that the determinism contract covers:
/// per-worker progress, the exact final weights, the accuracy curve,
/// fabric tallies, membership stats, and the metrics-registry export.
struct ChurnOut {
  std::vector<std::uint64_t> iterations;
  std::vector<std::vector<float>> weights;  // per worker, flattened
  std::vector<sim::TracePoint> curve;
  std::uint64_t total_iterations = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t stale_rejected = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t epoch = 0;
  std::size_t final_members = 0;
  std::string metrics_json;
};

ChurnOut run_churn(obs::Observability* o,
                   ClusterSpec spec = churn_spec(90.0)) {
  const data::TrainTest data = blobs_data();
  spec.obs = o;
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  ChurnOut out;
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
  out.total_iterations = cluster.total_iterations();
  out.dead_letters = cluster.fabric().dead_letters();
  out.stale_rejected = cluster.fabric().stale_epoch_rejected();
  const ElasticStats stats = cluster.membership()->stats();
  out.joins = stats.joins;
  out.leaves = stats.leaves;
  out.epoch = stats.epoch;
  out.final_members = stats.final_members;
  if (o != nullptr) out.metrics_json = o->metrics().to_json();
  return out;
}

void expect_identical(const ChurnOut& a, const ChurnOut& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t w = 0; w < a.weights.size(); ++w) {
    // Exact float equality: the contract is bit-identical, not close.
    EXPECT_EQ(a.weights[w], b.weights[w]) << "worker " << w;
  }
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].time, b.curve[i].time);
    EXPECT_DOUBLE_EQ(a.curve[i].value, b.curve[i].value);
  }
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.dead_letters, b.dead_letters);
  EXPECT_EQ(a.stale_rejected, b.stale_rejected);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.final_members, b.final_members);
}

TEST(ElasticMembership, ChurnIsDeterministicAcrossThreadCounts) {
  // Same seed + same churn schedule => byte-identical telemetry and final
  // weights whether the thread pool runs 1 or 4 workers.
  common::ThreadPool::reset_global_for_testing(1);
  obs::Observability obs1;
  const ChurnOut single = run_churn(&obs1);

  common::ThreadPool::reset_global_for_testing(4);
  obs::Observability obs4;
  const ChurnOut pooled = run_churn(&obs4);

  common::ThreadPool::reset_global_for_testing(0);  // restore default

  expect_identical(single, pooled);
  EXPECT_EQ(single.metrics_json, pooled.metrics_json);
  EXPECT_EQ(single.joins, 2u);
  EXPECT_EQ(single.leaves, 1u);
}

TEST(ElasticMembership, ObserverDoesNotPerturbChurnRuns) {
  obs::Observability o;
  const ChurnOut on = run_churn(&o);
  const ChurnOut off = run_churn(nullptr);
  expect_identical(on, off);
}

TEST(ElasticMembership, ChurnReplaysBitIdentically) {
  const ChurnOut a = run_churn(nullptr);
  const ChurnOut b = run_churn(nullptr);
  expect_identical(a, b);
}

TEST(ElasticMembership, JoinerBootstrapsFromMultiplePeers) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(5, 90.0);
  ElasticSpec elastic;
  elastic.initial_workers = 3;
  elastic.schedule.join(3, 20.0).join(4, 35.0);
  spec.elastic = std::move(elastic);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  for (std::size_t joiner : {3u, 4u}) {
    const Worker& w = cluster.worker(joiner);
    EXPECT_FALSE(w.dormant()) << "worker " << joiner;
    EXPECT_FALSE(w.bootstrapping()) << "worker " << joiner;
    EXPECT_GE(w.bootstrap_donor_count(), 2u) << "worker " << joiner;
    EXPECT_GT(w.bootstrap_bytes(), 0u) << "worker " << joiner;
    EXPECT_GE(w.bootstrap_complete_time(), 20.0) << "worker " << joiner;
    EXPECT_GT(w.iterations(), 0u) << "worker " << joiner;
  }

  const ElasticStats stats = cluster.membership()->stats();
  EXPECT_EQ(stats.joins, 2u);
  EXPECT_EQ(stats.final_members, 5u);
  ASSERT_EQ(stats.join_log.size(), 2u);
  for (const JoinRecord& rec : stats.join_log) {
    EXPECT_GE(rec.donors, 2u) << "worker " << rec.worker;
    EXPECT_GT(rec.bootstrap_bytes, 0u) << "worker " << rec.worker;
    EXPECT_GE(rec.completed, rec.requested) << "worker " << rec.worker;
  }

  // Every live worker converged on the controller's roster.
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    EXPECT_EQ(cluster.worker(w).roster().epoch(),
              cluster.membership()->epoch())
        << "worker " << w;
    EXPECT_EQ(cluster.worker(w).roster().member_count(), 5u) << "worker " << w;
  }
}

TEST(ElasticMembership, ScaleInWithoutAccuracyCliff) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(8, 120.0);
  ElasticSpec elastic;
  elastic.initial_workers = 8;
  elastic.schedule.scale_in(4, 4, 50.0, 2.0);
  spec.elastic = std::move(elastic);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  const ElasticStats stats = cluster.membership()->stats();
  EXPECT_EQ(stats.leaves, 4u);
  EXPECT_EQ(stats.final_members, 4u);
  for (std::size_t w : {4u, 5u, 6u, 7u}) {
    EXPECT_TRUE(cluster.worker(w).dormant()) << "worker " << w;
  }
  // Survivors keep a consistent, renormalized roster...
  for (std::size_t w : {0u, 1u, 2u, 3u}) {
    EXPECT_FALSE(cluster.worker(w).dormant()) << "worker " << w;
    EXPECT_EQ(cluster.worker(w).roster().member_count(), 4u) << "worker " << w;
    EXPECT_GT(cluster.worker(w).iterations(), 50u) << "worker " << w;
  }
  // ...and the halved cluster still learns the task (no accuracy cliff).
  EXPECT_GT(cluster.mean_accuracy(), 0.8);
}

TEST(ElasticMembership, DisabledElasticMatchesLegacyRunExactly) {
  // elastic = nullopt and elastic with every slot live from t=0 and no
  // schedule must produce bit-identical runs: the epoch stamps are
  // transport-level and the roster never changes.
  const data::TrainTest data = blobs_data();
  ClusterSpec legacy = spec_for(4, 60.0);
  ClusterSpec noop = legacy;
  noop.elastic = ElasticSpec{};  // all slots live, empty schedule

  Cluster a(legacy, data.train, data.test);
  Cluster b(noop, data.train, data.test);
  a.run();
  b.run();

  EXPECT_EQ(a.membership(), nullptr);
  ASSERT_NE(b.membership(), nullptr);
  EXPECT_EQ(b.membership()->stats().epoch, 0u);
  EXPECT_EQ(a.total_iterations(), b.total_iterations());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a.worker(w).iterations(), b.worker(w).iterations());
    const nn::Snapshot sa = a.worker(w).model().weights();
    const nn::Snapshot sb = b.worker(w).model().weights();
    ASSERT_EQ(sa.values.size(), sb.values.size());
    for (std::size_t t = 0; t < sa.values.size(); ++t) {
      ASSERT_EQ(sa.values[t].size(), sb.values[t].size());
      for (std::size_t i = 0; i < sa.values[t].size(); ++i) {
        EXPECT_EQ(sa.values[t].data()[i], sb.values[t].data()[i]);
      }
    }
  }
}

TEST(ElasticMembership, FixedLbsJoinerRecordsLbsCounterAtJoin) {
  // A fixed-LBS joiner charts its LBS on its worker track at join time,
  // exactly as a worker starting at t=0 does.
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(4, 40.0, "baseline");
  ASSERT_FALSE(spec.worker_options.dynamic_batching);
  ElasticSpec elastic;
  elastic.initial_workers = 3;
  elastic.schedule.join(3, 20.0);
  spec.elastic = std::move(elastic);
  obs::Observability o;
  spec.obs = &o;
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  const obs::TrackId joiner =
      o.tracer().track("workers", obs::worker_track(3));
  std::size_t at_join = 0;
  for (const obs::Tracer::Sample& c : o.tracer().samples()) {
    if (c.track != joiner || c.name != "lbs") continue;
    EXPECT_EQ(c.t, 20.0);
    EXPECT_EQ(c.value, 16.0);  // fixed_lbs
    ++at_join;
  }
  EXPECT_EQ(at_join, 1u);
}

/// Fault tolerance and elastic membership together. A partition between
/// workers 0 and 3 makes each suspect the other; worker 2 leaves while
/// those suspicions stand; worker 3 then leaves (its farewell to worker 0
/// is lost in the partition) and rejoins after the partition heals.
ClusterSpec suspect_leave_rejoin_spec() {
  ClusterSpec spec = spec_for(4, 80.0);
  spec.faults.partition({0}, {3}, 10.0, 30.0);
  ElasticSpec elastic;
  elastic.schedule.leave(2, 20.0).leave(3, 26.0).join(3, 40.0);
  spec.elastic = std::move(elastic);
  return spec;
}

TEST(ElasticMembership, SuspectedMemberWhoLeavesAndRejoinsIsLiveEverywhere) {
  const data::TrainTest data = blobs_data();
  Cluster cluster(suspect_leave_rejoin_spec(), data.train, data.test);
  // Before the next suspicion sweep (t=22), workers 0 and 3 have adopted
  // worker 2's leave and still suspect each other: a member who stays
  // keeps its exclusion bit, and the leaver is excluded.
  cluster.run_until(21.0);
  for (const auto& [self, peer] : {std::pair{0u, 3u}, std::pair{3u, 0u}}) {
    const Worker& w = cluster.worker(self);
    ASSERT_EQ(w.roster().epoch(), 1u) << "worker " << self;
    EXPECT_TRUE(w.excluded_peers()[peer]) << "worker " << self;
    EXPECT_TRUE(w.excluded_peers()[2]) << "worker " << self;
    EXPECT_EQ(w.live_worker_count(), 2u) << "worker " << self;
  }

  cluster.run();
  EXPECT_EQ(cluster.membership()->stats().joins, 1u);
  EXPECT_EQ(cluster.membership()->stats().leaves, 2u);
  EXPECT_TRUE(cluster.worker(2).dormant());
  // The rejoiner dropped its old suspicion of worker 0, so it bootstrapped
  // from both live donors.
  EXPECT_GE(cluster.worker(3).bootstrap_donor_count(), 2u);
  EXPECT_GT(cluster.worker(3).iterations(), 0u);
  for (std::size_t w : {0u, 1u, 3u}) {
    const Worker& peer = cluster.worker(w);
    EXPECT_FALSE(peer.dormant()) << "worker " << w;
    for (std::size_t live : {0u, 1u, 3u}) {
      EXPECT_FALSE(peer.excluded_peers()[live]) << w << " excludes " << live;
    }
    EXPECT_TRUE(peer.excluded_peers()[2]) << "worker " << w;
    EXPECT_EQ(peer.live_worker_count(), 3u) << "worker " << w;
  }
}

TEST(ElasticMembership, SuspectLeaveRejoinReplaysBitIdentically) {
  const ChurnOut a = run_churn(nullptr, suspect_leave_rejoin_spec());
  const ChurnOut b = run_churn(nullptr, suspect_leave_rejoin_spec());
  expect_identical(a, b);
  EXPECT_EQ(a.leaves, 2u);
  EXPECT_EQ(a.joins, 1u);
}

// The elastic scenario family as bench/fault_tolerance runs it with
// --duration=60 --phase=20: dlion on the cipher workload, default watchdog.
TEST(ElasticMembership, ScenariosKeepTheirMembershipInvariants) {
  exp::Scale scale;
  scale.duration_s = 60.0;
  scale.dynamic_phase_s = 20.0;
  const exp::Workload workload = exp::make_workload("cpu", scale);
  for (const std::string& kind : exp::elastic_environment_names()) {
    SCOPED_TRACE(kind);
    exp::RunSpec spec;
    spec.system = "dlion";
    spec.environment = kind;
    spec.duration_s = scale.duration_s;
    spec.eval_period_iters = scale.eval_period_iters;
    spec.dkt_period_iters = scale.dkt_period_iters;
    spec.env_override =
        exp::make_elastic_environment(kind, scale.dynamic_phase_s);
    spec.watchdog = obs::WatchdogConfig{};
    const exp::RunResult res = exp::run_experiment(spec, workload);
    EXPECT_EQ(res.roster_epoch, res.joins + res.leaves);
    if (kind == "flash-crowd") {
      EXPECT_GT(res.joins, 0u);
      EXPECT_GT(res.leaves, 0u) << "flash-crowd never scaled back in";
      EXPECT_GE(res.min_bootstrap_donors, 2u);
      EXPECT_EQ(std::count_if(res.join_log.begin(), res.join_log.end(),
                              [](const JoinRecord& rec) {
                                return rec.donors < 2;
                              }),
                0)
          << "joins that bootstrapped from fewer than 2 peers";
    } else if (kind == "scale-in") {
      EXPECT_GT(res.leaves, 0u);
      EXPECT_FALSE(res.telemetry.watchdog_degraded);
    }
  }
}

// --- Unit tests for the pure protocol pieces. ----------------------------

TEST(PlanBootstrap, SplitsVariablesDisjointlyAcrossDonors) {
  const std::vector<std::size_t> donors = {0, 2, 5};
  const auto ranges = plan_bootstrap(7, donors, 2);
  ASSERT_EQ(ranges.size(), 2u);  // fanout caps the donor count
  EXPECT_EQ(ranges[0].donor, 0u);
  EXPECT_EQ(ranges[1].donor, 2u);
  // Contiguous, disjoint, covering [0, 7), remainder on the first range.
  EXPECT_EQ(ranges[0].first_var, 0u);
  EXPECT_EQ(ranges[0].var_count, 4u);
  EXPECT_EQ(ranges[1].first_var, 4u);
  EXPECT_EQ(ranges[1].var_count, 3u);
}

TEST(PlanBootstrap, UsesAtLeastTwoDonorsWheneverPossible) {
  for (std::size_t num_vars = 2; num_vars <= 9; ++num_vars) {
    const auto ranges = plan_bootstrap(num_vars, {1, 3, 4}, 3);
    EXPECT_GE(ranges.size(), 2u) << num_vars << " vars";
    std::uint32_t next = 0;
    std::size_t total = 0;
    for (const BootstrapRange& r : ranges) {
      EXPECT_EQ(r.first_var, next);
      EXPECT_GT(r.var_count, 0u);
      next += r.var_count;
      total += r.var_count;
    }
    EXPECT_EQ(total, num_vars);
  }
}

TEST(PlanBootstrap, DegeneratesGracefully) {
  // One variable: a single range even with many donors.
  EXPECT_EQ(plan_bootstrap(1, {0, 1, 2}, 3).size(), 1u);
  // One donor: the whole model from that donor.
  const auto solo = plan_bootstrap(5, {7}, 2);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].donor, 7u);
  EXPECT_EQ(solo[0].var_count, 5u);
  // Zero variables: nothing to transfer.
  EXPECT_TRUE(plan_bootstrap(0, {0, 1}, 2).empty());
  // No donors: a protocol error.
  EXPECT_THROW(plan_bootstrap(5, {}, 2), std::invalid_argument);
}

TEST(AllocateLbsLive, RenormalizesGbsOverLiveSetExactly) {
  const std::vector<double> rcps = {1.0, 2.0, 3.0, 4.0};
  const std::vector<bool> live = {true, false, true, true};
  const auto lbs = allocate_lbs_live(64, rcps, live);
  ASSERT_EQ(lbs.size(), 4u);
  EXPECT_EQ(lbs[1], 0u);  // dormant slot holds zero batch
  EXPECT_EQ(std::accumulate(lbs.begin(), lbs.end(), std::size_t{0}), 64u);
  // Live shares follow the RCP ratios over the live set only.
  EXPECT_GT(lbs[3], lbs[2]);
  EXPECT_GT(lbs[2], lbs[0]);
}

TEST(AllocateLbsLive, AllLiveMatchesPlainAllocation) {
  const std::vector<double> rcps = {3.0, 1.0, 2.0};
  const std::vector<bool> live(3, true);
  EXPECT_EQ(allocate_lbs_live(48, rcps, live), allocate_lbs(48, rcps));
}

TEST(AllocateLbsLive, RejectsEmptyLiveSetAndSizeMismatch) {
  const std::vector<double> rcps = {1.0, 1.0};
  EXPECT_THROW(allocate_lbs_live(16, rcps, {false, false}),
               std::invalid_argument);
  EXPECT_THROW(allocate_lbs_live(16, rcps, {true}), std::invalid_argument);
}

TEST(RosterViewTest, AdoptsOnlyStrictlyNewerEpochs) {
  RosterView view(4);  // legacy all-member roster at epoch 0
  EXPECT_EQ(view.member_count(), 4u);

  // Stale and duplicate epochs are ignored deterministically.
  EXPECT_FALSE(view.adopt(0, {true, false, true, false}));
  EXPECT_EQ(view.member_count(), 4u);

  EXPECT_TRUE(view.adopt(3, {true, false, true, false}));
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(view.member_count(), 2u);
  EXPECT_EQ(view.member_ids(), (std::vector<std::size_t>{0, 2}));

  // An older update arriving late (reordered broadcast) must not win.
  EXPECT_FALSE(view.adopt(2, {true, true, true, true}));
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(view.member_count(), 2u);
}

}  // namespace
}  // namespace dlion::core
