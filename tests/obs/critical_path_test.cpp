// Critical-path analyzer tests: hand-built toy span/flow DAGs whose exact
// path, segments, attribution, and epoch windows are known in advance, plus
// integration runs where the configured straggler / slow link must be the
// one the report names.
#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "exp/environments.h"
#include "exp/experiment.h"
#include "obs/json_lite.h"
#include "obs/obs.h"
#include "obs/tracer.h"
#include "obs/track_names.h"
#include "sim/network.h"
#include "sim/resource_schedule.h"

namespace dlion {
namespace {

using obs::PathCategory;

double cat_s(const obs::CriticalPathReport& r, PathCategory c) {
  return r.category_seconds[static_cast<std::size_t>(c)];
}

// One send crossing a busy link: the walk must reconstruct
//   w0.compute -> (queue) -> link tx -> (latency) -> w1.apply -> w1.compute
// and the category totals are exact.
TEST(CriticalPath, ToyDagReproducesKnownPath) {
  obs::Tracer tr;
  const obs::TrackId w0 = tr.track("workers", "worker 0");
  const obs::TrackId w1 = tr.track("workers", "worker 1");
  const obs::TrackId link = tr.track("network", "link 0->1");

  const std::uint64_t id = (1ull << 40) | 1ull;
  tr.complete(w0, "compute", 0.0, 2.0);
  tr.flow(w0, obs::Tracer::FlowPhase::kStart, "GradientUpdate", 2.0, id);
  // Link is busy until 2.5: the message queues for 0.5 s, transmits for
  // 1.5 s, then takes 0.5 s propagation latency to the delivery point.
  tr.flow(link, obs::Tracer::FlowPhase::kStep, "GradientUpdate", 2.5, id);
  tr.complete(link, "tx", 2.5, 4.0);
  tr.flow(w1, obs::Tracer::FlowPhase::kEnd, "GradientUpdate", 4.5, id);
  tr.complete(w1, "apply", 4.5, 4.5);
  tr.complete(w1, "compute", 4.5, 6.0);

  const obs::CriticalPathReport r =
      obs::compute_critical_path(tr, {/*epoch_seconds=*/2.0});
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.t_start, 0.0);
  EXPECT_DOUBLE_EQ(r.t_end, 6.0);
  EXPECT_DOUBLE_EQ(r.total_seconds(), 6.0);

  // Exact category split: compute 2.0 + 1.5, transfer 1.5 + 0.5 latency,
  // queue 0.5, nothing stalled, no DKT.
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kCompute), 3.5);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kTransfer), 2.0);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kQueue), 0.5);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kStall), 0.0);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kDkt), 0.0);

  // Segments are chronological and tile [0, 6] exactly.
  ASSERT_EQ(r.segments.size(), 5u);
  EXPECT_EQ(r.segments[0].span_name, "compute");
  EXPECT_EQ(r.segments[0].lane, "worker 0");
  EXPECT_EQ(r.segments[1].span_name, "(queue)");
  EXPECT_EQ(r.segments[1].lane, "link 0->1");
  EXPECT_EQ(r.segments[2].span_name, "tx");
  EXPECT_EQ(r.segments[3].span_name, "(latency)");
  EXPECT_EQ(r.segments[3].category, PathCategory::kTransfer);
  EXPECT_EQ(r.segments[4].span_name, "compute");
  EXPECT_EQ(r.segments[4].lane, "worker 1");
  double prev = r.t_start;
  for (const obs::PathSegment& s : r.segments) {
    EXPECT_DOUBLE_EQ(s.t0, prev);
    prev = s.t1;
  }
  EXPECT_DOUBLE_EQ(prev, r.t_end);

  // Worker 0 carried 2.0 s of on-path compute vs worker 1's 1.5 s.
  EXPECT_EQ(r.straggler, "worker 0");
  EXPECT_EQ(r.bottleneck_link, "link 0->1");

  // Epoch windows [0,2) [2,4) [4,6): each is fully covered and its five
  // fractions sum to exactly 1.
  ASSERT_EQ(r.epochs.size(), 3u);
  EXPECT_DOUBLE_EQ(r.epochs[0].fraction(PathCategory::kCompute), 1.0);
  EXPECT_DOUBLE_EQ(r.epochs[1].seconds[1], 1.5);  // transfer
  EXPECT_DOUBLE_EQ(r.epochs[1].seconds[2], 0.5);  // queue
  EXPECT_DOUBLE_EQ(r.epochs[2].seconds[0], 1.5);  // compute
  EXPECT_DOUBLE_EQ(r.epochs[2].seconds[1], 0.5);  // latency -> transfer
  for (const obs::EpochWindow& w : r.epochs) {
    double f = 0.0;
    for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
      f += w.fraction(static_cast<PathCategory>(c));
    }
    EXPECT_NEAR(f, 1.0, 1e-9);
  }
}

// A stall that a delivery released must be charged to the transfer that
// released it, not to the waiting itself.
TEST(CriticalPath, StallReleasedByTransferChargesTheTransfer) {
  obs::Tracer tr;
  const obs::TrackId w0 = tr.track("workers", "worker 0");
  const obs::TrackId w1 = tr.track("workers", "worker 1");
  const obs::TrackId link = tr.track("network", "link 0->1");

  const std::uint64_t id = (1ull << 40) | 1ull;
  tr.complete(w1, "compute", 0.0, 1.0);
  tr.complete(w1, "stall", 1.0, 3.0);  // waiting for worker 0's gradient
  tr.complete(w0, "compute", 0.0, 1.2);
  tr.flow(w0, obs::Tracer::FlowPhase::kStart, "GradientUpdate", 1.2, id);
  tr.flow(link, obs::Tracer::FlowPhase::kStep, "GradientUpdate", 1.2, id);
  tr.complete(link, "tx", 1.2, 2.8);
  tr.flow(w1, obs::Tracer::FlowPhase::kEnd, "GradientUpdate", 3.0, id);
  tr.complete(w1, "apply", 3.0, 3.0);
  tr.complete(w1, "compute", 3.0, 5.0);

  const obs::CriticalPathReport r = obs::compute_critical_path(tr);
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.total_seconds(), 5.0);
  // compute 1.2 + 2.0, transfer 1.6 + 0.2 latency; the 2 s stall never
  // lands on the path because the tx explains the wait.
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kCompute), 3.2);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kTransfer), 1.8);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kStall), 0.0);
  EXPECT_EQ(r.bottleneck_link, "link 0->1");
}

// Without a causal explanation the stall itself is on the path.
TEST(CriticalPath, UnexplainedStallStaysOnPath) {
  obs::Tracer tr;
  const obs::TrackId w0 = tr.track("workers", "worker 0");
  tr.complete(w0, "compute", 0.0, 1.0);
  tr.complete(w0, "stall", 1.0, 2.0);
  tr.complete(w0, "compute", 2.0, 4.0);

  const obs::CriticalPathReport r = obs::compute_critical_path(tr);
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.total_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(cat_s(r, PathCategory::kStall), 1.0);
  EXPECT_DOUBLE_EQ(r.category_fraction(PathCategory::kStall), 0.25);
  EXPECT_EQ(r.straggler, "worker 0");
  EXPECT_TRUE(r.bottleneck_link.empty());
}

TEST(CriticalPath, EmptyTracerYieldsInvalidReport) {
  obs::Tracer tr;
  const obs::CriticalPathReport r = obs::compute_critical_path(tr);
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(r.segments.empty());
  EXPECT_NE(r.attribution_table().find("no spans"), std::string::npos);
}

TEST(CriticalPath, ReportJsonParsesAndMatchesTotals) {
  obs::Tracer tr;
  const obs::TrackId w0 = tr.track("workers", "worker 0");
  tr.complete(w0, "compute", 0.0, 1.0);
  tr.complete(w0, "stall", 1.0, 2.0);
  tr.complete(w0, "compute", 2.0, 4.0);
  const obs::CriticalPathReport r =
      obs::compute_critical_path(tr, {/*epoch_seconds=*/2.0});

  obs::jsonlite::Json doc;
  ASSERT_TRUE(obs::jsonlite::JsonParser(r.to_json()).parse(doc));
  ASSERT_EQ(doc.kind, obs::jsonlite::Json::kObject);
  EXPECT_TRUE(doc.find("valid")->boolean);
  EXPECT_DOUBLE_EQ(doc.find("total_seconds")->number, 4.0);
  const obs::jsonlite::Json* cats = doc.find("categories");
  ASSERT_NE(cats, nullptr);
  EXPECT_DOUBLE_EQ(cats->find("compute")->find("seconds")->number, 3.0);
  EXPECT_DOUBLE_EQ(cats->find("stall")->find("fraction")->number, 0.25);
  const obs::jsonlite::Json* epochs = doc.find("epochs");
  ASSERT_NE(epochs, nullptr);
  ASSERT_EQ(epochs->array.size(), 2u);
  for (const obs::jsonlite::Json& w : epochs->array) {
    const obs::jsonlite::Json* fr = w.find("fractions");
    ASSERT_NE(fr, nullptr);
    double sum = 0.0;
    for (const char* name : {"compute", "transfer", "queue", "stall", "dkt"}) {
      sum += fr->find(name)->number;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // The table mentions the headline numbers.
  const std::string table = r.attribution_table();
  EXPECT_NE(table.find("critical path: 4.000 s"), std::string::npos);
  EXPECT_NE(table.find("worker 0"), std::string::npos);
}

// ---------------------------------------------------- integration checks

exp::RunResult run_env(const exp::Environment& env, obs::Observability* o,
                       double duration = 40.0) {
  exp::Scale scale;
  scale.duration_s = duration;
  const exp::Workload workload = exp::make_workload("cpu", scale);
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.duration_s = duration;
  spec.eval_period_iters = scale.eval_period_iters;
  spec.dkt_period_iters = scale.dkt_period_iters;
  spec.env_override = env;
  spec.obs = o;
  return exp::run_experiment(spec, workload);
}

TEST(CriticalPath, HeteroComputeAttributionNamesTheStraggler) {
  exp::Environment env;
  env.name = "straggler-test";
  env.compute = {exp::cpu_cores(24.0), exp::cpu_cores(24.0),
                 exp::cpu_cores(4.0)};
  obs::Observability o;
  run_env(env, &o);
  const obs::CriticalPathReport r = obs::compute_critical_path(o.tracer());
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.straggler, obs::worker_track(2))
      << "6x-slower worker 2 should dominate the critical path";
  // The full-run fractions are self-consistent.
  double total = 0.0;
  for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
    total += r.category_seconds[c];
  }
  EXPECT_NEAR(total, r.total_seconds(), 1e-9);
}

TEST(CriticalPath, HeteroNetworkAttributionNamesTheSlowLink) {
  exp::Environment env;
  env.name = "slow-link-test";
  env.compute = {exp::cpu_cores(24.0), exp::cpu_cores(24.0),
                 exp::cpu_cores(24.0)};
  env.network_setup = [](sim::Network& net) {
    net.set_egress(0, sim::Schedule(100.0));
    net.set_egress(1, sim::Schedule(100.0));
    net.set_egress(2, sim::Schedule(4.0));  // worker 2 uploads at a crawl
  };
  obs::Observability o;
  run_env(env, &o);
  const obs::CriticalPathReport r = obs::compute_critical_path(o.tracer());
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.bottleneck_link.rfind("link " + obs::id_str(2) + "->", 0), 0u)
      << "got '" << r.bottleneck_link << "'";
}

TEST(CriticalPath, RealRunEpochFractionsSumToOne) {
  // A clean run, and the same environment with two staggered crashes and
  // recoveries inside the 40 s window.
  exp::ChurnSpec churn;
  churn.crash_start_s = 10.0;
  churn.downtime_s = 10.0;
  churn.stagger_s = 5.0;
  const exp::Environment envs[] = {
      exp::make_environment("Hetero CPU A", 20.0),
      exp::make_churn_environment("Hetero CPU A", churn, 20.0)};
  for (const exp::Environment& env : envs) {
    SCOPED_TRACE(env.name);
    obs::Observability o;
    run_env(env, &o);
    const obs::CriticalPathReport r =
        obs::compute_critical_path(o.tracer(), {/*epoch_seconds=*/10.0});
    ASSERT_TRUE(r.valid);
    ASSERT_FALSE(r.epochs.empty());
    for (const obs::EpochWindow& w : r.epochs) {
      if (w.total() == 0.0) continue;  // window fully off-path
      double f = 0.0;
      for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
        f += w.fraction(static_cast<PathCategory>(c));
      }
      EXPECT_NEAR(f, 1.0, 1e-9);
      // Windows are tiled by the path: per-window seconds equal the
      // window's on-path extent.
      EXPECT_LE(w.total(), (w.t1 - w.t0) + 1e-9);
    }
    // The categories cover the whole path.
    double total = 0.0;
    for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
      total += r.category_seconds[c];
    }
    EXPECT_NEAR(total, r.total_seconds(), 1e-6);
    // Segments tile the whole path contiguously.
    double prev = r.t_start;
    for (const obs::PathSegment& s : r.segments) {
      ASSERT_DOUBLE_EQ(s.t0, prev);
      prev = s.t1;
    }
    EXPECT_DOUBLE_EQ(prev, r.t_end);
  }
}

}  // namespace
}  // namespace dlion
