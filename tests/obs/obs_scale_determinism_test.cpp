// Scale-mode observability determinism (ISSUE 9 acceptance): the *sampled*
// streamed trace must be byte-identical across thread-pool sizes — every
// sampling decision keys off track names and flow sequence numbers, never
// entropy or wall clocks — and attaching the streaming sink + sampler +
// window-only retention must not perturb training by a single bit.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/thread_pool.h"
#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "obs/obs.h"
#include "obs/trace_sink.h"
#include "systems/registry.h"

namespace dlion {
namespace {

data::TrainTest blobs_data() {
  return data::make_blobs(11, 16, 4, 1024, 256);
}

core::ClusterSpec tiny_spec(std::size_t n_workers, double duration) {
  const systems::SystemSpec system = systems::make_system("dlion");
  core::ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 7;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < n_workers; ++i) {
    spec.compute.push_back(exp::cpu_cores(4));
  }
  spec.strategy_factory = system.strategy_factory;
  core::WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * n_workers;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

obs::TraceSampleConfig scale_sampling(double duration) {
  obs::TraceSampleConfig cfg;
  cfg.track_stride = 2;
  cfg.head_events_per_track = 4;
  cfg.flow_stride = 2;
  cfg.full_t0 = 0.4 * duration;
  cfg.full_t1 = 0.6 * duration;
  return cfg;
}

struct ScaleRun {
  std::string sampled_trace;   // streamed Chrome JSON
  std::uint64_t admitted = 0;
  std::uint64_t sampled_out = 0;
  std::size_t retained_bytes = 0;
  std::string metrics_json;
  std::uint64_t iterations = 0;
  common::Bytes bytes = 0;
  double final_accuracy = 0.0;
};

ScaleRun run_sampled(double duration = 60.0) {
  const data::TrainTest data = blobs_data();
  core::ClusterSpec spec = tiny_spec(4, duration);
  auto o = std::make_unique<obs::Observability>();
  std::ostringstream stream;
  obs::ChromeStreamSink sink(stream);
  o->tracer().set_sink(&sink);
  o->tracer().set_sampling(scale_sampling(duration));
  o->tracer().set_retain_all(false);
  spec.obs = o.get();
  core::Cluster cluster(spec, data.train, data.test);
  cluster.run();
  o->tracer().finish();
  ScaleRun out;
  out.sampled_trace = stream.str();
  out.admitted = o->tracer().admitted_events();
  out.sampled_out = o->tracer().sampled_out_events();
  out.retained_bytes = o->tracer().retained_bytes();
  out.metrics_json = o->metrics().to_json();
  out.iterations = cluster.total_iterations();
  out.bytes = cluster.total_bytes_sent();
  out.final_accuracy = cluster.mean_accuracy();
  return out;
}

TEST(ObsScaleDeterminism, SampledTraceIsByteIdenticalAcrossThreadCounts) {
  common::ThreadPool::reset_global_for_testing(1);
  const ScaleRun single = run_sampled();

  common::ThreadPool::reset_global_for_testing(4);
  const ScaleRun pooled = run_sampled();

  common::ThreadPool::reset_global_for_testing(0);  // restore default

  EXPECT_EQ(single.sampled_trace, pooled.sampled_trace);
  EXPECT_EQ(single.admitted, pooled.admitted);
  EXPECT_EQ(single.sampled_out, pooled.sampled_out);
  EXPECT_EQ(single.retained_bytes, pooled.retained_bytes);
  EXPECT_EQ(single.metrics_json, pooled.metrics_json);
  EXPECT_EQ(single.iterations, pooled.iterations);
  EXPECT_EQ(single.final_accuracy, pooled.final_accuracy);
  // Sampling actually engaged (the comparison is about a *sampled* trace).
  EXPECT_GT(single.sampled_out, 0u);
  EXPECT_GT(single.admitted, 0u);
}

TEST(ObsScaleDeterminism, StreamingSinkDoesNotPerturbTraining) {
  const data::TrainTest data = blobs_data();

  core::ClusterSpec bare_spec = tiny_spec(4, 60.0);
  core::Cluster bare(bare_spec, data.train, data.test);
  bare.run();

  const ScaleRun instrumented = run_sampled();

  EXPECT_EQ(bare.total_iterations(), instrumented.iterations);
  EXPECT_EQ(bare.total_bytes_sent(), instrumented.bytes);
  EXPECT_EQ(bare.mean_accuracy(), instrumented.final_accuracy);
}

TEST(ObsScaleDeterminism, RetentionIsBoundedByTheWindow) {
  // Same run, full retention vs window-only retention: the windowed run
  // must stream the same admitted events while retaining far less.
  const data::TrainTest data = blobs_data();
  auto run = [&data](bool retain_all) {
    core::ClusterSpec spec = tiny_spec(4, 60.0);
    auto o = std::make_unique<obs::Observability>();
    o->tracer().set_sampling(scale_sampling(60.0));
    o->tracer().set_retain_all(retain_all);
    spec.obs = o.get();
    core::Cluster cluster(spec, data.train, data.test);
    cluster.run();
    return std::pair<std::uint64_t, std::size_t>(
        o->tracer().admitted_events(), o->tracer().retained_bytes());
  };
  const auto [full_admitted, full_bytes] = run(true);
  const auto [win_admitted, win_bytes] = run(false);
  EXPECT_EQ(full_admitted, win_admitted);
  EXPECT_GT(win_bytes, 0u);
  EXPECT_LT(win_bytes, full_bytes / 2);  // window is 20% of the run
}

}  // namespace
}  // namespace dlion
