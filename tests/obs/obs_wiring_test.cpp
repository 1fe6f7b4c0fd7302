// End-to-end observability wiring tests: a tiny 2-worker cluster run with
// an observer attached must (a) produce bit-identical training results to
// the uninstrumented run, (b) mirror the legacy ad-hoc counters
// (sim::NetworkStats, comm::Fabric tallies) in the MetricsRegistry, and
// (c) export Chrome trace-event JSON that parses and follows the schema.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "exp/experiment.h"
#include "obs/json_lite.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
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

struct RunOut {
  sim::Trace curve{"mean"};
  std::uint64_t iterations = 0;
  common::Bytes bytes = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t reliable_retries = 0;
};

RunOut run_cluster(obs::Observability* o) {
  const data::TrainTest data = blobs_data();
  core::ClusterSpec spec = tiny_spec(2, 60.0);
  spec.obs = o;
  core::Cluster cluster(spec, data.train, data.test);
  cluster.run();
  RunOut out;
  out.curve = cluster.mean_accuracy_trace();
  out.iterations = cluster.total_iterations();
  out.bytes = cluster.total_bytes_sent();
  out.messages_sent = cluster.network().total_stats().messages_sent;
  out.messages_dropped = cluster.network().total_stats().messages_dropped;
  out.dead_letters = cluster.fabric().dead_letters();
  out.reliable_retries = cluster.fabric().reliable_retries();
  return out;
}

TEST(ObsWiring, AttachedObserverDoesNotPerturbTheRun) {
  const RunOut off = run_cluster(nullptr);
  obs::Observability o;
  const RunOut on = run_cluster(&o);

  EXPECT_EQ(off.iterations, on.iterations);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.messages_sent, on.messages_sent);
  const auto& pa = off.curve.points();
  const auto& pb = on.curve.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i].time, pb[i].time);
    EXPECT_DOUBLE_EQ(pa[i].value, pb[i].value);
  }
  EXPECT_GT(o.tracer().event_count(), 0u);
  EXPECT_GT(o.metrics().size(), 0u);
}

TEST(ObsWiring, RegistryMirrorsLegacyCounters) {
  obs::Observability o;
  const RunOut res = run_cluster(&o);
  const obs::MetricsRegistry& m = o.metrics();

  EXPECT_DOUBLE_EQ(m.counter_total("sim.net.messages_sent"),
                   static_cast<double>(res.messages_sent));
  EXPECT_DOUBLE_EQ(m.counter_total("sim.net.bytes_sent"),
                   static_cast<double>(res.bytes));
  EXPECT_DOUBLE_EQ(m.counter_total("sim.net.messages_dropped"),
                   static_cast<double>(res.messages_dropped));
  EXPECT_DOUBLE_EQ(m.counter_total("comm.fabric.dead_letters"),
                   static_cast<double>(res.dead_letters));
  EXPECT_DOUBLE_EQ(m.counter_total("comm.fabric.reliable_retries"),
                   static_cast<double>(res.reliable_retries));
  EXPECT_DOUBLE_EQ(m.counter_total("core.iterations"),
                   static_cast<double>(res.iterations));
  EXPECT_GT(m.counter_total("sim.events_executed"), 0.0);
  // Message-type breakdown sums to the total sent.
  EXPECT_DOUBLE_EQ(m.counter_total("comm.fabric.sent"),
                   static_cast<double>(res.messages_sent));
}

TEST(ObsWiring, TelemetrySummaryIsPopulated) {
  obs::Observability o;
  run_cluster(&o);
  const obs::RunTelemetry t = obs::summarize(o);
  EXPECT_TRUE(t.collected);
  EXPECT_GT(t.span_count, 0u);
  EXPECT_GT(t.compute_seconds, 0.0);
  EXPECT_GT(t.net_tx_seconds, 0.0);
  EXPECT_GT(t.events_executed, 0.0);
  EXPECT_GT(t.messages_sent, 0.0);
  EXPECT_FALSE(t.phases.empty());
  // Phases sorted by total time descending.
  for (std::size_t i = 1; i < t.phases.size(); ++i) {
    EXPECT_GE(t.phases[i - 1].total_s, t.phases[i].total_s);
  }
  EXPECT_FALSE(std::isnan(t.tx_p50_s));
  EXPECT_LE(t.tx_p50_s, t.tx_p99_s);
  // to_json emits one self-contained object.
  const std::string j = t.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"compute_seconds\""), std::string::npos);
}

TEST(ObsWiring, RunExperimentCollectsTelemetry) {
  exp::Scale scale;  // bench defaults
  scale.duration_s = 40.0;
  const exp::Workload workload = exp::make_workload("cpu", scale);
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.environment = "Homo A";
  spec.duration_s = scale.duration_s;
  spec.eval_period_iters = scale.eval_period_iters;
  spec.dkt_period_iters = scale.dkt_period_iters;

  exp::RunResult plain = exp::run_experiment(spec, workload);
  EXPECT_FALSE(plain.telemetry.collected);

  obs::Observability o;
  spec.obs = &o;
  exp::RunResult inst = exp::run_experiment(spec, workload);
  EXPECT_TRUE(inst.telemetry.collected);
  EXPECT_GT(inst.telemetry.compute_seconds, 0.0);
  // Instrumentation must not change the simulation.
  EXPECT_EQ(plain.total_iterations, inst.total_iterations);
  EXPECT_EQ(plain.total_bytes, inst.total_bytes);
  EXPECT_DOUBLE_EQ(plain.final_accuracy, inst.final_accuracy);
}

// ------------------------------------------------------- JSON schema check

using obs::jsonlite::Json;
using obs::jsonlite::JsonParser;

TEST(ObsWiring, ChromeTraceJsonFollowsSchema) {
  obs::Observability o;
  run_cluster(&o);
  ASSERT_GT(o.tracer().event_count(), 0u);

  Json doc;
  ASSERT_TRUE(JsonParser(o.tracer().chrome_json()).parse(doc))
      << "chrome_json is not valid JSON";
  ASSERT_EQ(doc.kind, Json::kObject);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::kArray);
  ASSERT_FALSE(events->array.empty());

  std::set<std::string> phases;
  std::set<std::pair<double, double>> named_threads;
  for (const Json& e : events->array) {
    ASSERT_EQ(e.kind, Json::kObject);
    const Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, Json::kString);
    phases.insert(ph->str);

    // Every event carries pid/tid numbers and a name string.
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    const Json* name = e.find("name");
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(pid->kind, Json::kNumber);
    EXPECT_EQ(tid->kind, Json::kNumber);
    EXPECT_EQ(name->kind, Json::kString);

    if (ph->str == "M") {
      ASSERT_TRUE(name->str == "process_name" || name->str == "thread_name");
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("name"), nullptr);
      if (name->str == "thread_name") {
        named_threads.insert({pid->number, tid->number});
      }
      continue;
    }
    // Non-metadata events: ts required, on a thread that was named.
    const Json* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->kind, Json::kNumber);
    EXPECT_GE(ts->number, 0.0);
    EXPECT_TRUE(named_threads.count({pid->number, tid->number}))
        << "event on unnamed track pid=" << pid->number
        << " tid=" << tid->number;
    if (ph->str == "X") {
      const Json* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    } else if (ph->str == "i") {
      const Json* scope = e.find("s");
      ASSERT_NE(scope, nullptr);
      EXPECT_EQ(scope->str, "t");
    } else if (ph->str == "C") {
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->find("value"), nullptr);
    } else if (ph->str == "s" || ph->str == "t" || ph->str == "f") {
      // Flow events: cat "flow", a non-empty hex id, and binding point
      // "e" (enclosing slice) on the terminating event.
      const Json* cat = e.find("cat");
      ASSERT_NE(cat, nullptr);
      EXPECT_EQ(cat->str, "flow");
      const Json* id = e.find("id");
      ASSERT_NE(id, nullptr);
      ASSERT_EQ(id->kind, Json::kString);
      EXPECT_FALSE(id->str.empty());
      if (ph->str == "f") {
        const Json* bp = e.find("bp");
        ASSERT_NE(bp, nullptr);
        EXPECT_EQ(bp->str, "e");
      }
    } else {
      FAIL() << "unexpected event phase '" << ph->str << "'";
    }
  }
  // A real run records metadata, spans, instants, counters, and (with
  // causal tracing on by default) flow arrows.
  EXPECT_TRUE(phases.count("M"));
  EXPECT_TRUE(phases.count("X"));
  EXPECT_TRUE(phases.count("C"));
  EXPECT_TRUE(phases.count("s"));
  EXPECT_TRUE(phases.count("t"));
  EXPECT_TRUE(phases.count("f"));

  // Metrics export parses as JSON too.
  Json metrics;
  ASSERT_TRUE(JsonParser(o.metrics().to_json()).parse(metrics));
  const Json* rows = metrics.find("metrics");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->kind, Json::kArray);
  EXPECT_FALSE(rows->array.empty());

  // Telemetry export parses as JSON.
  Json tel;
  ASSERT_TRUE(JsonParser(obs::summarize(o).to_json()).parse(tel));
  EXPECT_NE(tel.find("compute_seconds"), nullptr);
}

}  // namespace
}  // namespace dlion
