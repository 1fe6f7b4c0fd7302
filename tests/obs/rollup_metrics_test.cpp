// Windowed metric rollups (DESIGN.md, "Observability at scale"): windowed
// series aggregate observations into fixed time windows, and RollupConfig
// collapses per-worker label cardinality into per-micro-cloud groups.
// Snapshot schemas are versioned explicitly (JSON: dlion-metrics-v2, CSV
// header unchanged: dlion-metrics-csv-v1).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/track_names.h"

namespace dlion::obs {
namespace {

using jsonlite::Json;
using jsonlite::JsonParser;

// ------------------------------------------------------------------ Windowed

TEST(Windowed, AggregatesPerWindow) {
  Windowed w(10.0);
  w.observe(1.0, 2.0);
  w.observe(9.0, 4.0);
  w.observe(12.0, 8.0);
  w.observe(35.0, 1.0);  // window 3; window 2 stays absent (sparse)
  ASSERT_EQ(w.windows().size(), 3u);
  EXPECT_EQ(w.windows()[0].window, 0u);
  EXPECT_EQ(w.windows()[0].count, 2u);
  EXPECT_DOUBLE_EQ(w.windows()[0].sum, 6.0);
  EXPECT_DOUBLE_EQ(w.windows()[0].min, 2.0);
  EXPECT_DOUBLE_EQ(w.windows()[0].max, 4.0);
  EXPECT_EQ(w.windows()[1].window, 1u);
  EXPECT_EQ(w.windows()[2].window, 3u);
  EXPECT_EQ(w.count(), 4u);
  EXPECT_DOUBLE_EQ(w.sum(), 15.0);
  EXPECT_DOUBLE_EQ(w.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(w.observed_max(), 8.0);
}

TEST(Windowed, OutOfOrderObservationsLandInTheRightWindow) {
  Windowed w(10.0);
  w.observe(25.0, 1.0);
  w.observe(5.0, 2.0);   // earlier window, after the fact
  w.observe(25.5, 3.0);  // back to the latest
  ASSERT_EQ(w.windows().size(), 2u);
  EXPECT_EQ(w.windows()[0].window, 0u);
  EXPECT_EQ(w.windows()[0].count, 1u);
  EXPECT_EQ(w.windows()[1].window, 2u);
  EXPECT_EQ(w.windows()[1].count, 2u);
}

TEST(Windowed, NegativeTimesClampToWindowZero) {
  Windowed w(10.0);
  w.observe(-5.0, 1.0);
  ASSERT_EQ(w.windows().size(), 1u);
  EXPECT_EQ(w.windows()[0].window, 0u);
}

TEST(Windowed, EmptyExtremaAreNaN) {
  Windowed w(1.0);
  EXPECT_TRUE(std::isnan(w.observed_min()));
  EXPECT_TRUE(std::isnan(w.observed_max()));
}

// -------------------------------------------------------------- worker rollup

TEST(Rollup, WorkerLabelsCollapseIntoMicroCloudGroups) {
  MetricsRegistry m;
  m.set_rollup({4, 0.0});  // group every 4 workers into one micro-cloud
  for (int w = 0; w < 8; ++w) {
    m.counter("worker.iterations", {{"worker", id_str(w)}}).inc();
  }
  // 8 per-worker series became 2 per-micro-cloud series.
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.counter_total("worker.iterations"), 8.0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"mc\""), std::string::npos);
  EXPECT_EQ(json.find("\"worker\""), std::string::npos);
}

TEST(Rollup, NonWorkerLabelsPassThrough) {
  MetricsRegistry m;
  m.set_rollup({4, 0.0});
  m.counter("link.msgs", {{"link", "0000->0001"}}).inc();
  m.gauge("tier.depth", {{"tier", "serving"}}).set(1.0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"link\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\""), std::string::npos);
}

TEST(Rollup, UnconfiguredRegistryKeepsPerWorkerSeries) {
  MetricsRegistry m;
  for (int w = 0; w < 8; ++w) {
    m.counter("worker.iterations", {{"worker", id_str(w)}}).inc();
  }
  EXPECT_EQ(m.size(), 8u);
}

// ------------------------------------------------------------ export schemas

TEST(Schema, JsonSnapshotIsVersionedV2) {
  MetricsRegistry m;
  m.counter("c").inc();
  m.windowed("w", {}, 10.0).observe(1.0, 2.0);
  Json doc;
  ASSERT_TRUE(JsonParser(m.to_json()).parse(doc));
  const Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "dlion-metrics-v2");
  // The windowed series exports its windows with per-window stats.
  const Json* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  bool saw_windowed = false;
  for (const Json& metric : metrics->array) {
    const Json* type = metric.find("type");
    if (type != nullptr && type->str == "windowed") {
      saw_windowed = true;
      ASSERT_NE(metric.find("window_s"), nullptr);
      const Json* windows = metric.find("windows");
      ASSERT_NE(windows, nullptr);
      ASSERT_EQ(windows->array.size(), 1u);
      EXPECT_NE(windows->array[0].find("count"), nullptr);
    }
  }
  EXPECT_TRUE(saw_windowed);
}

TEST(Schema, CsvHeaderContractIsUnchanged) {
  MetricsRegistry m;
  m.counter("c").inc();
  m.windowed("w", {}, 10.0).observe(1.0, 2.0);
  const std::string csv = m.to_csv();
  // dlion-metrics-csv-v1: windowed rows reuse the count/sum/min/max
  // columns, so consumers of the v1 header keep parsing.
  EXPECT_EQ(csv.rfind("type,name,labels,value,count,sum,min,max,p50,p90,p99", 0),
            0u);
  EXPECT_NE(csv.find("windowed"), std::string::npos);
}

}  // namespace
}  // namespace dlion::obs
