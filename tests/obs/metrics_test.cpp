#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dlion::obs {
namespace {

// ------------------------------------------------------------------- labels

TEST(Labels, CanonicalFormSortsKeys) {
  EXPECT_EQ(canonical_labels({{"worker", "3"}, {"dir", "tx"}}),
            "dir=tx,worker=3");
  EXPECT_EQ(canonical_labels({}), "");
  EXPECT_EQ(canonical_labels({{"a", "1"}}), "a=1");
}

TEST(Labels, OrderInsensitiveSeriesIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.sent", {{"worker", "0"}, {"peer", "1"}});
  Counter& b = reg.counter("net.sent", {{"peer", "1"}, {"worker", "0"}});
  EXPECT_EQ(&a, &b) << "label order must not create a new series";
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Labels, DistinctLabelValuesAreDistinctSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.sent", {{"worker", "0"}});
  Counter& b = reg.counter("net.sent", {{"worker", "1"}});
  Counter& c = reg.counter("net.sent");  // label-free: yet another series
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(2.0);
  b.inc(3.0);
  c.inc(5.0);
  EXPECT_DOUBLE_EQ(reg.counter_total("net.sent"), 10.0);
  EXPECT_DOUBLE_EQ(reg.counter_total("absent"), 0.0);
}

TEST(Registry, HandlesAreStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("a");
  first.inc();
  // Registering many more series must not invalidate the cached handle.
  for (int i = 0; i < 100; ++i) {
    reg.counter("series" + std::to_string(i), {{"i", std::to_string(i)}});
  }
  first.inc();
  EXPECT_DOUBLE_EQ(reg.counter("a").value(), 2.0);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(Registry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("cluster.workers");
  g.set(6.0);
  EXPECT_DOUBLE_EQ(g.value(), 6.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("cluster.workers").value(), 4.0);
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, CountsSumAndExtremes) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.observed_min()));
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));

  h.observe(0.5);
  h.observe(3.0);
  h.observe(10.0);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.observed_min(), 0.5);
  EXPECT_DOUBLE_EQ(h.observed_max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, DefaultBoundsAreStrictlyIncreasing) {
  for (const auto& bounds : {Histogram::default_time_bounds(),
                             Histogram::default_size_bounds()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

/// Exact percentile of a sorted sample (nearest-rank).
double exact_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(std::ceil(q * static_cast<double>(v.size())),
                       static_cast<double>(v.size())));
  return v[idx == 0 ? 0 : idx - 1];
}

TEST(Histogram, QuantileEstimatesTrackExactPercentiles) {
  // Deterministic pseudo-random samples in (0, 1000 s): estimates from the
  // default log-bucketed histogram must land within one bucket's width of
  // the exact percentile, i.e. relative error bounded by the per-decade
  // bucket ratio (10^(1/4) ~ 1.78).
  Histogram h(Histogram::default_time_bounds());
  std::vector<double> samples;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x % 1000000ull) / 1000000.0;
    const double v = std::pow(10.0, -5.0 + 7.0 * u);  // log-uniform 1e-5..1e2
    samples.push_back(v);
    h.observe(v);
  }
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = exact_percentile(samples, q);
    const double est = h.quantile(q);
    EXPECT_GT(est, exact / 1.79) << "q=" << q;
    EXPECT_LT(est, exact * 1.79) << "q=" << q;
  }
  // Quantiles are clamped into the observed range and monotone in q.
  EXPECT_GE(h.quantile(0.0), h.observed_min());
  EXPECT_LE(h.quantile(1.0), h.observed_max());
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(Histogram, SingleValueQuantilesCollapse) {
  Histogram h({1.0, 2.0});
  h.observe(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
}

// ------------------------------------------------------------------ exports

TEST(Registry, JsonSnapshotShape) {
  MetricsRegistry reg;
  reg.counter("z.last", {{"worker", "0"}}).inc(7.0);
  reg.gauge("a.first").set(1.5);
  Histogram& h = reg.histogram("m.mid", {}, {1.0, 2.0});
  h.observe(0.5);
  h.observe(3.0);

  const std::string json = reg.to_json();
  // Rows sorted by name: a.first, m.mid, z.last.
  const auto a = json.find("a.first");
  const auto m = json.find("m.mid");
  const auto z = json.find("z.last");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"worker\":\"0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
  // Overflow bucket exports le = +inf as 1e999.
  EXPECT_NE(json.find("\"le\":1e999"), std::string::npos);
}

TEST(Registry, ExportIsDeterministic) {
  auto build = [] {
    auto reg = std::make_unique<MetricsRegistry>();
    reg->counter("b").inc(1);
    reg->counter("a", {{"x", "2"}}).inc(2);
    reg->gauge("g").set(3);
    reg->histogram("h").observe(0.25);
    return reg;
  };
  const auto r1 = build();
  const auto r2 = build();
  EXPECT_EQ(r1->to_json(), r2->to_json());
}

}  // namespace
}  // namespace dlion::obs
