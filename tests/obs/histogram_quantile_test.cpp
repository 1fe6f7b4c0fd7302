// Tail-percentile behavior of obs::Histogram's interpolating quantile
// estimator, focused on sparse top buckets — the shape latency histograms
// take (dense body, a handful of outliers). Complements the basic quantile
// coverage in metrics_test.cpp.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace dlion::obs {
namespace {

TEST(HistogramQuantile, TailRankLandsInSparseTopBucket) {
  // 99 fast observations in the first bucket, one slow outlier in (4, 8].
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 99; ++i) h.observe(0.5);
  h.observe(4.5);
  ASSERT_EQ(h.count(), 100u);

  // p50: rank 50 of 99 in bucket [min=0.5, 1.0] -> 0.5 + 0.5 * 50/99.
  EXPECT_NEAR(h.quantile(0.50), 0.5 + 0.5 * 50.0 / 99.0, 1e-12);
  // p99: rank 99 exactly exhausts the first bucket -> its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
  // p99.5 / p99.9: rank falls in the single-observation (4, 8] bucket.
  // Raw interpolation gives 6.0 / 7.6 — both past the observed max, so
  // the estimate clamps to 4.5 instead of inventing latency never seen.
  EXPECT_DOUBLE_EQ(h.quantile(0.995), 4.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 4.5);
}

TEST(HistogramQuantile, SingleObservationInOverflowBucket) {
  // One observation above every bound: the overflow bucket's edges are
  // [last bound, observed max], and clamping pins every quantile to the
  // one value actually observed.
  Histogram h({1.0, 2.0, 4.0, 8.0});
  h.observe(100.0);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 100.0) << "q=" << q;
  }
}

TEST(HistogramQuantile, ExtremeQuantilesClampToObservedRange) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 99; ++i) h.observe(0.5);
  h.observe(4.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.observed_min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.observed_max());
  // Out-of-range q is clamped to [0, 1], not an error.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.observed_min());
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.observed_max());
}

TEST(HistogramQuantile, TailIsMonotoneOverDefaultTimeBounds) {
  Histogram h(Histogram::default_time_bounds());
  // A latency-like mixture: tight body, stretched tail.
  for (int i = 0; i < 900; ++i) h.observe(0.010 + 1e-5 * i);
  for (int i = 0; i < 90; ++i) h.observe(0.080 + 1e-3 * i);
  for (int i = 0; i < 10; ++i) h.observe(1.5 + 0.25 * i);

  const std::vector<double> qs = {0.50, 0.90, 0.99, 0.995, 0.999, 1.0};
  double prev = h.quantile(qs.front());
  for (std::size_t i = 1; i < qs.size(); ++i) {
    const double cur = h.quantile(qs[i]);
    EXPECT_GE(cur, prev) << "q=" << qs[i];
    prev = cur;
  }
  EXPECT_LE(h.quantile(0.999), h.observed_max());
  EXPECT_GE(h.quantile(0.50), h.observed_min());
}

TEST(HistogramQuantile, EmptyHistogramYieldsNaN) {
  Histogram h({1.0, 2.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.99)));
  EXPECT_TRUE(std::isnan(h.observed_min()));
  EXPECT_TRUE(std::isnan(h.observed_max()));
}

}  // namespace
}  // namespace dlion::obs
