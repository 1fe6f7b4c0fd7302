// Order-stability golden tests: every deterministic run artifact must be a
// pure function of the data recorded, never of the order in which series or
// label sets happened to be touched. This is the audit companion to the
// dlion-nondet-unordered-iteration lint rule: the linter stops unordered
// iteration from feeding exporters; these tests pin the exporters' actual
// byte output so a regression in either layer is caught.

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace dlion::obs {
namespace {

// Touch the same logical series in two wildly different orders; exports
// must be byte-identical.
TEST(OrderStabilityTest, MetricsExportIndependentOfRegistrationOrder) {
  MetricsRegistry forward;
  forward.counter("train.iterations").inc(10);
  forward.counter("comm.sent", {{"type", "GradientUpdate"}}).inc(3);
  forward.counter("comm.sent", {{"type", "Ack"}}).inc(7);
  forward.gauge("worker.lbs", {{"worker", "0"}}).set(32.0);
  forward.gauge("worker.lbs", {{"worker", "1"}}).set(16.0);

  MetricsRegistry reverse;
  reverse.gauge("worker.lbs", {{"worker", "1"}}).set(16.0);
  reverse.counter("comm.sent", {{"type", "Ack"}}).inc(7);
  reverse.gauge("worker.lbs", {{"worker", "0"}}).set(32.0);
  reverse.counter("comm.sent", {{"type", "GradientUpdate"}}).inc(3);
  reverse.counter("train.iterations").inc(10);

  EXPECT_EQ(forward.to_json(), reverse.to_json());
}

// Label KEY order within one series must also be canonicalized: the same
// labels written as {a,b} and {b,a} are one series, one exported row.
TEST(OrderStabilityTest, LabelKeyOrderIsCanonicalized) {
  MetricsRegistry a;
  a.counter("net.bytes", {{"src", "0"}, {"dst", "1"}}).inc(100);
  MetricsRegistry b;
  b.counter("net.bytes", {{"dst", "1"}, {"src", "0"}}).inc(100);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.rows().size(), 1u);
}

// Repeated export of an untouched registry is byte-stable.
TEST(OrderStabilityTest, ExportIsIdempotent) {
  MetricsRegistry m;
  m.counter("a").inc();
  m.gauge("b", {{"k", "v"}}).set(1.5);
  const std::string once = m.to_json();
  const std::string twice = m.to_json();
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace dlion::obs
