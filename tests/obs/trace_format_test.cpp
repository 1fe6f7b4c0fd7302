// The trace record appenders print numbers with std::to_chars. Trace bytes
// are hashed into run digests, so every appender must reproduce the
// snprintf format it replaced byte for byte, including the truncation the
// old 48-byte buffers applied to very long numbers.
#include "obs/trace_format.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/json_util.h"

namespace dlion::obs {
namespace {

// The retired formatters, kept here as the reference. Truncation is part
// of what they did; checking the return value keeps -Wformat-truncation
// quiet about it.
std::string old_us(double seconds) {
  char buf[48];
  EXPECT_GT(std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6), 0);
  return buf;
}

std::string old_value(double v) {
  char buf[48];
  EXPECT_GT(std::snprintf(buf, sizeof(buf), "%.9g", v), 0);
  return buf;
}

std::string old_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string new_us(double seconds) {
  std::string out;
  trace_format::append_us(out, seconds);
  return out;
}

std::string new_value(double v) {
  std::string out;
  trace_format::append_value(out, v);
  return out;
}

/// Seconds whose product with 1e6 is exactly `us` when a neighbour of
/// us / 1e6 has one, so "%.3f" edge values reach the formatter intact.
double seconds_for(double us) {
  double s = us / 1e6;
  for (int i = 0; i < 4 && std::isfinite(s) && s * 1e6 != us; ++i) {
    s = std::nextafter(s, s * 1e6 < us ? INFINITY : -INFINITY);
  }
  return s;
}

void expect_same(double v) {
  EXPECT_EQ(new_value(v), old_value(v)) << std::bit_cast<std::uint64_t>(v);
  EXPECT_EQ(new_us(v), old_us(v)) << std::bit_cast<std::uint64_t>(v);
  const double s = seconds_for(v);
  EXPECT_EQ(new_us(s), old_us(s)) << std::bit_cast<std::uint64_t>(s);
}

std::vector<double> edge_values() {
  using L = std::numeric_limits<double>;
  std::vector<double> v = {
      0.0, -0.0, L::denorm_min(), -L::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      L::min(), L::epsilon(), 1.0, -1.0,
      // "%.3f" ties: decimal ones (not exact in binary) and exact binary
      // ones, where round-half-even decides.
      0.0005, 1.0005, -0.0005, 2.0005, 0.0625, 0.1875, -0.0625, 1.0625,
      0.5, 1.5, 2.5, 1e-9, 0.25e-6, 5e-10,
      // "%.9g" switches to an exponent past 9 digits.
      123456789.0, 1234567890.0, 999999999.5, 0.0001, 0.00001,
      1e15, 1e16, 1e17, -1e16, 123456789012345678.0, 9007199254740993.0,
      1e300, -1e300, L::max(), -L::max(), L::infinity(), -L::infinity(),
      L::quiet_NaN(), std::copysign(L::quiet_NaN(), -1.0)};
  // "%.3f" needs 47 characters from 1e42 up (48 with a sign); the old
  // buffer truncated anything longer.
  for (int e = 38; e <= 48; ++e) {
    const double p = std::pow(10.0, e);
    for (double x : {p, std::nextafter(p, 0.0), std::nextafter(p, INFINITY),
                     9.999999 * p, 5.5 * p}) {
      v.push_back(x);
      v.push_back(-x);
    }
  }
  return v;
}

TEST(TraceFormat, NumbersMatchRetiredSnprintfOnEdgeValues) {
  for (double v : edge_values()) expect_same(v);
}

TEST(TraceFormat, NumbersMatchRetiredSnprintfOnRandomBits) {
  common::Rng rng(0x7f0a);
  for (int i = 0; i < 40000; ++i) {
    expect_same(std::bit_cast<double>(rng.next()));
    // Realistic simulated timestamps and argument values.
    expect_same(rng.uniform(0.0, 1e4));
    expect_same(static_cast<double>(rng.uniform_index(1u << 30)));
  }
}

TEST(TraceFormat, LongNumbersKeepTheOldTruncation) {
  // 1e300 µs is 301 integer digits: the retired format kept the first 47
  // characters and so does the fallback.
  const std::string s = new_us(1e294);
  EXPECT_EQ(s.size(), 47u);
  EXPECT_EQ(s, old_us(1e294));
}

TEST(TraceFormat, FlowIdsAreLowercaseHex) {
  for (std::uint64_t id : {std::uint64_t{0}, std::uint64_t{1},
                           (std::uint64_t{1} << 40) + 5,
                           std::numeric_limits<std::uint64_t>::max()}) {
    std::string out;
    trace_format::append_hex(out, id);
    EXPECT_EQ(out, old_hex(id));
  }
}

TEST(TraceFormat, NamesAreEscapedLikeJsonEscape) {
  const std::vector<std::string> names = {
      "", "apply", "worker 0012", "a\"b", "back\\slash", "tab\there",
      "nl\nand\rcr", "\x01\x1f", std::string("nul\0x", 5), "\x7f",
      "caf\xc3\xa9", "\"\\\b\f"};
  for (const std::string& n : names) {
    std::string out = "prefix:";
    trace_format::append_escaped(out, n);
    EXPECT_EQ(out, "prefix:" + json_escape(n));
  }
}

TEST(TraceFormat, RecordsAppendToTheBuffer) {
  Tracer::Flow f;
  f.track = 1;
  f.phase = Tracer::FlowPhase::kEnd;
  f.name = "grad \"x\"";
  f.t = 1.5;
  f.id = (std::uint64_t{3} << 40) | 9;
  std::string out = "[";
  trace_format::append_flow(out, f, 2, 7);
  EXPECT_EQ(out,
            "[{\"ph\":\"f\",\"cat\":\"flow\",\"name\":\"grad \\\"x\\\"\","
            "\"id\":\"0x30000000009\",\"ts\":1500000.000,\"pid\":2,"
            "\"tid\":7,\"bp\":\"e\"}");
}

}  // namespace
}  // namespace dlion::obs
