// End-to-end tests for the dlion-benchdiff binary (the perf-regression
// gate). The build injects:
//   DLION_BENCHDIFF_BINARY - absolute path to the built tool
//   DLION_REPO_ROOT        - absolute path to the source tree
// Tests shell out to the real executable, exactly as CI's build-test job
// does — the gate being relied on is the gate being tested.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef DLION_BENCHDIFF_BINARY
#error "build must define DLION_BENCHDIFF_BINARY"
#endif
#ifndef DLION_REPO_ROOT
#error "build must define DLION_REPO_ROOT"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

std::string temp_path(const char* name) {
  // Prefix with the test name: under `ctest -j` these tests run as
  // separate concurrent processes and must not clobber each other.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->name() + std::string("_") + name;
}

RunResult run_benchdiff(const std::string& args) {
  const std::string out_path = temp_path("benchdiff_out.txt");
  const std::string cmd = std::string("\"") + DLION_BENCHDIFF_BINARY + "\" " +
                          args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  RunResult r;
#if defined(_WIN32)
  r.exit_code = status;
#else
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
  std::ifstream in(out_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  r.output = buf.str();
  return r;
}

std::string write_file(const char* name, const std::string& content) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return path;
}

// A miniature bench report in the committed anchors' shape.
std::string report(double msgs_per_sec, int allocs, double gflops,
                   double p99_ms, const char* schema = "dlion-test-v1") {
  std::ostringstream js;
  js << "{\"schema\": \"" << schema << "\", "
     << "\"comm\": {\"msgs_per_sec\": " << msgs_per_sec
     << ", \"allocs_per_msg\": " << allocs << "}, "
     << "\"gemm\": {\"packed_gflops\": " << gflops << "}, "
     << "\"serve\": {\"p99_ms\": " << p99_ms << "}, "
     << "\"timing\": {\"wall_ms\": 123.4}}";
  return js.str();
}

TEST(BenchdiffTool, CommittedAnchorVsItselfPasses) {
  const std::string anchor =
      std::string(DLION_REPO_ROOT) + "/BENCH_hotpath.json";
  const RunResult r = run_benchdiff("\"" + anchor + "\" \"" + anchor + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 regression(s)"), std::string::npos) << r.output;
}

TEST(BenchdiffTool, TenPercentThroughputRegressionFails) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  // 12% msgs/s drop: outside the 10% throughput tolerance.
  const std::string cand = write_file("cand.json", report(880, 5, 50, 2));
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("msgs_per_sec"), std::string::npos);
  EXPECT_NE(r.output.find("REGRESS"), std::string::npos);
}

TEST(BenchdiffTool, SmallThroughputDipWithinTolerancePasses) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  const std::string cand = write_file("cand.json", report(950, 5, 50, 2));
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(BenchdiffTool, SingleExtraAllocFails) {
  // Alloc counters are deterministic, so they get zero slack.
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  const std::string cand = write_file("cand.json", report(1000, 6, 50, 2));
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("allocs_per_msg"), std::string::npos);
}

TEST(BenchdiffTool, LatencyRegressionFailsAndImprovementPasses) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 10));
  const std::string worse = write_file("worse.json", report(1000, 5, 50, 12));
  EXPECT_EQ(run_benchdiff("\"" + base + "\" \"" + worse + "\"").exit_code, 1);
  const std::string better = write_file("better.json", report(1000, 5, 50, 5));
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + better + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 improvement(s)"), std::string::npos) << r.output;
}

TEST(BenchdiffTool, LenientTimingsDemotesThroughputButNotAllocs) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  // Throughput tanks (timing-derived -> demoted), allocs also grow (hard).
  const std::string slow = write_file("slow.json", report(500, 5, 50, 2));
  EXPECT_EQ(run_benchdiff("--lenient-timings \"" + base + "\" \"" + slow +
                          "\"")
                .exit_code,
            0);
  const std::string leaky = write_file("leaky.json", report(500, 9, 50, 2));
  EXPECT_EQ(run_benchdiff("--lenient-timings \"" + base + "\" \"" + leaky +
                          "\"")
                .exit_code,
            1);
}

TEST(BenchdiffTool, SchemaChangeIsExact) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  const std::string cand =
      write_file("cand.json", report(1000, 5, 50, 2, "dlion-test-v2"));
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("schema"), std::string::npos);
}

TEST(BenchdiffTool, GatedMetricVanishingFails) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  const std::string cand = write_file(
      "cand.json", "{\"schema\": \"dlion-test-v1\", \"timing\": "
                   "{\"wall_ms\": 99.0}}");
  const RunResult r = run_benchdiff("\"" + base + "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("(missing)"), std::string::npos);
}

TEST(BenchdiffTool, CustomRulesFileReplacesThePolicy) {
  const std::string base = write_file("base.json", report(1000, 5, 50, 2));
  const std::string cand = write_file("cand.json", report(500, 9, 50, 2));
  // A policy that only gates gflops: the msgs/s and alloc regressions
  // above fall through to the implicit catch-all info rule.
  const std::string rules = write_file("rules.txt",
                                       "# only gate the kernel\n"
                                       "*gflops* higher rel=10\n");
  const RunResult r = run_benchdiff("--rules=" + rules + " \"" + base +
                                    "\" \"" + cand + "\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// The committed rules CI compares two obs_overhead --workers reports with
// (DLION_THREADS=1 vs 4): recorded counts are exact, host costs report only.
TEST(BenchdiffTool, ObsScaleRulesGateRecordedCountsOnly) {
  const auto scale_report = [](const char* checksum, int allocs,
                               double wall_ms) {
    std::ostringstream js;
    js << "{\"schema\": \"dlion-obs-scale-v1\", \"iterations\": 900, "
       << "\"events_admitted\": 5000, \"events_sampled_out\": 4000, "
       << "\"retained_events\": 700, \"retained_bytes\": 90000, "
       << "\"sink_events\": 1000, \"sink_checksum\": \"" << checksum
       << "\", \"metric_series\": 40, \"wall_ms\": " << wall_ms
       << ", \"allocs\": " << allocs << ", \"peak_rss_kb\": 1}";
    return js.str();
  };
  const std::string rules = "--rules=\"" + std::string(DLION_REPO_ROOT) +
                            "/tools/benchdiff/obs_scale.rules\" ";
  const std::string t1 = write_file("t1.json", scale_report("0xab", 10, 1.0));
  const std::string t4 = write_file("t4.json", scale_report("0xab", 90, 9.0));
  const RunResult same = run_benchdiff(rules + t1 + " " + t4);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  const std::string drift =
      write_file("drift.json", scale_report("0xac", 10, 1.0));
  const RunResult r = run_benchdiff(rules + t1 + " " + drift);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("sink_checksum"), std::string::npos) << r.output;
}

// The committed rules CI compares two hotpath reports with (DLION_THREADS=1
// vs 4): checksums, bitmatch flags and the fork-join, comm and engine
// counters are exact, throughput and latency report only.
TEST(BenchdiffTool, HotpathThreadRulesGateCrossThreadInvariants) {
  struct Hotpath {
    const char* checksum = "0x8ce8b5ccb56609dd";
    int eval_allocs = 24;
    bool small_bitmatch = true;
    double gflops = 40.0;
    double ms = 13.0;
  };
  const auto hotpath_report = [](const Hotpath& h) {
    std::ostringstream js;
    js << "{\"schema\": \"dlion-hotpath-v1\", "
       << "\"gemm_small_single_thread\": [{\"small_gflops\": " << h.gflops
       << ", \"small_bitmatch_vs_reference\": "
       << (h.small_bitmatch ? "true" : "false") << "}], "
       << "\"training_step\": {\"ms_per_step_median\": " << h.ms
       << ", \"allocs_per_step\": 3}, "
       << "\"mobilenet_step\": {\"eval_ms_per_step_median\": " << h.ms
       << ", \"eval_allocs_per_step\": " << h.eval_allocs << "}, "
       << "\"link_selection\": {\"selections_per_iteration\": 11}, "
       << "\"comm\": {\"allocs_per_msg_total\": 0, "
       << "\"payload_copies_per_msg\": 0}, "
       << "\"engine\": {\"allocs_per_event\": 0.0}, "
       << "\"determinism\": {\"weights_checksum_serial\": \"" << h.checksum
       << "\", \"serial_parallel_bitmatch\": true}}";
    return js.str();
  };
  const std::string rules = "--rules=\"" + std::string(DLION_REPO_ROOT) +
                            "/tools/benchdiff/hotpath_threads.rules\" ";
  const std::string t1 = write_file("t1.json", hotpath_report({}));
  Hotpath timings;
  timings.gflops = 10.0;
  timings.ms = 50.0;
  const std::string t4 = write_file("t4.json", hotpath_report(timings));
  const RunResult same = run_benchdiff(rules + t1 + " " + t4);
  EXPECT_EQ(same.exit_code, 0) << same.output;

  Hotpath checksum, eval_allocs, bitmatch;
  checksum.checksum = "0x8ce8b5ccb56609de";
  eval_allocs.eval_allocs = 25;
  bitmatch.small_bitmatch = false;
  const struct {
    const char* name;
    Hotpath doc;
    const char* metric;
  } drifts[] = {
      {"checksum.json", checksum, "weights_checksum_serial"},
      {"eval_allocs.json", eval_allocs, "eval_allocs_per_step"},
      {"bitmatch.json", bitmatch, "small_bitmatch_vs_reference"},
  };
  for (const auto& d : drifts) {
    const std::string t4_drift = write_file(d.name, hotpath_report(d.doc));
    const RunResult r = run_benchdiff(rules + t1 + " " + t4_drift);
    EXPECT_EQ(r.exit_code, 1) << d.name << "\n" << r.output;
    EXPECT_NE(r.output.find(d.metric), std::string::npos) << r.output;
  }
}

TEST(BenchdiffTool, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_benchdiff("").exit_code, 2);
  EXPECT_EQ(run_benchdiff("one.json").exit_code, 2);
  const std::string bad = write_file("bad.json", "{not json");
  const std::string good = write_file("good.json", report(1, 1, 1, 1));
  EXPECT_EQ(run_benchdiff("\"" + bad + "\" \"" + good + "\"").exit_code, 2);
}

}  // namespace
