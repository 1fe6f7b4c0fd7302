// End-to-end tests for the dlion-lint binary. The build injects:
//   DLION_LINT_BINARY - absolute path to the built linter
//   DLION_REPO_ROOT   - absolute path to the source tree
// Tests shell out to the real executable: the gate CI relies on is the gate
// being tested, not a reimplementation of its rules.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef DLION_LINT_BINARY
#error "build must define DLION_LINT_BINARY"
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
  // Prefix with the test name: gtest_discover_tests runs each TEST as its
  // own ctest entry, so under `ctest -j` two of these processes can run
  // concurrently and must not clobber each other's scratch files.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->name() + std::string("_") + name;
}

RunResult run_lint(const std::string& args) {
  const std::string out_path = temp_path("dlion_lint_out.txt");
  const std::string cmd = std::string("\"") + DLION_LINT_BINARY + "\" " +
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

std::string fixture_dir() {
  return std::string(DLION_REPO_ROOT) + "/tests/tools/fixture";
}

TEST(LintToolTest, ProductionTreeIsClean) {
  const std::string root(DLION_REPO_ROOT);
  const RunResult r = run_lint("--root " + root + " --allowlist " + root +
                               "/tools/lint/allowlist.txt " + root + "/src " +
                               root + "/bench " + root + "/tools " + root +
                               "/examples");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("files clean"), std::string::npos) << r.output;
}

TEST(LintToolTest, FixtureFailsWithDiagnosticsAtKnownLines) {
  const RunResult r = run_lint("--root " + fixture_dir() + " " + fixture_dir());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One assertion per rule: exact file:line plus the rule tag.
  const struct {
    const char* loc;
    const char* rule;
  } expected[] = {
      {"bad_nondet.cpp:18", "dlion-nondet-unordered-iteration"},
      {"bad_nondet.cpp:24", "dlion-nondet-entropy"},
      {"bad_nondet.cpp:25", "dlion-nondet-entropy"},
      {"bad_nondet.cpp:26", "dlion-nondet-entropy"},
      {"bad_nondet.cpp:30", "dlion-nondet-pointer-key"},
      {"bad_nondet.cpp:33", "dlion-nondet-float-accumulate"},
      {"bad_nondet.cpp:44", "dlion-missing-override"},
      {"bad_message.h:10", "dlion-uninit-pod"},
      {"bad_message.h:13", "dlion-uninit-pod"},
      {"comm/bad_payload.h:11", "dlion-owned-payload"},
      {"comm/bad_payload.h:12", "dlion-owned-payload"},
      {"comm/bad_payload.h:16", "dlion-owned-payload"},
      {"comm/bad_payload.h:17", "dlion-owned-payload"},
  };
  for (const auto& e : expected) {
    EXPECT_NE(r.output.find(e.loc), std::string::npos)
        << "missing " << e.loc << " in:\n" << r.output;
    EXPECT_NE(r.output.find(e.rule), std::string::npos)
        << "missing " << e.rule << " in:\n" << r.output;
  }
  // The clean fixture must not be flagged at all.
  EXPECT_EQ(r.output.find("good_clean.cpp:"), std::string::npos) << r.output;
  // The inline escape suppresses the owned-payload rule.
  EXPECT_EQ(r.output.find("bad_payload.h:22"), std::string::npos) << r.output;
}

TEST(LintToolTest, JsonReportIsWellFormedAndCounted) {
  const std::string json_path = temp_path("dlion_lint_report.json");
  const RunResult r = run_lint("--root " + fixture_dir() + " --json " +
                               json_path + " " + fixture_dir());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "missing JSON report at " << json_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"dlion-nondet-entropy\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"file\": \"bad_nondet.cpp\""), std::string::npos)
      << json;
}

TEST(LintToolTest, JsonReportIsByteStableAcrossRuns) {
  const std::string a_path = temp_path("dlion_lint_a.json");
  const std::string b_path = temp_path("dlion_lint_b.json");
  run_lint("--root " + fixture_dir() + " --json " + a_path + " " +
           fixture_dir());
  run_lint("--root " + fixture_dir() + " --json " + b_path + " " +
           fixture_dir());
  std::ifstream fa(a_path), fb(b_path);
  std::ostringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(LintToolTest, AllowlistSuppressesByRuleAndPath) {
  const std::string allow_path = temp_path("dlion_lint_allow.txt");
  {
    std::ofstream allow(allow_path);
    allow << "# suppress everything except the entropy rule in the fixture\n";
    allow << "dlion-nondet-unordered-iteration bad_nondet.cpp\n";
    allow << "dlion-nondet-pointer-key bad_nondet.cpp\n";
    allow << "dlion-nondet-float-accumulate bad_nondet.cpp\n";
    allow << "dlion-missing-override bad_nondet.cpp\n";
    allow << "* bad_message.h\n";
  }
  const RunResult r = run_lint("--root " + fixture_dir() + " --allowlist " +
                               allow_path + " " + fixture_dir());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("dlion-nondet-entropy"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("dlion-nondet-pointer-key"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("bad_message.h"), std::string::npos) << r.output;
}

TEST(LintToolTest, UnknownPathExitsWithUsageError) {
  const RunResult r = run_lint("/nonexistent/definitely_missing_dir_42");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

}  // namespace
