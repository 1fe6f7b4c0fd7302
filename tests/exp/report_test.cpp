#include "exp/report.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace dlion::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ReportTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs the cases as separate
  // processes, possibly at once, and each removes its file on teardown.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "dlion_report_" + info->name() + "_" +
            std::to_string(::getpid()) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(ReportTest, TraceCsvFormat) {
  sim::Trace t("accuracy");
  t.record(1.0, 0.5);
  t.record(2.5, 0.75);
  write_trace_csv(t, path_);
  EXPECT_EQ(slurp(path_), "time,accuracy\n1,0.5\n2.5,0.75\n");
}

TEST_F(ReportTest, UnnamedTraceUsesValueHeader) {
  sim::Trace t;
  t.record(1.0, 2.0);
  write_trace_csv(t, path_);
  EXPECT_EQ(slurp(path_).substr(0, 10), "time,value");
}

TEST_F(ReportTest, CurvesCsvAlignsTimeAxis) {
  sim::Trace a("a"), b("b");
  a.record(1.0, 0.1);
  a.record(3.0, 0.3);
  b.record(2.0, 0.2);
  write_curves_csv({"a", "b"}, {&a, &b}, path_);
  const std::string csv = slurp(path_);
  EXPECT_EQ(csv,
            "time,a,b\n"
            "1,0.1,\n"
            "2,0.1,0.2\n"
            "3,0.3,0.2\n");
}

TEST_F(ReportTest, CurvesCsvMismatchThrows) {
  sim::Trace a("a");
  EXPECT_THROW(write_curves_csv({"a", "b"}, {&a}, path_),
               std::invalid_argument);
}

TEST_F(ReportTest, BadDirectoryThrows) {
  sim::Trace t("x");
  t.record(0.0, 0.0);
  EXPECT_THROW(write_trace_csv(t, "/no/such/dir/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace dlion::exp
