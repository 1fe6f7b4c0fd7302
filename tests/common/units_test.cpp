#include <gtest/gtest.h>

#include "common/units.h"

namespace dlion::common {
namespace {

TEST(Units, TransferSeconds) {
  // 1 MB over 8 Mbps = 1 s.
  EXPECT_DOUBLE_EQ(transfer_seconds(1'000'000, 8.0), 1.0);
  // 5 MB over 1 Gbps = 40 ms.
  EXPECT_DOUBLE_EQ(transfer_seconds(5'000'000, 1000.0), 0.04);
}

TEST(Units, ZeroBandwidthIsUnreachable) {
  EXPECT_GT(transfer_seconds(1, 0.0), 1e15);
  EXPECT_GT(transfer_seconds(1, -5.0), 1e15);
}

TEST(Units, SizeHelpers) {
  EXPECT_EQ(kib(2), 2048u);
  EXPECT_EQ(mib(1), 1048576u);
  EXPECT_EQ(mb(5), 5'000'000u);
}

}  // namespace
}  // namespace dlion::common
