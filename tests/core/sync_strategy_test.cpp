#include "core/sync_strategy.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

namespace dlion::core {
namespace {

TEST(SyncPolicy, Names) {
  EXPECT_EQ(SyncPolicy::synchronous().to_string(), "sync");
  EXPECT_EQ(SyncPolicy::asynchronous().to_string(), "async");
  EXPECT_EQ(SyncPolicy::bounded(5, 1).to_string(), "bounded(s=5,b=1)");
}

TEST(CanStart, AsyncNeverWaits) {
  const SyncPolicy async = SyncPolicy::asynchronous();
  std::vector<std::int64_t> peers = {-1, -1, -1};
  EXPECT_TRUE(can_start_iteration(async, 100, peers, 0, {}));
}

TEST(CanStart, FirstIterationNeverWaits) {
  const SyncPolicy sync = SyncPolicy::synchronous();
  std::vector<std::int64_t> peers = {-1, -1, -1};
  EXPECT_TRUE(can_start_iteration(sync, 0, peers, 0, {}));
}

TEST(CanStart, SynchronousRequiresAllPeersFresh) {
  const SyncPolicy sync = SyncPolicy::synchronous();
  // To start iteration 3, every peer must have delivered iteration >= 2.
  std::vector<std::int64_t> fresh = {0, 2, 2};
  std::vector<std::int64_t> stale = {0, 2, 1};
  EXPECT_TRUE(can_start_iteration(sync, 3, fresh, 0, {}));
  EXPECT_FALSE(can_start_iteration(sync, 3, stale, 0, {}));
}

TEST(CanStart, StalenessBoundRelaxesRequirement) {
  const SyncPolicy bounded = SyncPolicy::bounded(2, 0);
  // Iteration 5 requires peers at >= 5-1-2 = 2.
  std::vector<std::int64_t> peers = {0, 2, 2};
  EXPECT_TRUE(can_start_iteration(bounded, 5, peers, 0, {}));
  std::vector<std::int64_t> too_stale = {0, 2, 1};
  EXPECT_FALSE(can_start_iteration(bounded, 5, too_stale, 0, {}));
}

TEST(CanStart, BackupWorkersAreSkippable) {
  const SyncPolicy hop = SyncPolicy::bounded(0, 1);
  // One straggler peer may be ignored.
  std::vector<std::int64_t> one_behind = {0, 5, -1};
  EXPECT_TRUE(can_start_iteration(hop, 6, one_behind, 0, {}));
  std::vector<std::int64_t> two_behind = {0, -1, -1};
  EXPECT_FALSE(can_start_iteration(hop, 6, two_behind, 0, {}));
}

TEST(CanStart, EarlyIterationsWithinBoundDontWait) {
  const SyncPolicy bounded = SyncPolicy::bounded(5, 0);
  std::vector<std::int64_t> nothing = {0, -1, -1};
  // Iterations 1..5 require peers at >= iter-6 < 0: always allowed. From
  // iteration 6 onwards a peer delivery (iter >= 0) is required.
  EXPECT_TRUE(can_start_iteration(bounded, 5, nothing, 0, {}));
  EXPECT_FALSE(can_start_iteration(bounded, 6, nothing, 0, {}));
}

TEST(CanStart, SelfEntryIgnored) {
  const SyncPolicy sync = SyncPolicy::synchronous();
  // Worker 1's own slot is stale but that must not block it.
  std::vector<std::int64_t> peers = {5, -1, 5};
  EXPECT_TRUE(can_start_iteration(sync, 6, peers, 1, {}));
}

struct SyncCase {
  const char* name;  ///< the case's label in test names
  std::uint64_t staleness;
  std::size_t backup;
  std::uint64_t next_iter;
  std::vector<std::int64_t> peers;
  bool expect;
};

// gtest_discover_tests names each case by its printed parameter. Unprinted,
// gtest dumps the struct's raw bytes - heap pointers included - so the ctest
// names changed from build to build.
void PrintTo(const SyncCase& c, std::ostream* os) { *os << c.name; }

class SyncPolicySweep : public ::testing::TestWithParam<SyncCase> {};

TEST_P(SyncPolicySweep, MatchesExpectation) {
  const SyncCase& c = GetParam();
  const SyncPolicy policy = SyncPolicy::bounded(c.staleness, c.backup);
  EXPECT_EQ(can_start_iteration(policy, c.next_iter, c.peers, 0, {}),
            c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SyncPolicySweep,
    ::testing::Values(
        // Hop's evaluation setting: staleness 5, 1 backup.
        SyncCase{"HopOneSlowSkipped", 5, 1, 10, {0, 9, 9, 9, 9, 1}, true},
        SyncCase{"HopTwoSlowWait", 5, 1, 10, {0, 9, 9, 9, 1, 1}, false},
        SyncCase{"HopAllAtBound", 5, 1, 10, {0, 4, 4, 4, 4, 4}, true},
        SyncCase{"HopAllPastBound", 5, 1, 11, {0, 4, 4, 4, 4, 4}, false},
        // Pure synchronous.
        SyncCase{"SyncAllFresh", 0, 0, 1, {0, 0, 0, 0, 0, 0}, true},
        SyncCase{"SyncStalePeersWait", 0, 0, 2, {0, 1, 1, 1, 1, 0}, false},
        // Generous staleness.
        SyncCase{"GenerousStaleness", 100, 0, 50, {0, -1, -1, -1, -1, -1},
                 true}));

}  // namespace
}  // namespace dlion::core
