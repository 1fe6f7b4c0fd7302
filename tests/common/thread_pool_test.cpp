#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace dlion::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ZeroWorkersRunsSerially) {
  // hardware_concurrency may be 1 on this host; an explicit zero-worker
  // pool must still complete all work on the caller.
  ThreadPool pool(0);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long long> partial(10000);
  pool.parallel_for(0, partial.size(),
                    [&](std::size_t i) {
                      partial[i] = static_cast<long long>(i) * i;
                    },
                    /*grain=*/64);
  long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  long long expected = 0;
  for (long long i = 0; i < 10000; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, GrainLargerThanRangeStillRuns) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](std::size_t) { calls.fetch_add(1); },
                    /*grain=*/1000);
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> calls{0};
    pool.parallel_for(0, 50, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 50);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, WorkerCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

// Every worker and the caller issue a nested parallel_for. A pool whose
// workers block in nested calls, waiting for queued chunks that no thread
// is left to run, hangs here.
TEST(ThreadPool, NestedParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 4, kInner = 64;
  std::vector<std::atomic<int>> outer(kOuter), inner(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t i) {
    outer[i].fetch_add(1);
    pool.parallel_for(0, kInner, [&](std::size_t j) {
      inner[i * kInner + j].fetch_add(1);
    });
  });
  for (const auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
}

// A parallel_for issued on a pool worker runs inline on that worker, even
// while other workers sit idle and could help.
TEST(ThreadPool, NestedCallOnAWorkerRunsInline) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kInner = 64;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::thread::id> outer_thread(2), inner_thread(2 * kInner);
    pool.parallel_for(0, 2, [&](std::size_t i) {
      outer_thread[i] = std::this_thread::get_id();
      pool.parallel_for(0, kInner, [&](std::size_t j) {
        inner_thread[i * kInner + j] = std::this_thread::get_id();
        // Long enough for idle workers to wake and take a chunk.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
      });
    });
    for (std::size_t i = 0; i < 2; ++i) {
      if (outer_thread[i] == caller) continue;
      for (std::size_t j = 0; j < kInner; ++j) {
        EXPECT_EQ(inner_thread[i * kInner + j], outer_thread[i]) << j;
      }
    }
  }
}

// Fills the stack below the caller's frame, where the last fork-join kept
// its job, with bytes that read as a held lock.
[[gnu::noinline]] void churn_stack() {
  volatile unsigned char scratch[4096];
  for (volatile unsigned char& b : scratch) b = 0xff;
}

// Many tiny fork-joins, each followed by stack churn, then the pool is
// destroyed. A worker that touched a finished job after its caller returned
// (as it could if completion were counted outside the job's mutex) would
// lock garbage and hang here or in the destructor's join. This catches such
// a race only probabilistically; running many `dlion_bench
// --run=gpu-fig12` children at DLION_THREADS=4 is the practical check.
TEST(ThreadPool, ManyTinyForkJoinsThenDestroy) {
  constexpr std::size_t kRounds = 100000;
  std::vector<std::uint64_t> sums(4, 0);
  {
    ThreadPool pool(3);
    for (std::size_t round = 0; round < kRounds; ++round) {
      pool.parallel_for(0, sums.size(), [&](std::size_t i) { sums[i] += i; });
      churn_stack();
    }
  }
  for (std::size_t i = 0; i < sums.size(); ++i) EXPECT_EQ(sums[i], kRounds * i);
}

// Callers on several threads share one pool: their jobs interleave in the
// task ring, which grows to hold them all.
TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(2);
  constexpr std::size_t kCallers = 3, kRounds = 2000, kRange = 16;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kRange, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kRange, [&](std::size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, static_cast<int>(kRounds));
  }
}

}  // namespace
}  // namespace dlion::common
