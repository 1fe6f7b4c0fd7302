// Fixed-size thread pool with a blocking, allocation-free parallel_for.
//
// The simulation core is deliberately single-threaded (determinism - see
// DESIGN.md), but two numeric kernels split their work over the global
// pool: the packed GEMM fans out the row blocks of one large product
// (tensor/ops.cpp), and an evaluation forward of a conv layer gives each
// party one contiguous block of samples (tensor::conv2d_forward and
// tensor::depthwise_conv_relu). Every index runs exactly the arithmetic it
// runs serially, so results are bit-identical at any pool size.
//
// parallel_for partitions [begin, end) into one chunk per party (at least
// `grain` indices each), runs them on the pool plus the calling thread, and
// rethrows the first exception a chunk threw. Three rules keep a fork-join
// safe and cheap enough to run many times per second:
//
//   * Completion is counted and signalled under the job's own mutex, so
//     the caller cannot see the last chunk finish, return and reuse the
//     stack frame that holds the job while a worker still touches it.
//   * A parallel_for issued from a worker (of any pool) runs inline on
//     that worker. Workers never wait on each other, so nesting cannot
//     deadlock.
//   * A fork-join allocates nothing: the callable is passed by reference
//     (parallel_for blocks, so nothing outlives the call), each queued task
//     is one pointer to the job, and the task ring grows but never shrinks.
//
// The caller and the workers keep claiming chunks until none are left, and
// the caller withdraws the tasks no worker has picked up yet, so a worker
// that is slow to wake delays a join by at most the chunk it took. Threads
// are RAII-joined and never detached (Core Guidelines CP.21 ff.).
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace dlion::common {

class ThreadPool {
 public:
  /// `threads` = 0 uses hardware_concurrency() - 1 (at least 1 worker when
  /// the hardware reports more than one core; otherwise the pool is empty
  /// and parallel_for degrades to a serial loop on the caller).
  /// `threads` = kNoWorkers requests an explicitly empty pool.
  explicit ThreadPool(std::size_t threads = 0);

  /// Constructor sentinel: an empty pool (parallel_for runs serially on the
  /// caller), as opposed to 0 = "size from the hardware".
  static constexpr std::size_t kNoWorkers = static_cast<std::size_t>(-1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), one chunk of at least `grain`
  /// indices per party, across the pool and the calling thread. Blocks
  /// until every index has run; `fn` is only borrowed for the call. The
  /// first exception thrown by any chunk is rethrown here. Runs serially on
  /// the caller when the pool is empty, the range fits one grain, or the
  /// caller is itself a pool worker.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                    std::size_t grain = 1) {
    using F = std::remove_reference_t<Fn>;
    run(begin, end, grain,
        [](void* f, std::size_t lo, std::size_t hi) {
          F& body = *static_cast<F*>(f);
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Shared process-wide pool. Sized from the DLION_THREADS environment
  /// variable when set (the value is the total worker-thread count; 1 means
  /// "no pool workers, caller only"), otherwise from the hardware. The
  /// numeric kernels are bit-deterministic at any pool size (see
  /// DESIGN.md "Numeric kernels"), so this knob trades wall-clock only.
  static ThreadPool& global();

  /// Replace the global pool. `total_threads` follows the DLION_THREADS
  /// convention: 0 = hardware default, 1 = serial (no workers), n > 1 =
  /// n - 1 pool workers plus the caller. Testing hook for the kernel
  /// determinism suite; must not be called while another thread is inside
  /// parallel_for.
  static void reset_global_for_testing(std::size_t total_threads);

 private:
  /// Runs the indices [lo, hi) of the borrowed callable `fn`.
  using RangeFn = void (*)(void* fn, std::size_t lo, std::size_t hi);
  struct Job;  // one fork-join, on the caller's stack (thread_pool.cpp)

  void run(std::size_t begin, std::size_t end, std::size_t grain,
           RangeFn call, void* fn) DLION_EXCLUDES(mutex_);
  void worker_loop() DLION_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  // Queued tasks, each a pointer to the job it helps: ring_[(head_ + i) %
  // ring_.size()] for i < queued_.
  std::vector<Job*> ring_ DLION_GUARDED_BY(mutex_);
  std::size_t head_ DLION_GUARDED_BY(mutex_) = 0;
  std::size_t queued_ DLION_GUARDED_BY(mutex_) = 0;
  CondVar cv_;
  bool stop_ DLION_GUARDED_BY(mutex_) = false;
};

}  // namespace dlion::common
