#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/annotations.h"
#include "common/mutex.h"

namespace dlion::common {

namespace {
// True on the threads a ThreadPool owns: a parallel_for issued there runs
// inline (see the header's rules).
thread_local bool t_pool_worker = false;
}  // namespace

// One fork-join. It lives in run()'s frame; every queued task points at it.
struct ThreadPool::Job {
  Job(RangeFn c, void* f, std::size_t first, std::size_t e, std::size_t ch)
      : call(c), fn(f), end(e), chunk(ch), next(first) {}

  // Claims chunks until none are left. A chunk's exception is kept (the
  // first one wins) and the claiming goes on, so every index runs once.
  void run_chunks() {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      try {
        call(fn, lo, std::min(end, lo + chunk));
      } catch (...) {
        MutexLock lock(m);
        if (!error) error = std::current_exception();
      }
    }
  }

  const RangeFn call;
  void* const fn;
  const std::size_t end;
  const std::size_t chunk;
  std::atomic<std::size_t> next;  // first unclaimed index
  Mutex m;
  CondVar done;
  // Workers that took one of this job's tasks and have not checked out.
  // Counted and signalled under `m`, which the caller holds when it sees
  // zero: after that no worker touches the job again.
  std::size_t active DLION_GUARDED_BY(m) = 0;
  std::exception_ptr error DLION_GUARDED_BY(m);
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == kNoWorkers) {
    threads = 0;
  } else if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 0;
  }
  {
    // One caller queues at most one task per worker.
    MutexLock lock(mutex_);
    ring_.resize(std::max<std::size_t>(threads, 1));
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      // Spelled as a loop, not a lambda predicate: Clang's thread-safety
      // analysis treats a lambda body as a separate (unlocked) function,
      // so guarded members must be read inline where the lock is visible.
      while (!stop_ && queued_ == 0) cv_.wait(mutex_);
      if (queued_ == 0) return;  // stopping, and nothing left to help with
      job = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      --queued_;
      // Checked in while mutex_ is still held, so the caller's withdrawal
      // (also under mutex_) either finds this task queued or this worker
      // counted in `active`.
      MutexLock job_lock(job->m);
      ++job->active;
    }
    job->run_chunks();
    MutexLock job_lock(job->m);
    if (--job->active == 0) job->done.notify_one();
  }
}

void ThreadPool::run(std::size_t begin, std::size_t end, std::size_t grain,
                     RangeFn call, void* fn) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t n = end - begin;
  if (workers_.empty() || n <= grain || t_pool_worker) {
    call(fn, begin, end);
    return;
  }

  const std::size_t parties = workers_.size() + 1;  // pool + caller
  const std::size_t chunk = std::max(grain, (n + parties - 1) / parties);
  const std::size_t helpers = (n + chunk - 1) / chunk - 1;
  Job job(call, fn, begin, end, chunk);
  {
    MutexLock lock(mutex_);
    if (queued_ + helpers > ring_.size()) {
      // Grow (never shrink), unrolling the ring so it starts at 0.
      std::vector<Job*> grown(std::max(2 * ring_.size(), queued_ + helpers));
      for (std::size_t i = 0; i < queued_; ++i) {
        grown[i] = ring_[(head_ + i) % ring_.size()];
      }
      ring_.swap(grown);
      head_ = 0;
    }
    for (std::size_t t = 0; t < helpers; ++t) {
      ring_[(head_ + queued_++) % ring_.size()] = &job;
    }
  }
  for (std::size_t t = 0; t < helpers; ++t) cv_.notify_one();

  job.run_chunks();
  {
    // Withdraw the tasks no worker has taken: every chunk is claimed, so
    // they have nothing left to do. The ring is compacted in place.
    MutexLock lock(mutex_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queued_; ++i) {
      Job* task = ring_[(head_ + i) % ring_.size()];
      if (task != &job) ring_[(head_ + kept++) % ring_.size()] = task;
    }
    queued_ = kept;
  }
  std::exception_ptr error;
  {
    MutexLock lock(job.m);
    while (job.active != 0) job.done.wait(job.m);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {
// File-scope (not function-local static) so the pointer can carry a
// DLION_GUARDED_BY the analysis enforces at every access. Both are
// constinit-safe; destruction order within this TU is the reverse of
// declaration, so the pool dies before its mutex.
constinit Mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool DLION_GUARDED_BY(g_global_mutex);

// Maps the DLION_THREADS convention (total threads including the caller)
// onto a ThreadPool constructor argument: 0/unset = hardware default,
// 1 = explicitly empty pool, n > 1 = n - 1 workers.
std::size_t ctor_arg_from_total(long total) {
  if (total <= 0) return 0;  // hardware default
  if (total == 1) return ThreadPool::kNoWorkers;
  return static_cast<std::size_t>(total - 1);
}

std::size_t ctor_arg_from_env() {
  const char* env = std::getenv("DLION_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 0 && v <= 1024) {
      return ctor_arg_from_total(v);
    }
  }
  return 0;  // hardware default
}
}  // namespace

ThreadPool& ThreadPool::global() {
  MutexLock lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(ctor_arg_from_env());
  }
  return *g_global_pool;
}

void ThreadPool::reset_global_for_testing(std::size_t total_threads) {
  MutexLock lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(
      ctor_arg_from_total(static_cast<long>(total_threads)));
}

}  // namespace dlion::common
