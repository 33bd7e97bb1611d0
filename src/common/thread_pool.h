// Copyright 2026 The densest Authors.
// Minimal fixed-size thread pool shared by the MapReduce simulator and the
// streaming pass engine. Deterministic results are preserved by keeping
// per-task output buffers and merging them in task order.
//
// Concurrency contract (machine-checked by Clang -Wthread-safety via the
// annotations below): `mu_` guards the queue, the outstanding-task count
// and the shutdown flag. Workers block on `work_cv_` for new tasks. A
// ParallelFor region counts its caller as one of its threads: the caller
// queues one task per helper worker, at most min(count, num_threads()) - 1
// of them, then claims indices from the region's atomic counter alongside
// them, and blocks on `done_cv_` until outstanding_ drains to zero. So a
// region runs on at most num_threads() threads, caller included, and costs
// a few lock round trips however many indices it has. A ParallelFor body
// must not call ParallelFor on the same pool: the inner region waits for
// every outstanding task, including the outer region's helper that may be
// running it.
// Shutdown protocol: the destructor sets shutdown_ under the lock, wakes
// every worker, and joins; workers finish draining the queue first, so
// every task Submitted before destruction still runs.

#ifndef DENSEST_COMMON_THREAD_POOL_H_
#define DENSEST_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace densest {

/// \brief Fixed-size worker pool with a blocking ParallelFor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool() DENSEST_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, count) on the caller and at most
  /// min(count, num_threads()) - 1 workers, each claiming the next
  /// unclaimed index; returns when all calls completed and the pool has no
  /// outstanding task (Submitted ones included). fn must be safe to call
  /// concurrently for distinct i, and must not call ParallelFor on this
  /// pool.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn)
      DENSEST_EXCLUDES(mu_);

  /// Enqueues one task to run asynchronously; the returned future becomes
  /// ready when it has run (and rethrows anything it threw). The caller
  /// keeps working while the task executes — this is how the file stream
  /// overlaps its next fread with decoding the current buffer.
  std::future<void> Submit(std::function<void()> fn) DENSEST_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() DENSEST_EXCLUDES(mu_);

  // Written only by the constructor, before any worker can observe the
  // pool; joined by the destructor. Needs no lock.
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;  // signaled when the queue grows or shutdown_ flips
  CondVar done_cv_;  // signaled when outstanding_ reaches zero
  std::queue<std::function<void()>> queue_ DENSEST_GUARDED_BY(mu_);
  size_t outstanding_ DENSEST_GUARDED_BY(mu_) = 0;
  bool shutdown_ DENSEST_GUARDED_BY(mu_) = false;
};

}  // namespace densest

#endif  // DENSEST_COMMON_THREAD_POOL_H_
