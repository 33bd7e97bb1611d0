#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace densest {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      // Drain outstanding work before honoring shutdown: tasks Submitted
      // before the destructor ran must still execute (their futures are
      // how callers learn the work happened).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --outstanding_;
      if (outstanding_ == 0) done_cv_.NotifyAll();
    }
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  {
    MutexLock lock(mu_);
    // Counted in outstanding_ so the worker-side decrement stays balanced;
    // a concurrent ParallelFor simply waits for submitted tasks too.
    ++outstanding_;
    queue_.push([task] { (*task)(); });
  }
  work_cv_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  // The caller and `helpers` workers claim indices from one counter until
  // it runs past count: one queued task per helper, not per index, and
  // the region never runs more threads than the pool has.
  std::atomic<size_t> next{0};
  const auto claim = [&next, count, &fn] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  const size_t helpers = std::min(count, threads_.size()) - 1;
  {
    MutexLock lock(mu_);
    outstanding_ += helpers;
    for (size_t h = 0; h < helpers; ++h) queue_.push(claim);
  }
  for (size_t h = 0; h < helpers; ++h) work_cv_.NotifyOne();
  claim();
  // `next` and `fn` live on this frame: return only once every helper has
  // finished (and, as ever, no Submitted task is outstanding).
  MutexLock lock(mu_);
  while (outstanding_ != 0) done_cv_.Wait(mu_);
}

}  // namespace densest
