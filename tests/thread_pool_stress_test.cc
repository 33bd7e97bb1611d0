// Copyright 2026 The densest Authors.
// Stress tests for the ThreadPool submit/shutdown/cancellation protocol.
//
// These are written to fail loudly under ThreadSanitizer if the pool's
// locking discipline regresses: many producer threads hammer Submit while
// the destructor races to shut down, ParallelFor interleaves with Submit,
// and CancelTokens are tripped from outside the pool mid-flight. The
// assertions (every task ran exactly once, every future became ready)
// catch lost-wakeup and dropped-task bugs even without TSan; the
// cross-thread access pattern is what makes a locking regression visible
// to the race detector.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "gtest/gtest.h"

namespace densest {
namespace {

// TSan runs every schedule ~5-20x slower; fewer rounds keep the suite
// fast while still crossing the interesting interleavings many times.
#ifdef DENSEST_TSAN
constexpr int kRounds = 6;
constexpr int kTasksPerProducer = 64;
#else
constexpr int kRounds = 24;
constexpr int kTasksPerProducer = 256;
#endif
constexpr int kProducers = 4;

// Concurrent producers Submit tasks while the pool is destroyed as soon
// as the last Submit returns: the destructor must drain every queued task
// (its future is the caller's only proof the work happened).
TEST(ThreadPoolStressTest, ConcurrentSubmitThenShutdownRunsEveryTask) {
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures(kProducers * kTasksPerProducer);
    {
      ThreadPool pool(3);
      std::vector<std::thread> producers;
      producers.reserve(kProducers);
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (int t = 0; t < kTasksPerProducer; ++t) {
            futures[static_cast<size_t>(p * kTasksPerProducer + t)] =
                pool.Submit(
                    [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
      for (std::thread& t : producers) t.join();
      // Pool destructor runs here with (potentially) a full queue.
    }
    EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
    for (std::future<void>& f : futures) {
      ASSERT_TRUE(f.valid());
      f.get();  // throws if the task was dropped or threw
    }
  }
}

// ParallelFor's outstanding_ bookkeeping is shared with Submit; an
// interleaved mix must neither deadlock nor lose a completion signal.
TEST(ThreadPoolStressTest, ParallelForInterleavedWithSubmit) {
  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(3);
    std::atomic<int> submitted_ran{0};
    std::atomic<int> parallel_ran{0};
    std::vector<std::future<void>> futures;
    futures.reserve(kTasksPerProducer);
    std::thread submitter([&] {
      for (int t = 0; t < kTasksPerProducer; ++t) {
        futures.push_back(pool.Submit([&submitted_ran] {
          submitted_ran.fetch_add(1, std::memory_order_relaxed);
        }));
      }
    });
    for (int i = 0; i < 8; ++i) {
      pool.ParallelFor(16, [&parallel_ran](size_t) {
        parallel_ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    submitter.join();
    for (std::future<void>& f : futures) f.get();
    EXPECT_EQ(submitted_ran.load(), kTasksPerProducer);
    EXPECT_EQ(parallel_ran.load(), 8 * 16);
  }
}

// A ParallelFor region: the caller and at most min(count, num_threads())
// - 1 woken workers claim indices from one counter. Every index runs
// exactly once, at every count around the worker count and at a count
// far above it, and no region runs on more threads than the pool has,
// caller included.
TEST(ThreadPoolStressTest, ParallelForRunsEachIndexOnceOnAtMostPoolThreads) {
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    const size_t counts[] = {2, workers - 1, workers, workers + 1, 10000};
    for (size_t count : counts) {
      const std::string label = "workers=" + std::to_string(workers) +
                                " count=" + std::to_string(count);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(count);
        std::vector<std::thread::id> ran_on(count);
        pool.ParallelFor(count, [&](size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          ran_on[i] = std::this_thread::get_id();  // index i's own slot
        });
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << label << " index " << i;
        }
        std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
        EXPECT_LE(threads.size(), std::min(count, pool.num_threads()))
            << label;
      }
    }
  }
}

// The caller works: a region whose every worker is held by a Submitted
// task that waits for the region's own progress still completes, because
// the caller claims indices itself. A region that only queued its indices
// behind those tasks would wait forever.
TEST(ThreadPoolStressTest, ParallelForCallerWorksWhileWorkersAreBusy) {
  for (size_t workers : {1u, 2u}) {
    ThreadPool pool(workers);
    std::atomic<bool> body_ran{false};
    std::vector<std::future<void>> held;
    for (size_t w = 0; w < workers; ++w) {
      held.push_back(pool.Submit([&body_ran] {
        while (!body_ran.load()) std::this_thread::yield();
      }));
    }
    std::atomic<int> ran{0};
    pool.ParallelFor(64, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      body_ran.store(true);
    });
    EXPECT_EQ(ran.load(), 64) << workers;
    for (std::future<void>& f : held) f.get();
  }
}

// Cancellation protocol: workers poll a CancelToken tripped from outside
// the pool. Every task must still complete (cooperative cancellation
// finishes the current bounded unit), every future must become ready, and
// the token's flag must be visible across threads without a data race.
TEST(ThreadPoolStressTest, CancelTokenTrippedMidFlight) {
  for (int round = 0; round < kRounds; ++round) {
    CancelToken cancel;
    std::atomic<int> observed_cancel{0};
    std::atomic<int> ran{0};
    {
      ThreadPool pool(3);
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int t = 0; t < kTasksPerProducer; ++t) {
        futures.push_back(pool.Submit([&] {
          // A bounded unit of "work" that polls the token like the
          // engines do (once per shard round).
          if (ShouldStop(&cancel)) {
            observed_cancel.fetch_add(1, std::memory_order_relaxed);
          }
          ran.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      // Trip the token from the producer thread while tasks are in
      // flight; roughly half the queue should observe it.
      cancel.Cancel();
      for (std::future<void>& f : futures) f.get();
    }
    EXPECT_EQ(ran.load(), kTasksPerProducer);
    // Everything submitted after the Cancel() observed it; tasks that ran
    // before may not have. Either way no task was dropped.
    EXPECT_GE(observed_cancel.load(), 0);
    EXPECT_TRUE(cancel.cancelled());
  }
}

// Deadline tokens are read concurrently by many workers while no thread
// writes (the deadline is fixed at construction) — a shape TSan verifies
// is genuinely read-only after publication.
TEST(ThreadPoolStressTest, DeadlineTokenPolledConcurrently) {
  CancelToken token = CancelToken::WithDeadlineAfterMs(1e7);  // far future
  ThreadPool pool(3);
  std::atomic<int> stopped{0};
  pool.ParallelFor(64, [&](size_t) {
    if (ShouldStop(&token)) stopped.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(stopped.load(), 0);
  EXPECT_TRUE(CheckCancel(&token).ok());
}

// A throwing task must surface through its future, not kill a worker or
// wedge the outstanding_ count (the next ParallelFor would hang forever).
TEST(ThreadPoolStressTest, ThrowingTaskPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  std::future<void> bad = pool.Submit([] {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool must still be fully functional afterwards.
  std::atomic<int> ran{0};
  pool.ParallelFor(8, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace densest
