// Copyright 2026 The densest Authors.
// Annotated mutex / condition-variable wrappers over the std primitives.
//
// libstdc++'s std::mutex has no thread-safety-analysis attributes, so a
// raw std::mutex member makes every GUARDED_BY on its data unverifiable.
// These thin wrappers re-expose std::mutex and std::condition_variable
// with the capability annotations from common/thread_annotations.h, so
// Clang's -Wthread-safety can prove the repo's lock discipline:
//
//   Mutex mu_;
//   int guarded_ DENSEST_GUARDED_BY(mu_);
//   ...
//   MutexLock lock(mu_);        // scoped acquire, analysis-visible
//   while (guarded_ == 0) cv_.Wait(mu_);   // Wait REQUIRES(mu_)
//
// Zero-cost: every method is a one-line forwarder the compiler inlines.

#ifndef DENSEST_COMMON_MUTEX_H_
#define DENSEST_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace densest {

class CondVar;

/// \brief std::mutex with capability annotations.
class DENSEST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DENSEST_ACQUIRE() { mu_.lock(); }
  void Unlock() DENSEST_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Scoped holder of a Mutex (the only way the repo takes locks —
/// a bare Lock()/Unlock() pair cannot survive an exception).
class DENSEST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DENSEST_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DENSEST_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable bound to an annotated Mutex. Wait() requires
/// the mutex held and holds it again on return, which is exactly what the
/// analysis needs to keep tracking guarded reads in the wait loop:
///
///   while (!condition_on_guarded_state) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  /// Spurious wakeups happen; always call from a predicate loop.
  void Wait(Mutex& mu) DENSEST_REQUIRES(mu) {
    // The adopt/release dance hands the already-held mutex to a
    // std::unique_lock for the duration of the wait without an extra
    // lock/unlock round trip; from the analysis' point of view the
    // capability is simply held across the call, which is the truth.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace densest

#endif  // DENSEST_COMMON_MUTEX_H_
