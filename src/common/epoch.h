// Copyright 2026 The densest Authors.
// The writer->reader epoch handoff primitive behind the serving planes: a
// seqlock whose sequence word doubles as a publication epoch.
//
// One writer publishes a payload of atomic words; any number of readers
// snapshot it wait-free-with-retry and never block the writer. The
// protocol (Boehm, "Can seqlocks get along with programming language
// memory models?", MSPC 2012, the variant that needs no fences):
//
//   writer                                reader
//   ------                                ------
//   seq.store(s+1, relaxed)   [odd]       s1 = seq.load(acquire)  [retry odd]
//   payload stores, release               payload loads, acquire
//   seq.store(s+2, release)   [even]      s2 = seq.load(relaxed)
//                                         retry unless s2 == s1
//
// Why this shape: each payload store is a release, so the odd store that
// precedes it in the writer is visible to any reader whose acquire load
// reads that payload word. A reader that copied any word of a later
// publication therefore re-reads at least s+1 at s2 and retries; one that
// sees s2 == s1 copied publication s1/2 and nothing else. The acquire
// payload loads also keep the s2 load after them, and EndWrite's release
// store publishes the whole payload to the reader that acquires s1.
// The payload MUST be atomics, not plain memory: a plain-memory
// seqlock's speculative reads race with the writer by definition (the
// retry loop only discards the values after the fact), which is exactly
// what TSan flags. Every access here is an atomic load or store that
// TSan models directly (it does not model atomic_thread_fence, and the
// TSan build fails on one: -Werror=tsan), and on x86-64 a release store
// and an acquire load compile to the same plain moves as relaxed ones.
//
// Epochs: publication k leaves the sequence word at 2k, so epoch() ==
// seq/2 names the current publication and readers can tag the snapshots
// they took with the epoch they were taken from.
//
// Single-writer by contract: BeginWrite/EndWrite are not re-entrant and
// must only ever be called from one thread at a time (the repo's dynamic
// service is single-writer by design; nothing here enforces mutual
// exclusion between writers).

#ifndef DENSEST_COMMON_EPOCH_H_
#define DENSEST_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>

namespace densest {

/// \brief Seqlock sequence word with epoch accounting. Holds no payload —
/// the owner declares its payload fields as std::atomic members, stores
/// them with memory_order_release between BeginWrite()/EndWrite(), and
/// loads them with memory_order_acquire between ReadBegin()/ReadRetry().
class EpochSeqLock {
 public:
  EpochSeqLock() = default;
  EpochSeqLock(const EpochSeqLock&) = delete;
  EpochSeqLock& operator=(const EpochSeqLock&) = delete;

  /// Writer: enters the critical section (sequence goes odd). The
  /// caller's release payload stores order the transition before them.
  void BeginWrite() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  /// Writer: publishes (sequence goes even) with release semantics, making
  /// every payload store since BeginWrite() visible to any reader whose
  /// ReadBegin() observes the new sequence.
  void EndWrite() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  /// Reader: spins past any in-flight write and returns an even sequence
  /// to validate against. The acquire load synchronizes with the
  /// EndWrite() that published it.
  uint64_t ReadBegin() const {
    uint64_t s = seq_.load(std::memory_order_acquire);
    while (s & 1) s = seq_.load(std::memory_order_acquire);
    return s;
  }

  /// Reader: true when the snapshot copied since ReadBegin() may be torn
  /// (a writer entered the critical section meanwhile) and must be
  /// retried. The caller's acquire payload loads order this re-read of
  /// the sequence word after them.
  bool ReadRetry(uint64_t begin) const {
    return seq_.load(std::memory_order_relaxed) != begin;
  }

  /// Publication count: EndWrite() has run `epoch()` times. Readers
  /// normally derive the epoch from the validated ReadBegin() value
  /// (begin / 2) so it names the publication their snapshot came from.
  uint64_t epoch() const {
    return seq_.load(std::memory_order_acquire) / 2;
  }

  /// The epoch a validated ReadBegin() value belongs to.
  static uint64_t EpochOf(uint64_t begin_sequence) {
    return begin_sequence / 2;
  }

 private:
  std::atomic<uint64_t> seq_{0};
};

}  // namespace densest

#endif  // DENSEST_COMMON_EPOCH_H_
