// Copyright 2026 The densest Authors.
// The epoch-published serving plane of the dynamic service: everything a
// density / membership / snapshot query needs to answer without touching
// the writer — the scalar Answer, the update-stream prefix it corresponds
// to, and a membership bitset of the witnessing node set — double-written
// behind an EpochSeqLock (common/epoch.h) so any number of reader
// threads snapshot it wait-free-with-retry while the single writer
// streams updates.
//
// Memory-ordering contract (the seqlock discipline, spelled out once here
// and relied on by QueryService and the chaos/stress harnesses):
//   - Publish() is writer-only: BeginWrite (odd, relaxed), a release
//     store of every payload word, EndWrite (even, release store).
//   - Every Read* runs ReadBegin (acquire, skips odd) -> acquire payload
//     loads -> ReadRetry (relaxed re-read) and retries on mismatch, so a
//     returned snapshot is bit-for-bit one publication's payload — never
//     a blend of two — and carries that publication's epoch.
//   - Payload words are std::atomics, not plain memory: the speculative
//     reads a plain-memory seqlock discards after the fact are data races
//     under the C++ model and under TSan. No fence is involved, so TSan
//     sees every ordering edge; on x86-64 the release stores and acquire
//     loads are the same plain moves as relaxed ones.
//
// The writer never blocks (no reader can hold it up), and readers never
// block each other; a reader only retries while a write is actually in
// flight, which lasts O(n/64 + |S|) word stores.

#ifndef DENSEST_SERVE_ANSWER_PLANE_H_
#define DENSEST_SERVE_ANSWER_PLANE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/epoch.h"
#include "common/timer.h"
#include "core/answer.h"
#include "graph/types.h"

namespace densest {

/// \brief One published serving state: the Answer, the absolute update
/// prefix it was computed at, and the witnessing node set.
struct PlaneSnapshot {
  Answer answer;                ///< answer.epoch names the publication
  uint64_t prefix_updates = 0;  ///< updates applied when published
  std::vector<NodeId> members;  ///< witnessing node set, ascending ids
};

/// \brief Double-buffer-free single plane behind a seqlock: the payload is
/// small enough (a handful of scalars + n/64 bitset words) that one
/// versioned plane beats two alternating ones — readers validate instead
/// of chasing a current-plane pointer, and the writer touches each word
/// exactly once per publication. Implements the AnswerSink seam, which is
/// how ReplayUpdates publishes into it without dynamic/ depending on
/// serve/.
class AnswerPlane final : public AnswerSink {
 public:
  /// A plane over the node universe [0, n). No publication yet: readers
  /// see epoch 0 with an empty, certified, zero-density answer.
  explicit AnswerPlane(NodeId n);

  AnswerPlane(const AnswerPlane&) = delete;
  AnswerPlane& operator=(const AnswerPlane&) = delete;

  NodeId num_nodes() const { return num_nodes_; }

  /// Writer-only. Publishes `answer` + the witnessing node set `members`
  /// (ids in [0, n), any order) as of `prefix_updates` applied updates.
  /// O(n/64 + |members|). The answer's epoch field is ignored on input;
  /// the plane assigns the next epoch.
  void Publish(const Answer& answer, std::span<const NodeId> members,
               uint64_t prefix_updates) override;

  /// Publications so far (0 = nothing published yet).
  uint64_t epoch() const { return seq_.epoch(); }

  /// Microseconds since the last Publish() finished (0 before the first
  /// publication: the pre-publication answer is the empty graph's, which
  /// never goes stale). Readable from any thread; this is what the
  /// serve.answer_age_us gauge samples.
  double AgeMicros() const;

  /// One consistent scalar answer; answer.epoch names its publication.
  Answer ReadAnswer() const;

  /// Membership of `v` in the witnessing set, plus the same-publication
  /// answer it belongs to (out-of-range v reads as not-a-member).
  struct Membership {
    bool member = false;
    Answer answer;
  };
  Membership ReadMembership(NodeId v) const;

  /// The full published state — answer, prefix, and the witnessing node
  /// set expanded to ascending ids. O(n/64 + |S|), all one publication.
  PlaneSnapshot ReadSnapshot() const;

  /// Writer-side publication log for the harnesses: when enabled (before
  /// any reader starts), Publish() appends every publication verbatim.
  /// The log is writer-owned plain memory — it may only be read after the
  /// writer is done (join / happens-before), which is how the stress and
  /// chaos oracles use it to check observed snapshots bit-for-bit.
  void EnableWriterLog() { log_enabled_ = true; }
  const std::vector<PlaneSnapshot>& writer_log() const { return writer_log_; }

 private:
  template <typename Fn>
  void ReadConsistent(Fn&& copy_payload) const;

  NodeId num_nodes_;
  EpochSeqLock seq_;
  // Payload: atomics, stored with release and loaded with acquire (see
  // the file comment).
  std::atomic<double> density_{0};
  std::atomic<double> upper_bound_{0};
  std::atomic<uint32_t> size_{0};
  // Bit 0 certified, bit 1 stale. Starts certified: the pre-publication
  // plane is the empty graph's answer (rho* = 0 <= 0), matching Answer's
  // own default.
  std::atomic<uint32_t> flags_{1};
  std::atomic<uint64_t> prefix_updates_{0};
  std::vector<std::atomic<uint64_t>> member_words_;  // (n + 63) / 64
  WallTimer age_clock_;                     // plane-construction epoch
  std::atomic<int64_t> last_publish_us_{-1};  // age_clock_ at last Publish
  bool log_enabled_ = false;
  std::vector<PlaneSnapshot> writer_log_;  // writer-owned; see EnableWriterLog
};

}  // namespace densest

#endif  // DENSEST_SERVE_ANSWER_PLANE_H_
