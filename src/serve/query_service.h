// Copyright 2026 The densest Authors.
// The serving front-end of the dynamic service: batched queries answered
// on the calling thread against an AnswerPlane.
//
// Shape: clients call QueryBatch() (synchronous). The service owns no
// thread and no queue: the caller answers its own batch straight off the
// plane, one seqlock read per query (answer_plane.h) — the writer is never
// touched, never blocked. A caller's thread count is its concurrency, so
// the service needs no admission bound of its own.
//
// Deadlines: per-batch via the existing CancelToken, checked on entry and
// before every query, so a batch stops serving as soon as its deadline
// passes. SLO tracking: per-query latency (admission to completion) lands
// in a common/histogram.h reservoir, p50/p99 exposed through stats().
//
// Failpoint seams (fault-injection tests and chaos):
//   serve.enqueue   evaluated on entry; any armed action sheds the batch
//                   with kUnavailable (the retryable class common/retry.h
//                   understands)
//   serve.dequeue   evaluated after admission, just before serving; any
//                   armed action fails the batch with kUnavailable

#ifndef DENSEST_SERVE_QUERY_SERVICE_H_
#define DENSEST_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/answer.h"
#include "serve/answer_plane.h"

namespace densest {

/// \brief One query against the published serving state.
struct ServeQuery {
  enum class Kind : uint8_t {
    kDensity,     ///< the scalar Answer
    kMembership,  ///< is `node` in the witnessing set (+ the Answer)
    kSnapshot,    ///< the full witnessing node set (+ prefix + Answer)
    kStats,       ///< live metrics exposition (obs/) + the Answer
  };
  Kind kind = Kind::kDensity;
  NodeId node = 0;  ///< kMembership only
};

/// \brief One query's result. `answer` is one untorn publication's state;
/// queries in the same batch may land on different epochs (each is read
/// individually — the batch is a transport unit, not a transaction).
struct ServeResult {
  Answer answer;
  bool member = false;          ///< kMembership
  uint64_t prefix_updates = 0;  ///< kSnapshot: updates applied when published
  std::vector<NodeId> nodes;    ///< kSnapshot: witnessing set, ascending
  std::string stats_text;       ///< kStats: Prometheus-style exposition
};

/// \brief Knobs for the query service.
struct QueryServiceOptions {
  /// Unused: every batch is answered on its caller's thread. Kept because
  /// the frozen perfbench harness sets it.
  size_t num_readers = 4;
  /// Per-batch cancellation/deadline observed by QueryBatch when the call
  /// site passes none. Null = no deadline.
  const CancelToken* cancel = nullptr;
};

/// \brief Serving-side counters and latency SLO summary.
struct QueryServiceStats {
  uint64_t batches_served = 0;
  uint64_t queries_served = 0;
  uint64_t shed = 0;     ///< batches rejected at admission (failpoint)
  uint64_t failed = 0;   ///< admitted, then failed before serving (failpoint)
  uint64_t expired = 0;  ///< batches that hit their deadline / cancel
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double latency_mean_us = 0;
};

/// \brief Batched queries over an AnswerPlane, answered on the caller's
/// thread. Thread-safe: any number of threads may call QueryBatch
/// concurrently.
class QueryService {
 public:
  QueryService(const AnswerPlane& plane, const QueryServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers `queries` as one batch on the calling thread.
  ///   OK                  -> `results` holds one entry per query, in order
  ///   kUnavailable        -> shed (service stopped, or an armed serve.*
  ///                          seam); retryable — back off and resubmit
  ///   kCancelled /
  ///   kDeadlineExceeded   -> the batch's token tripped first
  /// On any non-OK status `results` is empty. The token is the per-call
  /// `cancel` if non-null, else options.cancel.
  Status QueryBatch(std::span<const ServeQuery> queries,
                    std::vector<ServeResult>* results,
                    const CancelToken* cancel = nullptr);

  /// Point-in-time counters + latency percentiles (reservoir quantiles).
  QueryServiceStats stats() const;

  /// Stops admission (idempotent): later batches get kUnavailable, and
  /// batches already in service finish.
  void Stop();

 private:
  /// How one batch ended, for the counters.
  enum class Outcome : uint8_t { kServed, kShed, kFailed, kExpired };

  /// Answers every query off the plane, checking `token` before each.
  Status Serve(std::span<const ServeQuery> queries, const CancelToken* token,
               std::vector<ServeResult>* results) const;
  /// Counts one finished batch; a served one also records the latency of
  /// each of its `queries`.
  void Finish(Outcome outcome, size_t queries = 0, double latency_us = 0);

  const AnswerPlane& plane_;
  const QueryServiceOptions options_;
  std::atomic<bool> stopped_{false};

  mutable Mutex mu_;
  uint64_t batches_served_ DENSEST_GUARDED_BY(mu_) = 0;
  uint64_t queries_served_ DENSEST_GUARDED_BY(mu_) = 0;
  uint64_t shed_ DENSEST_GUARDED_BY(mu_) = 0;
  uint64_t failed_ DENSEST_GUARDED_BY(mu_) = 0;
  uint64_t expired_ DENSEST_GUARDED_BY(mu_) = 0;
  Histogram latency_us_ DENSEST_GUARDED_BY(mu_);
};

}  // namespace densest

#endif  // DENSEST_SERVE_QUERY_SERVICE_H_
