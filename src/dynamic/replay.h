// Copyright 2026 The densest Authors.
// The replay driver of the dynamic maintenance service: feeds an
// UpdateStream into a DynamicDensest engine at a target rate, issues
// density queries on a schedule, verifies the certified approximation band
// against recomputation checkpoints, and reports update throughput and
// query latency percentiles.

#ifndef DENSEST_DYNAMIC_REPLAY_H_
#define DENSEST_DYNAMIC_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/answer.h"
#include "dynamic/dynamic_densest.h"
#include "obs/metrics.h"
#include "stream/update_stream.h"

namespace densest {

/// \brief How a checkpoint recomputes the reference density.
enum class CheckpointMode {
  /// Goldberg's exact max-flow solver: the checkpoint knows rho* exactly,
  /// so the band check is airtight. O(n^2-ish) per checkpoint — for tests
  /// and smoke-scale graphs.
  kExactFlow,
  /// Batch Algorithm 1 (epsilon 0): a 2-approximation lower bound
  /// rho_b with rho_b <= rho* <= 2 rho_b; the band check widens
  /// accordingly. Cheap enough for large replays.
  kBatchAlgorithm1,
};

/// \brief Knobs for one replay.
struct ReplayOptions {
  /// Target update feed rate (updates/second); 0 = unthrottled.
  double target_updates_per_sec = 0;
  /// Issue (and time) a density query every N applied updates (0 = only
  /// the final query).
  uint64_t query_every = 1024;
  /// Verify the certified band against a recomputation every N applied
  /// updates (0 = never).
  uint64_t checkpoint_every = 0;
  CheckpointMode checkpoint_mode = CheckpointMode::kExactFlow;
  /// Updates pulled from the stream per NextBatch call.
  size_t batch_size = 4096;
  /// Write a crash-recovery snapshot (dynamic/snapshot.h) every N applied
  /// updates (0 = never; requires snapshot_path). Snapshot time is
  /// reported separately and never counted into apply throughput.
  uint64_t snapshot_every = 0;
  /// Where snapshots go (atomically overwritten each time).
  std::string snapshot_path;
  /// Skip this many updates from the (reset) stream before applying — the
  /// resume cursor of a restored snapshot. Snapshot cursors are absolute:
  /// they include this offset.
  uint64_t skip_updates = 0;
  /// Optional cooperative cancellation (see common/cancel.h): polled once
  /// per apply run (at most ~1k updates between polls). A tripped token
  /// aborts the replay with kCancelled/kDeadlineExceeded; the engine is
  /// left settled at the last applied update. Null = never cancelled.
  const CancelToken* cancel = nullptr;
  /// Debug audit: run DynamicDensest::CheckInvariants() at every
  /// checkpoint boundary (requires checkpoint_every != 0) and fail the
  /// replay on the first violation. O(slots * (n + m)) per checkpoint —
  /// for tests and the chaos harness.
  bool check_invariants = false;
  /// Epoch-publication seam for concurrent serving (serve/answer_plane.h
  /// is the production sink): when non-null, the replay publishes the
  /// settled answer + witnessing node set + absolute update position
  /// before the first apply, after qualifying apply runs, and once more
  /// at the end — always from the writer thread, so the sink's
  /// single-writer contract holds. Each publication costs one Query()
  /// plus an O(n) DensestNodes() walk; publish_every bounds how often.
  AnswerSink* publish = nullptr;
  /// Publish every N applied updates (0 = after every apply run, i.e. at
  /// most every ~1k updates). Larger values amortize the O(n) witness
  /// collection over more updates; readers just see epochs advance less
  /// often.
  uint64_t publish_every = 0;
  /// Periodic-stats seam: every N applied updates, invoke stats_hook with
  /// the applied-update count, from the writer thread between apply runs
  /// (0 or no hook = never). The CLI wires --stats-every to this and
  /// prints a registry summary line (obs/exporter.h) from the hook.
  uint64_t stats_every = 0;
  std::function<void(uint64_t)> stats_hook;
};

/// \brief One band-verification point.
struct ReplayCheckpoint {
  uint64_t update_index = 0;   ///< applied updates when taken
  double maintained = 0;       ///< engine's served density
  double upper_bound = 0;      ///< engine's certified upper bound
  double reference = 0;        ///< recomputed density (exact or batch)
  bool in_band = true;
};

/// \brief What one replay measured.
struct [[nodiscard]] ReplayReport {
  uint64_t updates = 0;  ///< updates read from the stream (incl. ignored)
  double wall_seconds = 0;
  double updates_per_sec = 0;
  uint64_t queries = 0;
  /// Per-query latency in microseconds; its quantiles are bucket upper
  /// bounds, at most 6.25% above the exact percentile.
  obs::HistogramSample query_latency_us;
  std::vector<ReplayCheckpoint> checkpoints;
  /// Max over checkpoints of reference / maintained (1 = the maintained
  /// density matched the recomputation; bounded by the certified band).
  double max_observed_error = 0;
  /// False if any checkpoint left the certified band.
  bool band_ok = true;
  double final_density = 0;
  double final_upper_bound = 0;
  /// False when the final answer was served from a degraded window
  /// (DynamicFallback::kNever only): final_upper_bound is meaningless and
  /// final_density is best-effort.
  bool final_certified = true;
  EdgeId final_edges = 0;
  DynamicDensestStats engine_stats;
  /// Snapshots successfully written / failed this replay. A failed write
  /// degrades gracefully: the replay continues (a checkpoint is a restart
  /// optimization, not correctness) and the failure is reported here.
  uint64_t snapshots_written = 0;
  uint64_t snapshots_failed = 0;
  std::string last_snapshot_error;
  /// Wall time spent writing snapshots — kept OUT of updates_per_sec so
  /// the snapshot cadence's overhead is directly observable against it.
  double snapshot_seconds = 0;
};

/// Replays `updates` into `engine`. Fails when the update stream reports a
/// sticky IO error (a truncated replay must not masquerade as a finished
/// one) or when a checkpoint recomputation fails.
StatusOr<ReplayReport> ReplayUpdates(UpdateStream& updates,
                                     DynamicDensest& engine,
                                     const ReplayOptions& options);

}  // namespace densest

#endif  // DENSEST_DYNAMIC_REPLAY_H_
