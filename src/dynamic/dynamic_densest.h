// Copyright 2026 The densest Authors.
// The incremental densest-subgraph maintenance service: consumes a
// timestamped stream of edge insertions and deletions and keeps a
// certified approximation of rho*(G) answerable at any instant.
//
// Architecture: the engine maintains one dynamic adjacency (the live
// graph) and a *window* of DegreeLevels decompositions for geometrically
// spaced density thresholds d_k = d0 (1+eps)^k. After every update
// settles, the largest maintained k whose top level set is nonempty — call
// it k* — certifies a sandwich
//
//   best-level density of structure k*   <=  rho*  <  2(1+eps) d_{k*+1},
//
// where the left side is the actual density of a concrete node set the
// engine can hand out. The certified ratio between the two sides is at
// most 2(1+eps)^3 — the paper-style (2+eps')(1+eps') band.
//
// Only a window of thresholds around k* is maintained (updates cost
// O(window) counter touches, not O(log n) structures). When the density
// drifts out of the window — k* reaches the top slot, or every maintained
// slot goes empty — the certificate has degraded, and the configured
// fallback kicks in: a full batch recompute of the live edge set — batch
// Algorithm 1 on the service's own one-thread PassEngine (the batch
// scheduler is the slow path of this service, not a separate world) —
// re-centers the window, and the slots that slid into view are rebuilt by
// static peeling. Window moves are
// geometrically spaced in density, so recomputes amortize to O(log)
// occurrences over any monotone density trajectory.

#ifndef DENSEST_DYNAMIC_DYNAMIC_DENSEST_H_
#define DENSEST_DYNAMIC_DYNAMIC_DENSEST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/answer.h"
#include "core/pass_engine.h"
#include "dynamic/degree_levels.h"
#include "graph/types.h"
#include "stream/update_stream.h"

namespace densest {

/// \brief What to do when the certificate degrades (the density estimate
/// leaves the maintained threshold window).
enum class DynamicFallback {
  /// Re-center by running the batch Algorithm 1 over the live edge set
  /// (RunAlgorithm1 on the service's PassEngine), then rebuild the slots
  /// that came into view. The default: the recompute both re-centers
  /// accurately and refreshes stats().last_recompute_density.
  kRecompute,
  /// Re-center using only the direction of the degradation (slide the
  /// window one radius up or down and rebuild the new slots). Cheaper per
  /// event; may take several slides after a large density jump.
  kRebuildOnly,
  /// Serve best-effort answers flagged certified == false until the
  /// window happens to cover the density again. For tests and callers
  /// that schedule their own recomputes.
  kNever,
};

/// \brief Knobs for the maintenance engine.
struct DynamicDensestOptions {
  /// The eps of the certified band: thresholds are spaced by (1+eps) and
  /// the level structures use 2(1+eps)d / 2d promote/demote bounds. The
  /// certified approximation ratio is 2(1+eps)^3. Must be in [0.01, 1]
  /// (the level-ladder height diverges as eps -> 0).
  ///
  /// Update cost scales with the level-ladder height log_{1+eps} n times
  /// the threshold-window width (also ~1/eps slots), so eps is the
  /// quality/throughput dial: 0.75 certifies ~10.7x worst case at >1M
  /// updates/s on a laptop core; 0.5 tightens the certificate to ~6.7x at
  /// roughly two-thirds the throughput. Observed error against exact
  /// recomputation is far inside either band (~1.01x in the benches).
  double epsilon = 0.75;
  /// Extra threshold slots maintained above the certified range after a
  /// re-center (the low end has a built-in cushion — see the fallback
  /// logic); larger values trade per-update work for fewer window moves.
  uint32_t window_radius = 1;
  /// Fallback policy on certificate degradation.
  DynamicFallback fallback = DynamicFallback::kRecompute;
  /// Epsilon for the batch Algorithm 1 recompute (kRecompute only). Must
  /// be finite and >= 0.
  double recompute_epsilon = 0.5;
  /// Consecutive updates the window-trim condition (k* drifted more than
  /// trim_span_ above the window's low end) must hold before the bottom is
  /// actually trimmed. A density hovering at a slot boundary flips the
  /// condition on and off every few updates; trimming on the first flip
  /// drops low slots that the very next dip needs back, and re-entering
  /// them costs a full recompute + rebuild. 1 restores the immediate-trim
  /// behavior. Must be >= 1.
  uint32_t trim_hysteresis = 64;
  /// Wall-clock budget for one batch recompute, in milliseconds (0 =
  /// unbounded; kRecompute only). Overload protection: when a recompute
  /// blows this budget it is cancelled cooperatively (common/cancel.h),
  /// the engine keeps serving the last certified answer widened to cover
  /// every update applied since (Answer::stale), and the recompute
  /// re-arms after recompute_rearm_updates further updates — with the
  /// budget doubled per consecutive cancellation, so a graph that has
  /// genuinely outgrown the budget still converges instead of thrashing.
  double recompute_deadline_ms = 0;
  /// Updates to absorb before re-attempting a deadline-cancelled
  /// recompute (kRecompute with a deadline only). Must be >= 1.
  uint32_t recompute_rearm_updates = 4096;
};

/// \brief Counters the service accumulates (monotone; never reset).
struct DynamicDensestStats {
  uint64_t inserts = 0;          ///< applied insertions
  uint64_t deletes = 0;          ///< applied deletions
  uint64_t ignored = 0;          ///< duplicates, absent deletes, self-loops
  uint64_t level_moves = 0;      ///< promotions + demotions, all structures
  uint64_t recomputes = 0;       ///< batch fallback runs
  uint64_t window_moves = 0;     ///< times the threshold window re-centered
  uint64_t structures_rebuilt = 0;
  /// Updates on which the trim condition held but hysteresis deferred the
  /// move (see DynamicDensestOptions::trim_hysteresis).
  uint64_t trims_deferred = 0;
  /// Trim streaks that reset before reaching the hysteresis threshold —
  /// each is a transient excursion whose trim (and the recompute the next
  /// density dip would have forced) was suppressed.
  uint64_t recomputes_avoided = 0;
  /// Batch recomputes stopped by the recompute deadline (overload
  /// protection; see DynamicDensestOptions::recompute_deadline_ms).
  uint64_t recomputes_cancelled = 0;
  /// Queries answered from the widened stale band while a cancelled
  /// recompute was pending.
  uint64_t stale_answers_served = 0;
  double last_recompute_density = 0;
};

/// \brief The maintenance engine. Single-writer: Apply* calls must be
/// serialized; queries read only settled state and may interleave freely
/// with them from the same thread.
class DynamicDensest {
 public:
  /// Creates an engine over the node universe [0, n). Fails with
  /// InvalidArgument for n == 0 or an out-of-range epsilon.
  static StatusOr<std::unique_ptr<DynamicDensest>> Create(
      NodeId n, const DynamicDensestOptions& options = {});

  /// \brief Overload-protection state (recompute_deadline_ms), captured
  /// in snapshots so a restored engine keeps serving the same widened
  /// stale band a pending one did. All-default when nothing is pending.
  struct OverloadState {
    bool pending = false;           ///< a cancelled recompute awaits re-arm
    uint32_t cancel_streak = 0;     ///< consecutive cancelled recomputes
    uint64_t rearm_at_updates = 0;  ///< inserts+deletes count to retry at
    double last_cert_upper = 0;     ///< last certified upper bound
    uint64_t last_cert_inserts = 0; ///< inserts when it was captured
  };

  /// Reconstructs an engine from snapshotted state (dynamic/snapshot.h
  /// handles the byte format; this takes the decoded pieces): the
  /// adjacency VERBATIM (see DynamicAdjacency::RestoreAdjacency on why
  /// order matters), the window's first slot, one per-node level array per
  /// maintained slot, the trim streak, and the accumulated stats. Fails
  /// with InvalidArgument when any piece is internally inconsistent. A
  /// successful restore is bit-for-bit: the engine evolves identically to
  /// the one the state was captured from.
  static StatusOr<std::unique_ptr<DynamicDensest>> FromSnapshotState(
      NodeId n, const DynamicDensestOptions& options,
      std::vector<std::vector<NodeId>> adjacency, uint32_t lo,
      std::vector<std::vector<uint16_t>> slot_levels, uint32_t trim_streak,
      const DynamicDensestStats& stats, const OverloadState& overload);

  /// Applies one update. Self-loops, out-of-range endpoints, duplicate
  /// inserts and deletes of absent edges are counted in stats().ignored
  /// and otherwise skipped — the maintained graph is always simple.
  void Apply(const EdgeUpdate& update);
  void ApplyBatch(std::span<const EdgeUpdate> batch);

  /// \brief A point-in-time answer — the engine serves the repo-wide
  /// unified type (core/answer.h). For this engine: certified is false
  /// only under DynamicFallback::kNever with a degraded window; stale is
  /// true while a deadline-cancelled recompute is pending (the certificate
  /// is the last one, widened by the sound growth bound); epoch stays 0
  /// (publication epochs are assigned by the serving plane, not here).
  using Answer = ::densest::Answer;
  /// O(window + levels): reads maintained aggregates only.
  Answer Query() const;
  /// The node set behind Query() (ascending ids); O(n).
  std::vector<NodeId> DensestNodes() const;
  /// The certified worst-case ratio upper_bound / density: 2(1+eps)^3.
  double ApproxBand() const;

  NodeId num_nodes() const { return adj_.num_nodes(); }
  EdgeId num_edges() const { return adj_.num_edges(); }
  /// Snapshot of the live edge set (u < v, unit weights) — what exactness
  /// checkpoints and external consumers recompute over.
  EdgeList CurrentEdges() const { return adj_.ToEdgeList(); }

  /// Accumulated counters, merged into one value struct. Safe to call
  /// concurrently with reader-thread Query() calls: the one counter a
  /// logically-const query bumps (stale_answers_served) is a relaxed
  /// atomic — an independent monotone tally with no ordering relationship
  /// to any other engine state, so a read that misses an in-flight
  /// increment just attributes it to the next call. Every other field is
  /// writer-owned plain state: reading it concurrently with Apply* keeps
  /// the engine's single-writer rules.
  DynamicDensestStats stats() const {
    DynamicDensestStats merged = stats_;
    merged.stale_answers_served =
        stale_answers_served_.load(std::memory_order_relaxed);
    return merged;
  }
  const DynamicDensestOptions& options() const { return options_; }
  /// Maintained threshold window [lo, hi] as slot indices (d_k = d0
  /// (1+eps)^k); exposed for tests and the replay report.
  uint32_t window_lo() const { return lo_; }
  uint32_t window_hi() const { return lo_ + static_cast<uint32_t>(slots_.size()) - 1; }
  /// Snapshot introspection (dynamic/snapshot.cc serializes through
  /// these): the maintained slots, the live adjacency, and the hysteresis
  /// streak — together with window_lo() and stats(), the engine's entire
  /// mutable state.
  size_t num_slots() const { return slots_.size(); }
  const DegreeLevels& slot(size_t i) const { return slots_[i]; }
  const DynamicAdjacency& adjacency() const { return adj_; }
  uint32_t trim_streak() const { return trim_streak_; }
  /// True while a deadline-cancelled recompute is pending (queries serve
  /// the widened stale band until it re-arms and completes).
  bool recompute_pending() const { return recompute_pending_; }
  OverloadState overload_state() const {
    return OverloadState{recompute_pending_, cancel_streak_, rearm_at_updates_,
                         last_cert_upper_, last_cert_inserts_};
  }

  /// Brute-force audit of every maintained slot against the live
  /// adjacency (see DegreeLevels::CheckInvariants). O(slots * (n + m));
  /// for tests and the chaos harness.
  Status CheckInvariants() const;

 private:
  DynamicDensest(NodeId n, const DynamicDensestOptions& options);

  double ThresholdOf(uint32_t slot) const;
  /// Slot index of the largest threshold <= rho (clamped to the grid).
  uint32_t SlotBelow(double rho) const;
  /// Largest maintained slot with a nonempty top level, or -1.
  int FindCertifyingSlot() const;
  /// True when the certificate cannot be served from the current window.
  bool Degraded(int k_star) const;
  void MaybeFallback();
  /// Moves the maintained window to [new_lo, new_hi], keeping overlapping
  /// structures live and rebuilding the slots that came into view.
  void MoveWindow(uint32_t new_lo, uint32_t new_hi);

  DynamicDensestOptions options_;
  DynamicAdjacency adj_;
  uint32_t levels_;     // per-structure level count: (1+eps)^levels > n
  uint32_t max_slot_;   // top of the threshold grid: d_max certainly empty
  uint32_t trim_span_;  // max k* drift above lo_ before a re-center
  uint32_t lo_ = 0;     // first maintained slot
  uint32_t trim_streak_ = 0;  // consecutive updates the trim condition held
  std::vector<DegreeLevels> slots_;
  // Overload-protection state (recompute_deadline_ms); snapshotted as
  // OverloadState so a restored engine serves the same widened band a
  // pending one did instead of reporting an answer it cannot certify.
  bool recompute_pending_ = false;
  uint64_t rearm_at_updates_ = 0;   // inserts+deletes count to retry at
  uint32_t cancel_streak_ = 0;      // consecutive cancelled recomputes
  double last_cert_upper_ = 0;      // last certified upper bound on rho*
  uint64_t last_cert_inserts_ = 0;  // stats_.inserts when it was captured
  DynamicDensestStats stats_;  // writer-owned; stale tally lives below
  // Every recompute runs on this engine: a solo record pass over the
  // live-edge snapshot never uses a pool, and owning the engine keeps its
  // batch buffer allocated outside the recompute's deadline.
  PassEngine engine_{PassEngineOptions{.num_threads = 1}};
  // Query() is logically const but counts the stale answers it serves.
  // Kept out of stats_ as a relaxed atomic so concurrent reader-thread
  // queries don't race on a plain field; stats() merges it back in.
  mutable std::atomic<uint64_t> stale_answers_served_{0};
};

}  // namespace densest

#endif  // DENSEST_DYNAMIC_DYNAMIC_DENSEST_H_
