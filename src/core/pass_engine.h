// Copyright 2026 The densest Authors.
// The shared high-throughput implementation of a streaming pass. Every
// peeling algorithm in the library (Algorithms 1-3, Charikar ingestion, the
// sketched variant) drains its stream through this engine instead of the
// one-virtual-call-per-edge scalar loop.
//
// A pass takes one of two schedules, picked by the stream's shape:
//   row pull      — a stream backed by an in-memory CSR graph exposes it,
//                   and a pass pulls each alive node's degree into S from
//                   its own adjacency row: deg_S(u) = sum over v in N(u) of
//                   [v in S] w(u, v). Directed passes pull out_to_t over
//                   the out-rows of S and in_from_s over the in-rows of T.
//                   No Edge record is materialized.
//   record rounds — every other stream is pulled kShardEdges edges at a
//                   time through EdgeStream::NextView; each round of
//                   kShardSlots shards fans out across a ThreadPool into
//                   per-slot degree accumulators, reduced in slot order.
//
// Determinism: the work partition is fixed by the input, never by the
// thread count — row shards by the graph's degree sequence, record shards
// by the stream order. A pulled row is written once, by the one task that
// owns its shard, summing its entries in row order; record slots are summed
// in slot order; per-shard totals are summed in shard order. Threading only
// changes who executes a shard, so results are bit-identical for 1, 2, ... N
// threads, on weighted graphs and self-loops too.

#ifndef DENSEST_CORE_PASS_ENGINE_H_
#define DENSEST_CORE_PASS_ENGINE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief One streaming pass worth of undirected statistics over the alive
/// set S: induced edge count and induced total weight.
struct [[nodiscard]] UndirectedPassResult {
  EdgeId edges = 0;
  double weight = 0;
};

/// \brief One streaming pass of directed statistics: |E(S,T)| count and
/// weight.
struct [[nodiscard]] DirectedPassResult {
  EdgeId arcs = 0;
  double weight = 0;
};

/// \brief Contiguous row range [begin, end) of a CSR graph: the unit of work
/// of the row-pull schedule.
struct RowShard {
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
};

/// \brief A stream's CSR view cut into row shards of roughly 2 *
/// PassEngine::kShardEdges adjacency entries each (rows are never split).
/// Shard boundaries depend only on the graph.
struct CsrView {
  const UndirectedGraph* undirected = nullptr;  // at most one of the two
  const DirectedGraph* directed = nullptr;      // graphs is set
  std::vector<RowShard> shards;
  EdgeId edges = 0;  // edges one scan of the stream would deliver

  /// The view of `stream`; holds no graph when the stream exposes none.
  static CsrView Of(const EdgeStream& stream);
};

/// \brief The row-pull kernel plus the per-shard state of one pulled pass.
///
/// Each shard writes its own rows of the degree arrays (every row of the
/// shard: alive rows their degree, dead rows 0) and its own totals entry,
/// so distinct shards of a pass may be pulled concurrently. Finish* sums
/// the totals in shard order. PassEngine holds one for solo passes; every
/// fused run (core/multi_run.h) holds its own, so fused and solo passes
/// share the kernel and therefore the bits.
class RowPull {
 public:
  /// Starts a pass over `shards` shards. With `collect`, Undirected also
  /// stages the surviving edges of each shard for FinishUndirected.
  void Begin(size_t shards, bool collect = false);

  /// deg_S(u) for every row u of shard `shard` of `view.undirected`. A
  /// self-loop occupies one adjacency slot and counts twice, as in
  /// a record stream.
  void Undirected(const CsrView& view, size_t shard, const NodeSet& alive,
                  std::vector<double>& degrees);
  /// out_to_t[u] for u in S and in_from_s[u] for u in T, for every row u
  /// of shard `shard` of `view.directed`.
  void Directed(const CsrView& view, size_t shard, const NodeSet& s,
                const NodeSet& t, std::vector<double>& out_to_t,
                std::vector<double>& in_from_s);

  /// Pass totals; with `survivors`, appends the staged survivors in the
  /// stream's own order (row u, then v >= u in row order).
  UndirectedPassResult FinishUndirected(std::vector<Edge>* survivors);
  DirectedPassResult FinishDirected() const;

 private:
  // Per shard: undirected passes count every adjacency entry, so an edge
  // counts once from each endpoint row and the finish halves the sums.
  std::vector<double> weight_;
  std::vector<EdgeId> count_;
  std::vector<std::vector<Edge>> survivors_;  // empty unless collecting
};

/// \brief Knobs for a PassEngine.
struct PassEngineOptions {
  /// Worker threads for shard accumulation. 0 = hardware concurrency;
  /// 1 = fully sequential (no pool is created). Any value yields
  /// bit-identical pass results; it only changes wall-clock time.
  size_t num_threads = 0;
};

/// \brief Batched, optionally multi-threaded executor of streaming passes.
///
/// Holds reusable scratch (the batch buffer, the per-slot accumulators and
/// the row-pull state), so one engine should be reused across the passes of
/// an algorithm run. An engine is NOT safe for concurrent use from multiple
/// threads; create one engine per concurrent algorithm run instead (every
/// algorithm options struct accepts an `engine` pointer for this).
/// Memory: pulled passes write the output arrays directly. Record rounds
/// on a pool or with general weights keep kShardSlots accumulator vectors
/// of n doubles per plane (8n doubles undirected, 16n directed).
class PassEngine {
 public:
  /// Edges per record shard. A shard is the unit of work handed to one
  /// thread and the granularity of the deterministic reduction.
  static constexpr size_t kShardEdges = 1 << 14;
  /// Record shards (and accumulator slots) per round. Fixed independently
  /// of the thread count so that results never depend on parallelism.
  static constexpr size_t kShardSlots = 8;

  explicit PassEngine(const PassEngineOptions& options = {});
  ~PassEngine();

  /// Pulls up to kShardSlots shard views of kShardEdges each for one round,
  /// reading through `next_view(scratch, cap)` into `batch` (capacity
  /// kShardSlots * kShardEdges). This is THE shard-boundary schedule of the
  /// deterministic reduction: boundaries derive only from the view source,
  /// never from the thread count. Single-sourced here because
  /// MultiRunEngine's fused accumulation must replicate it exactly — change
  /// the schedule in one place or the fused/sequential bit-identity breaks.
  template <typename NextViewFn>
  static size_t FillShardRound(
      NextViewFn&& next_view, Edge* batch,
      std::array<std::span<const Edge>, kShardSlots>& shards) {
    size_t count = 0;
    while (count < kShardSlots) {
      std::span<const Edge> view =
          next_view(batch + count * kShardEdges, kShardEdges);
      if (view.empty()) break;
      shards[count++] = view;
    }
    return count;
  }

  PassEngine(const PassEngine&) = delete;
  PassEngine& operator=(const PassEngine&) = delete;

  /// Resolved worker count (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// Streams all edges once and accumulates deg_S for alive nodes.
  /// `degrees` must have size num_nodes and is overwritten.
  ///
  /// Cancellation (all Run* methods): a non-null `cancel` is polled once
  /// per record round (≤ kShardSlots * kShardEdges edges of work between
  /// polls) or once per row shard. On cancellation the pass stops early
  /// and returns partial stats; the caller must poll the token itself
  /// (CheckCancel) exactly like it checks stream.status(), and must not
  /// peel on the truncated stats. A null token costs one pointer test per
  /// round or shard.
  UndirectedPassResult RunUndirected(EdgeStream& stream, const NodeSet& alive,
                                     std::vector<double>& degrees,
                                     const CancelToken* cancel = nullptr);

  /// Same pass, but additionally appends every surviving edge (both
  /// endpoints alive) to *survivors in stream order — the ingestion step of
  /// the paper's §6.3 in-memory compaction.
  UndirectedPassResult RunUndirectedCollect(EdgeStream& stream,
                                            const NodeSet& alive,
                                            std::vector<double>& degrees,
                                            std::vector<Edge>* survivors,
                                            const CancelToken* cancel = nullptr);

  /// In-memory pass over an edge buffer (the post-compaction §6.3 path).
  /// When `compact` is true, dead edges are filtered out of `edges` in
  /// place (preserving order), so the buffer keeps shrinking with S.
  UndirectedPassResult RunUndirectedBuffer(std::vector<Edge>& edges,
                                           const NodeSet& alive,
                                           std::vector<double>& degrees,
                                           bool compact,
                                           const CancelToken* cancel = nullptr);

  /// Streams all arcs once; accumulates out_to_t[u] over u in S and
  /// in_from_s[v] over v in T. Both vectors must have size num_nodes and
  /// are overwritten.
  DirectedPassResult RunDirected(EdgeStream& stream, const NodeSet& s,
                                 const NodeSet& t,
                                 std::vector<double>& out_to_t,
                                 std::vector<double>& in_from_s,
                                 const CancelToken* cancel = nullptr);

  /// Batched drain: invokes fn(edge) sequentially, in stream order, for
  /// every edge of one full pass, for hot paths whose per-edge work is not
  /// a degree accumulation (graph ingestion, sketch updates). Zero-copy
  /// where the stream supports NextView.
  template <typename Fn>
  void ForEachEdgeBatched(EdgeStream& stream, Fn&& fn) {
    stream.Reset();
    EnsureBatchBuffer();
    for (;;) {
      std::span<const Edge> view = stream.NextView(batch_.data(), batch_.size());
      if (view.empty()) break;
      for (const Edge& e : view) fn(e);
    }
  }

  /// Batched drain filtered to edges with both endpoints in `alive`.
  template <typename Fn>
  void ForEachAliveEdge(EdgeStream& stream, const NodeSet& alive, Fn&& fn) {
    ForEachEdgeBatched(stream, [&](const Edge& e) {
      if (alive.ContainsBoth(e.u, e.v)) fn(e);
    });
  }

 private:
  UndirectedPassResult RunUndirectedImpl(EdgeStream& stream,
                                         const NodeSet& alive,
                                         std::vector<double>& degrees,
                                         std::vector<Edge>* survivors,
                                         const CancelToken* cancel);

  /// FillShardRound over the stream and this engine's batch buffer.
  size_t FillShards(EdgeStream& stream,
                    std::array<std::span<const Edge>, kShardSlots>& shards);
  void EnsureBatchBuffer();
  /// Sizes `planes` accumulator planes of kShardSlots slots to n doubles
  /// each and resets the per-slot totals. Slot vectors are zero on entry to
  /// every pass (freshly allocated or re-zeroed by the previous reduction).
  void EnsureAccumulators(size_t n, size_t planes);
  /// Runs fn(i) for each shard of the round (record or row shards), on the
  /// pool if present.
  void DispatchRound(size_t shards, const std::function<void(size_t)>& fn);
  /// degrees[u] = sum over slots (in slot order) of plane[slot][u]; re-zeros
  /// the slot vectors so the next pass starts clean without a memset.
  /// Mirrored by MultiRunEngine's per-run reduction — keep the summation
  /// order in sync (it is part of the fused/sequential bit-identity).
  void ReduceAndClear(size_t plane, std::vector<double>& degrees);

  /// True when this pass may skip the slot structure entirely and
  /// accumulate into the output arrays in stream order: sequential
  /// execution with exact unit weights gives the same bits any slotted
  /// schedule would.
  bool UseDirectPath(const EdgeStream& stream) const {
    return pool_ == nullptr && stream.HasUnitWeights();
  }

  size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1

  std::vector<Edge> batch_;  // kShardSlots * kShardEdges capacity
  // acc_[plane * kShardSlots + slot]: per-slot accumulation vectors.
  // Undirected passes use one plane; directed passes use two (out/in).
  //
  // Concurrency contract (no mutex by design): slot i of a round is
  // written by exactly one DispatchRound task, and no two tasks share a
  // slot, so the slot vectors need no locking. The hand-off in each
  // direction rides ThreadPool::ParallelFor's completion barrier: the
  // caller's writes before DispatchRound (EnsureAccumulators' zeroing,
  // batch_ fill) happen-before the tasks, and every task's slot writes
  // happen-before ReduceAndClear reads them. Nothing here may be touched
  // while a round is in flight.
  std::vector<std::vector<double>> acc_;
  std::array<double, kShardSlots> slot_weight_;
  std::array<EdgeId, kShardSlots> slot_edges_;
  // Per-slot survivor staging for RunUndirectedCollect (flushed in slot
  // order after every round to preserve stream order).
  std::array<std::vector<Edge>, kShardSlots> slot_survivors_;
  // Pulled passes: each row shard is one DispatchRound task writing its own
  // rows and totals entry; same barrier hand-off as the slots.
  RowPull pull_;
};

/// Process-wide shared engine (hardware-concurrency threads) used by the
/// free-function pass wrappers and the algorithm entry points. Not for
/// concurrent algorithm runs — those should own a private engine.
PassEngine& DefaultPassEngine();

}  // namespace densest

#endif  // DENSEST_CORE_PASS_ENGINE_H_
