// Copyright 2026 The densest Authors.
// The one scheduler of streaming passes. Every pass of Algorithms 1-3 is
// the same primitive — scan the edges once and sum every alive node's
// degree into S — and PassEngine is its only implementation. A pass feeds
// one or more FusedRun objects (independent peeling runs, each with its own
// alive sets, degree arrays and threshold rule): Bahmani et al. note the
// candidate c values "can be tried in parallel" over shared passes, and a
// solo run is just the one-run case. RunAlgorithm1/2/3, the sketched
// driver, the eps- and c-sweeps and the dynamic service's fallback
// recompute all drive their runs through Drive(); RunUndirected and
// RunDirected are one-pass drives. The engine knows nothing of the
// paper's §6.3 compaction: that is Algorithm 1's run's own decision, taken
// inside FinishPass (see RunUndirectedRuns).
//
// A pass takes one of two schedules, picked by the stream's shape:
//   row pull      — a stream backed by an in-memory CSR graph exposes it,
//                   and the pass is one round over the graph's row shards:
//                   each task pulls its shard into every run, deg_S(u) =
//                   sum over v in N(u) of [v in S] w(u, v) over u's own
//                   row (directed: out_to_t over the out-rows of S,
//                   in_from_s over the in-rows of T, pulling only the
//                   side the run's next peel step reads). Tasks write
//                   disjoint rows, and only live ones: a shard walks the
//                   members of S (or T) in its row range a word at a time
//                   (ForEachMember), so a dead row costs nothing and keeps
//                   a stale value that no peel step reads.
//   record rounds — every other stream is read kShardEdges edges at a
//                   time through EdgeStream::NextView; a round is up to
//                   kRoundShards such shards. Each active run is one task
//                   of the round and walks its shards in stream order into
//                   the run's own arrays, so a sweep spreads its runs over
//                   the pool and a solo run accumulates inline on the
//                   caller. A run is never split across threads.
//
// Determinism: the work partition is fixed by the input, never by the
// thread count or the number of runs. A pulled row is written once, by the
// task that owns its row shard (shards cut by the graph's degree sequence),
// summing its entries in row order, and per-shard totals are summed in
// shard order. A record pass sums every degree and both totals in stream
// order, exactly as one sequential loop over the stream would. Threading
// only changes who executes a task, so every run's results are
// bit-identical for 1, 2, ... N threads and for any set of runs sharing the
// pass, on weighted graphs and self-loops too.
//
// Memory: the semi-streaming budget — O(n) per run (alive bitmaps plus one
// n-double array per degree array: one undirected, two directed). The
// engine's only scratch is its record batch buffer (kRoundShards *
// kShardEdges edges, 2 MiB), kept across passes and calls.

#ifndef DENSEST_CORE_PASS_ENGINE_H_
#define DENSEST_CORE_PASS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

class PassCursor;

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

/// \brief The degree arrays a directed pass fills: out_to_t over the
/// out-rows of S, in_from_s over the in-rows of T. A peeling run asks for
/// only the arrays its next peel step reads (Algorithm3Run::sides()).
struct DirectedSides {
  bool out = true;
  bool in = true;
};

/// \brief Contiguous row range [begin, end) of a CSR graph: the unit of work
/// of the row-pull schedule.
struct RowShard {
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
};

/// \brief A stream's CSR view cut into row shards of roughly 2 *
/// PassEngine::kShardEdges adjacency entries each (rows are never split).
/// Shard boundaries depend only on the graph; Of cuts them by binary
/// search over the CSR offsets, O(shards * log n) per call.
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
/// Each shard writes its own live rows of the degree arrays (the alive
/// rows of S; directed, the out-rows of S and the in-rows of T) and leaves
/// every dead row as it was, so distinct shards of a pass may be pulled
/// concurrently, and a pass over a shrunken S costs its live rows only. A
/// shard sums its totals in locals and stores them once, at its end:
/// neighbouring shards' totals share cache lines. Finish* sums the totals
/// in shard order. Every run holds its own.
class RowPull {
 public:
  /// Starts a pass over `shards` shards.
  void Begin(size_t shards);

  /// deg_S(u) for every row u in S of shard `shard` of `view.undirected`;
  /// rows not in S are left untouched. A self-loop occupies one adjacency
  /// entry and counts twice, as in a record stream.
  void Undirected(const CsrView& view, size_t shard, const NodeSet& alive,
                  std::vector<double>& degrees);
  /// out_to_t[u] for u in S (when `sides.out`) and in_from_s[u] for u in
  /// T (when `sides.in`), for the rows u of shard `shard` of
  /// `view.directed`; every other row, and the array of a side not pulled,
  /// is left untouched.
  /// The shard's |E(S,T)| count and weight are summed over the out-rows
  /// when they are pulled, else over the in-rows.
  void Directed(const CsrView& view, size_t shard, const NodeSet& s,
                const NodeSet& t, DirectedSides sides,
                std::vector<double>& out_to_t,
                std::vector<double>& in_from_s);

  /// Pass totals.
  UndirectedPassResult FinishUndirected() const;
  DirectedPassResult FinishDirected() const;

 private:
  // Per shard: undirected passes count every adjacency entry, so an edge
  // counts once from each endpoint row and the finish halves the sums.
  std::vector<double> weight_;
  std::vector<EdgeId> count_;
};

/// \brief Knobs for a PassEngine.
struct PassEngineOptions {
  /// Threads for the row shards of a CSR pass and the runs of a fused
  /// sweep, the calling thread counted as one: a round runs on the caller
  /// plus at most num_threads - 1 pool workers. A record pass of one run
  /// never reaches the pool. 0 = hardware concurrency; 1 = fully
  /// sequential (no pool is created). Any value yields bit-identical
  /// results; it only changes wall-clock time.
  size_t num_threads = 0;
};

/// \brief Batched, optionally multi-threaded scheduler of streaming passes
/// for one or many peeling runs.
///
/// Holds reusable scratch (the record batch buffer), so one engine should
/// be reused across passes and calls. An engine is NOT safe for concurrent
/// use from multiple threads; create one engine per concurrent caller
/// instead (every options struct accepts an engine pointer for this).
class PassEngine {
 public:
  /// Edges per record shard: the size of one NextView read.
  static constexpr size_t kShardEdges = 1 << 14;
  /// Record shards read per round: the batch every active run consumes
  /// between two cancellation polls.
  static constexpr size_t kRoundShards = 8;

  /// \brief One run driven by Drive(): private accumulator state plus peel
  /// logic. Implementations exist for Algorithms 1-3, for the bare passes
  /// behind RunUndirected/RunDirected, and for the sketched Algorithm 1
  /// (sketch/sketch_runs.h); new peeling variants join the scheduler by
  /// implementing this interface, not by touching the engine.
  class FusedRun {
   public:
    virtual ~FusedRun() = default;

    /// True once the run needs no further passes.
    virtual bool done() const = 0;
    /// Whether the run can take its passes as row pulls of `view`. False
    /// (the default) for runs that must see edges in stream order.
    virtual bool CanPull(const CsrView&) const { return false; }
    /// Starts a pass. `view` is the CSR view the pass pulls, or null when
    /// the pass arrives as record shards through AccumulateShard, in which
    /// case the run zeroes its totals and the live rows of its degree
    /// arrays (records add into live rows only). Either way a pass writes
    /// live rows only, and a dead row keeps a stale value that the run's
    /// peel step must not read. A run fills only the degree arrays its
    /// next peel step reads: an array it does not read is left unwritten
    /// by the pass (a directed run under the size-ratio rule fills one of
    /// its two).
    virtual void BeginPass(const CsrView* view) = 0;
    /// Pulls row shard `shard` of the view given to BeginPass. Distinct
    /// shards of a pass arrive concurrently; they write disjoint rows.
    virtual void PullShard(const CsrView&, size_t) {}
    /// Folds the next record shard into the run's own arrays and totals.
    /// Shards arrive one at a time, in stream order, so every sum is a
    /// stream-order sum (a Count-Sketch or a survivor buffer may rely on
    /// that order too).
    virtual void AccumulateShard(std::span<const Edge> shard) = 0;
    /// Ends a pass: combine the pass totals, apply the peel step. A run
    /// may take further passes of its own here, over its private state
    /// and on the calling thread (Algorithm 1 after §6.3 compaction runs
    /// all of its remaining passes over its edge buffer); it polls the
    /// token Drive() polls and, when that trips, returns not done().
    virtual void FinishPass() = 0;
  };

  explicit PassEngine(const PassEngineOptions& options = {});
  ~PassEngine();

  PassEngine(const PassEngine&) = delete;
  PassEngine& operator=(const PassEngine&) = delete;

  /// Resolved worker count (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// Drives every run in `runs` to completion over shared physical scans
  /// of `stream`: one scan per pass, however many runs it feeds; runs that
  /// converge drop out. Updates last_physical_passes() /
  /// last_edges_scanned(). Fails (abandoning the partial results) when the
  /// stream reports an IO error — a failing stream ends passes early and
  /// silently, and peeling on truncated statistics would yield
  /// plausible-looking wrong answers. A non-null `cancel` is polled once
  /// per record round (each active run folds ≤ kRoundShards * kShardEdges
  /// edges between polls) or row shard, and once more after every
  /// FinishPass; on cancellation Drive abandons the runs the same way and
  /// returns kCancelled / kDeadlineExceeded.
  Status Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
               const CancelToken* cancel = nullptr);

  /// Algorithm 3: one directed peeling run per entry of `runs`, all fed
  /// from shared scans of `stream`. Results are positionally matched to
  /// `runs`; each equals RunAlgorithm3 of its entry alone. Per-run `engine`
  /// fields are ignored. The shared scan polls the first non-null per-run
  /// `cancel` token (one token governs a sweep — the scan is physically
  /// shared, so one run cannot be cancelled without stopping the others).
  /// Fails with InvalidArgument for an empty node set, an epsilon that is
  /// negative, NaN or infinite, or a c that is not finite and > 0.
  StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm3Options>& runs);

  /// Algorithm 1 (RunAlgorithm1 is the one-entry call). §6.3 compaction is
  /// honored per run: a run's collect pass buffers the surviving edges,
  /// and its FinishPass then runs every remaining pass as a record pass
  /// over that buffer (in buffer order, dropping dead edges after each
  /// peel step), costing no further physical scans. Every run polls the
  /// shared scan's token between buffer rounds; a cancelled buffer pass
  /// leaves the buffer as it was.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm1Options>& runs);

  /// Algorithm 2; also fails when a min_size exceeds the node count.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm2Options>& runs);

  /// One pass: streams all edges once and accumulates deg_S for alive
  /// nodes. `degrees` must have size num_nodes and is overwritten, dead
  /// rows with 0.
  ///
  /// Cancellation and IO errors (RunUndirected, RunDirected): the pass
  /// stops early and returns zero stats; the caller must poll the token
  /// itself (CheckCancel) exactly like it checks stream.status(), and must
  /// not peel on the outputs.
  UndirectedPassResult RunUndirected(EdgeStream& stream, const NodeSet& alive,
                                     std::vector<double>& degrees,
                                     const CancelToken* cancel = nullptr);

  /// One pass: streams all arcs once; accumulates out_to_t[u] over u in S
  /// and in_from_s[v] over v in T. Both vectors must have size num_nodes
  /// and are overwritten, rows outside S (resp. T) with 0.
  DirectedPassResult RunDirected(EdgeStream& stream, const NodeSet& s,
                                 const NodeSet& t,
                                 std::vector<double>& out_to_t,
                                 std::vector<double>& in_from_s,
                                 const CancelToken* cancel = nullptr);

  /// Physical scans of the stream the last Drive() performed.
  uint64_t last_physical_passes() const { return last_physical_passes_; }
  /// Sum over runs of the stream passes they consumed — what the same
  /// sweep costs in scans when executed run by run. The fused saving is
  /// last_logical_passes() / last_physical_passes(). Recorded by the
  /// sweep entry points layered on Drive() (Run*Runs here, RunSketchedSweep
  /// in sketch/sketch_runs.h) via RecordLogicalPasses.
  uint64_t last_logical_passes() const { return last_logical_passes_; }
  /// Edges delivered by the stream across the last Drive()'s scans.
  uint64_t last_edges_scanned() const { return last_edges_scanned_; }

  /// For sweep drivers layered on Drive(): records the run-by-run scan
  /// cost of the sweep that just executed (Drive resets it to 0).
  void RecordLogicalPasses(uint64_t passes) { last_logical_passes_ = passes; }

 private:
  /// Shared body of the Run*Runs entry points: validates every options
  /// entry (epsilon, then `check(options, n)`), builds one RunT per entry
  /// and drives them all.
  template <typename RunT, typename ResultT, typename OptionsT,
            typename CheckFn>
  StatusOr<std::vector<ResultT>> RunFused(EdgeStream& stream,
                                          const std::vector<OptionsT>& runs,
                                          const CheckFn& check);
  /// One pass of record rounds pulled through `cursor` (see the header).
  void ScanRounds(PassCursor& cursor, std::span<FusedRun* const> active,
                  const CancelToken* cancel);
  void EnsureBatchBuffer();
  /// Runs fn(i) for i in [0, tasks), on the pool if present.
  void Dispatch(size_t tasks, const std::function<void(size_t)>& fn);
  /// Dispatch of one pass round feeding `runs` runs: the seam every round
  /// of every pass funnels through, so round/shard tallies and the round
  /// spans cover all of them.
  void DispatchRound(size_t tasks, size_t runs,
                     const std::function<void(size_t)>& fn);

  size_t num_threads_ = 1;
  // Concurrency contract (no mutex by design): every task of a round
  // writes state no other task of that round touches — one run's arrays
  // and totals in record rounds, one shard's live rows of every run in
  // pulled rounds — and the round's ParallelFor completion barrier is the
  // only publication point: caller writes (BeginPass zeroing, batch_ fill)
  // happen-before the tasks, task writes happen-before FinishPass reads
  // them. No engine state may be touched while a round is in flight. A
  // task keeps its per-item sums in locals and stores to memory it shares
  // a cache line with other tasks (per-shard or per-run totals, vector
  // headers) only at its end.
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<Edge> batch_;           // kRoundShards * kShardEdges capacity

  uint64_t last_physical_passes_ = 0;
  uint64_t last_logical_passes_ = 0;
  uint64_t last_edges_scanned_ = 0;
};

/// Process-wide shared engine (hardware-concurrency threads) that every
/// entry point uses when handed a null engine. Not for concurrent callers —
/// those should own a private engine.
PassEngine& DefaultPassEngine();

}  // namespace densest

#endif  // DENSEST_CORE_PASS_ENGINE_H_
