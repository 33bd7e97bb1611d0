// Copyright 2026 The densest Authors.
// Fused multi-run passes: peel every configuration in one scan of the
// stream.
//
// The directed c-search tries O(log_delta n) values of c, and the
// epsilon-sweep benches try a dozen epsilons — and every one of those runs
// re-scans the same edges. Bahmani et al. observe the candidate c values
// "can be tried in parallel" over the same passes; MultiRunEngine is that
// observation as a subsystem. It holds K independent peeling runs (each
// with its own alive sets, degree accumulators and threshold rule from
// core/peel_runs.h) and drives all of them from ONE physical scan per
// pass. Runs that converge drop out; the pass loop ends when all runs are
// done. Total physical scans = max over runs of their pass count, instead
// of the sum.
//
// A pass round takes PassEngine's schedule for the stream's shape:
//   row pull      — on a stream with a CSR view, the round walks the row
//                   shards once (shard-major): each task pulls its shard
//                   into every active run with the run's own RowPull, the
//                   kernel a solo PassEngine pass uses. Runs write disjoint
//                   rows, so the round needs no slots.
//   record rounds — otherwise chunks pulled through a PassCursor are cut
//                   into PassEngine's shard/slot schedule. While active runs
//                   K >= threads, each task owns one run for the whole round
//                   (run-major); once K < threads, each (run, shard) pair
//                   is a task feeding slot s of its run (work-major). Runs
//                   that must see edges in stream order (parallel_shards()
//                   false, e.g. the sketched runs) stay whole-round tasks.
//
// Determinism: each run executes exactly the per-shard work a solo
// PassEngine pass would, and combines it in the same order, so every
// per-run result is bit-identical to a sequential run on the same stream —
// for any thread count, weighted or not.
//
// Memory: per run, one n-sized double plane per degree array; record
// rounds on streams without unit weights, or that may go work-major, add
// kShardSlots planes per degree array (the price of slot-isolated
// concurrency) — O(K n) either way, the semi-streaming budget times the
// fused width.

#ifndef DENSEST_CORE_MULTI_RUN_H_
#define DENSEST_CORE_MULTI_RUN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "stream/edge_stream.h"

namespace densest {

class PassCursor;

/// \brief Knobs for a MultiRunEngine.
struct MultiRunOptions {
  /// Worker threads for the fan-out. 0 = hardware concurrency; 1 = fully
  /// sequential. Any value yields bit-identical results; it only changes
  /// wall-clock time.
  size_t num_threads = 0;
};

/// \brief Drives K independent peeling runs from shared physical scans.
///
/// Holds reusable scratch (chunk buffer, a sequential PassEngine for
/// post-compaction buffer passes), so one engine should be reused across
/// sweeps. Not safe for concurrent use from multiple threads; create one
/// engine per concurrent sweep.
class MultiRunEngine {
 public:
  /// Chunk granularity, shared with PassEngine so fused accumulation
  /// reproduces its shard/slot schedule bit-for-bit.
  static constexpr size_t kShardEdges = PassEngine::kShardEdges;
  static constexpr size_t kShardSlots = PassEngine::kShardSlots;

  /// \brief One fused run: private accumulator state plus peel logic,
  /// driven by Drive(). Implementations exist for Algorithms 1-3 (behind
  /// the Run*Runs entry points below) and for the sketched Algorithm 1
  /// (sketch/sketch_runs.h); new peeling variants join the fusion by
  /// implementing this interface, not by touching the engine.
  class FusedRun {
   public:
    virtual ~FusedRun() = default;

    /// True once the run needs no further passes of any kind.
    virtual bool done() const = 0;
    /// True while the run needs the next pass over the shared stream.
    /// A run that is not done yet returns false to leave the scan (e.g.
    /// Algorithm 1 after §6.3 compaction); Drive() then calls
    /// FinishOffStream once and excludes it from further fan-out.
    virtual bool wants_stream() const { return !done(); }
    /// Whether the run can take its passes as row pulls of `view`. False
    /// (the default) for runs that must see edges in stream order.
    virtual bool CanPull(const CsrView&) const { return false; }
    /// Starts a pass: zero whatever the accumulators need zeroed. `view`
    /// is the CSR view the pass pulls, or null when the pass arrives as
    /// record rounds through AccumulateShard.
    virtual void BeginPass(const CsrView* view) = 0;
    /// Pulls row shard `shard` of the view given to BeginPass. Distinct
    /// shards of a pass arrive concurrently; they write disjoint rows.
    virtual void PullShard(const CsrView&, size_t) {}
    /// Folds one record shard into accumulator slot `slot`. Shards of one
    /// round arrive either in order from a single thread (run-major, or
    /// parallel_shards() == false) or concurrently from several threads
    /// with distinct `slot` values (work-major).
    virtual void AccumulateShard(std::span<const Edge> shard,
                                 size_t slot) = 0;
    /// Whether distinct shards of one round may be accumulated
    /// concurrently. True requires slot-isolated accumulators (each slot
    /// writes its own plane, reduced in slot order afterwards). Runs whose
    /// per-pass state is order-dependent — a Count-Sketch that must see
    /// updates in stream order, a survivor buffer appended in stream
    /// order — return false and stay sequential within each round.
    virtual bool parallel_shards() const = 0;
    /// Ends a pass: combine the shard totals, apply the peel step.
    virtual void FinishPass() = 0;
    /// Finishes a run that left the scan (wants_stream() false, done()
    /// false) over its private state; costs no physical scans.
    virtual void FinishOffStream(PassEngine& engine) { (void)engine; }
  };

  explicit MultiRunEngine(const MultiRunOptions& options = {});
  ~MultiRunEngine();

  MultiRunEngine(const MultiRunEngine&) = delete;
  MultiRunEngine& operator=(const MultiRunEngine&) = delete;

  /// Resolved fan-out width (1 means sequential).
  size_t num_threads() const { return num_threads_; }

  /// Drives every run in `runs` to completion over shared physical scans
  /// of `stream`. Updates last_physical_passes() / last_edges_scanned().
  /// Fails (abandoning the partial results) when the stream reports an IO
  /// error — a failing stream ends passes early and silently, and peeling
  /// on truncated statistics would yield plausible-looking wrong answers.
  /// A non-null `cancel` is polled once per record round or row shard of
  /// the shared scan; on cancellation Drive abandons the sweep the same way
  /// and returns kCancelled / kDeadlineExceeded.
  Status Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
               const CancelToken* cancel = nullptr);

  /// Fused Algorithm 3: one directed peeling run per entry of `runs`, all
  /// fed from shared scans of `stream`. Results are positionally matched
  /// to `runs` and identical to sequential RunAlgorithm3 calls. Per-run
  /// `engine` fields are ignored. The shared scan polls the first
  /// non-null per-run `cancel` token (the sweep entry points assume one
  /// token governs the whole sweep — the scan is physically shared, so one
  /// run cannot be cancelled without stopping the others).
  StatusOr<std::vector<DirectedDensestResult>> RunDirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm3Options>& runs);

  /// Fused Algorithm 1 (the epsilon-sweep workhorse). §6.3 compaction is
  /// honored per run: once a run buffers its survivors it leaves the
  /// fan-out and finishes over its private buffer, costing no further
  /// physical scans — exactly as it would alone.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm1Options>& runs);

  /// Fused Algorithm 2.
  StatusOr<std::vector<UndirectedDensestResult>> RunUndirectedRuns(
      EdgeStream& stream, const std::vector<Algorithm2Options>& runs);

  /// Batch recompute entry point for the dynamic maintenance service
  /// (dynamic/dynamic_densest.h): one Algorithm 1 run over a frozen
  /// snapshot of the service's live edge set, driven through this engine so
  /// the service's slow path shares scratch, thread fan-out and scan
  /// accounting with every other batch sweep instead of being a separate
  /// world.
  StatusOr<UndirectedDensestResult> RecomputeUndirected(
      EdgeStream& stream, const Algorithm1Options& options);

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
  void Dispatch(size_t count, const std::function<void(size_t)>& fn);
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
  /// Whether a K-way sweep over `stream` may keep a single accumulation
  /// plane per degree array in record rounds: unit weights (any order is
  /// the same bits) and no prospect of work-major shard-splitting, which
  /// needs slot-isolated planes. A sweep that starts with at least as many
  /// runs as threads keeps the frugal planes — if it later narrows below
  /// the thread count, its runs simply stay whole-round tasks
  /// (parallel_shards() false), trading late-sweep speedup for 8x less
  /// accumulator memory.
  bool UseDirectPlanes(const EdgeStream& stream, size_t num_runs) const {
    return stream.HasUnitWeights() &&
           (pool_ == nullptr || num_runs >= num_threads_);
  }

  size_t num_threads_ = 1;
  // Concurrency contract (no mutex by design, same as PassEngine): every
  // task of a round writes run state no other task of that round touches —
  // one (run, slot) plane in record rounds, one shard's rows of every run
  // in pulled rounds — and the round's ParallelFor completion barrier is
  // the only publication point: caller writes happen-before the tasks,
  // task writes happen-before FinishPass reads them. No engine state may
  // be touched while a round is in flight.
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::vector<Edge> batch_;           // kShardSlots * kShardEdges capacity
  /// (run, shard) task list scratch for work-major rounds.
  std::vector<std::pair<uint32_t, uint32_t>> task_scratch_;
  /// Sequential engine for the in-memory passes of compacted Algorithm 1
  /// runs (deterministic for any thread count, so 1 thread loses nothing).
  std::unique_ptr<PassEngine> buffer_engine_;

  uint64_t last_physical_passes_ = 0;
  uint64_t last_logical_passes_ = 0;
  uint64_t last_edges_scanned_ = 0;
};

/// Convenience for the Figure 6.1-style sweeps: runs Algorithm 1 once per
/// epsilon, all fused over shared scans of `stream`. `base` supplies every
/// other option. Results are positionally matched to `epsilons`. Uses a
/// private MultiRunEngine when `engine` is null.
StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, MultiRunEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_CORE_MULTI_RUN_H_
