// Copyright 2026 The densest Authors.
// Per-run state machine of the §5.1 sketched Algorithm 1, plus the fused
// Table 4 sweep that drives a whole grid of sketch configurations from
// shared physical scans.
//
// SketchedAlgorithm1Run is to the sketched drivers what core/peel_runs.h
// is to RunAlgorithm{1,2,3}: the between-pass state of ONE oracle-backed
// run — alive set, best-so-far subgraph, the DegreeOracle itself as private
// per-run state — consuming one completed pass at a time through ApplyPass.
// FusedSketchedRun adapts it to PassEngine, and both drivers (the solo
// RunAlgorithm1WithOracle, a one-run drive, and the fused RunSketchedSweep
// below) drive exactly that run, so a fused sketch run can never diverge
// from a solo one by reimplementation drift.
//
// Bit-identity: a Count-Sketch is an order-dependent FP accumulator
// (counter[bucket] += sign * w in stream order). PassEngine feeds every
// run its record shards one at a time in stream order, never splitting a
// run across threads, so the sketch sees exactly the sequential update
// order, and the exact scalar aggregates (pass weight, edge count) are
// running stream-order sums. That makes fused results bit-identical to
// solo ones on EVERY stream shape and thread count. A sketched run never
// pulls CSR rows (CanPull false), so a pass over a CSR stream still
// arrives as record rounds.

#ifndef DENSEST_SKETCH_SKETCH_RUNS_H_
#define DENSEST_SKETCH_SKETCH_RUNS_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/pass_engine.h"
#include "graph/subgraph.h"
#include "sketch/degree_oracle.h"
#include "sketch/sketched_algorithm1.h"

namespace densest {

/// \brief One run of the oracle-backed Algorithm 1, driven pass by pass.
///
/// Protocol per pass: the driver calls oracle().BeginPass(), feeds every
/// surviving edge endpoint to oracle().AddIncidence IN STREAM ORDER while
/// summing the exact pass aggregates, then hands those aggregates to
/// ApplyPass, which queries the oracle for the removal sweep.
class SketchedAlgorithm1Run {
 public:
  /// Owning constructor (the fused sweep: each run carries its oracle).
  SketchedAlgorithm1Run(NodeId n, std::unique_ptr<DegreeOracle> oracle,
                        const Algorithm1Options& options);
  /// Non-owning constructor (RunAlgorithm1WithOracle's caller-supplied
  /// oracle). `oracle` must outlive the run.
  SketchedAlgorithm1Run(NodeId n, DegreeOracle& oracle,
                        const Algorithm1Options& options);

  bool done() const { return done_; }
  const NodeSet& alive() const { return alive_; }
  DegreeOracle& oracle() { return *oracle_; }

  /// Consumes one pass worth of exact aggregates: updates the best
  /// subgraph, peels nodes whose oracle degree estimate is below the
  /// threshold (forcing geometric progress under heavy sketch noise),
  /// records the trace, and decides whether the run is finished.
  void ApplyPass(const UndirectedPassResult& stats);

  /// Finalizes the result (call once, after done()).
  SketchedResult TakeResult();

 private:
  Algorithm1Options options_;
  NodeId n_;
  std::unique_ptr<DegreeOracle> owned_oracle_;
  DegreeOracle* oracle_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  SketchedResult result_;
};

/// \brief A SketchedAlgorithm1Run as a PassEngine run: feeds every
/// surviving edge endpoint to the oracle in stream order while summing the
/// exact pass aggregates, and applies them at the end of each pass.
class FusedSketchedRun final : public PassEngine::FusedRun {
 public:
  /// `oracle` is a std::unique_ptr<DegreeOracle> the run owns, or a
  /// DegreeOracle& that must outlive the run.
  template <typename Oracle>
  FusedSketchedRun(NodeId n, Oracle&& oracle, const Algorithm1Options& options)
      : run_(n, std::forward<Oracle>(oracle), options) {}

  bool done() const override { return run_.done(); }
  void BeginPass(const CsrView* view) override;
  void AccumulateShard(std::span<const Edge> shard) override;
  void FinishPass() override;
  SketchedResult TakeResult() { return run_.TakeResult(); }

 private:
  SketchedAlgorithm1Run run_;
  double weight_ = 0.0;
  EdgeId edges_ = 0;
};

/// \brief One configuration of the fused Table 4 sweep.
struct SketchedSweepRun {
  /// The peeling knobs (epsilon, max_passes, record_trace; compaction is
  /// ignored — oracle-backed runs always scan the stream).
  Algorithm1Options options;
  /// True runs the exact-counting baseline (ExactDegreeOracle, the
  /// denominator of Table 4's ratios) instead of a sketch.
  bool exact = false;
  /// Sketch dimensions and seed (used when !exact).
  CountSketchOptions sketch;
  uint64_t sketch_seed = 0;
};

/// Runs every configuration of `runs` fused over shared physical scans of
/// `stream`: one oracle-backed peeling run per entry, each carrying its
/// private DegreeOracle, all fed from ONE scan per pass round, so a whole
/// Table 4 grid costs max-over-runs(passes) scans instead of the sum.
/// Results are positionally matched to `runs` and bit-identical to
/// solo RunAlgorithm1WithOracle calls with equal oracles, for any engine
/// thread count. Runs on DefaultPassEngine() when `engine` is null (not
/// thread-safe — supply a private engine for concurrent sweeps); on
/// success the engine's last_physical_passes() / last_logical_passes()
/// report the fused saving.
StatusOr<std::vector<SketchedResult>> RunSketchedSweep(
    EdgeStream& stream, const std::vector<SketchedSweepRun>& runs,
    PassEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_SKETCH_SKETCH_RUNS_H_
