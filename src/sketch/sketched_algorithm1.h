// Copyright 2026 The densest Authors.
// Algorithm 1 running on a pluggable degree oracle — in particular the
// Count-Sketch heuristic of §5.1 that trades exactness of the degree
// counters for sublinear counter memory.

#ifndef DENSEST_SKETCH_SKETCHED_ALGORITHM1_H_
#define DENSEST_SKETCH_SKETCHED_ALGORITHM1_H_

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/density.h"
#include "sketch/degree_oracle.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Result of a sketched run plus its memory accounting.
struct [[nodiscard]] SketchedResult {
  UndirectedDensestResult result;
  /// Counter words the oracle used (t*b for a sketch, n for exact).
  uint64_t oracle_state_words = 0;
  /// Memory ratio vs exact counting: oracle_state_words / n — the bottom
  /// row of the paper's Table 4.
  double memory_ratio = 0;
};

/// Runs Algorithm 1 with `oracle` supplying the per-pass degrees. With an
/// ExactDegreeOracle this reproduces RunAlgorithm1 exactly; with a
/// SketchDegreeOracle it reproduces the paper's §5.1 heuristic.
///
/// The density rho(S) is always tracked exactly (two scalars); only the
/// per-node degree test uses the oracle. The run is a one-run PassEngine
/// drive (on options.engine, or DefaultPassEngine()) of the
/// FusedSketchedRun that the fused RunSketchedSweep (sketch/sketch_runs.h)
/// drives a whole Table 4 grid of, one physical scan per pass. Fails with
/// InvalidArgument for an epsilon that is negative, NaN or infinite, or an
/// empty node set.
StatusOr<SketchedResult> RunAlgorithm1WithOracle(
    EdgeStream& stream, DegreeOracle& oracle,
    const Algorithm1Options& options);

/// Convenience: builds a Count-Sketch oracle with the given dimensions and
/// runs the sketched Algorithm 1.
StatusOr<SketchedResult> RunSketchedAlgorithm1(
    EdgeStream& stream, const CountSketchOptions& sketch_options,
    uint64_t sketch_seed, const Algorithm1Options& options);

}  // namespace densest

#endif  // DENSEST_SKETCH_SKETCHED_ALGORITHM1_H_
