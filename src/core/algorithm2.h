// Copyright 2026 The densest Authors.
// Algorithm 2 of the paper: streaming (3+3eps)-approximation for the
// densest subgraph with at least k nodes (rho*_{>=k}); a (2+2eps)
// guarantee when the optimum itself has more than k nodes (Lemma 10).

#ifndef DENSEST_CORE_ALGORITHM2_H_
#define DENSEST_CORE_ALGORITHM2_H_

#include "common/cancel.h"
#include "common/status.h"
#include "core/density.h"
#include "graph/undirected_graph.h"
#include "stream/edge_stream.h"

namespace densest {

class PassEngine;

/// \brief Knobs for Algorithm 2.
struct Algorithm2Options {
  /// Minimum size of the returned subgraph.
  NodeId min_size = 1;
  /// Paper epsilon: per pass, exactly ceil(eps/(1+eps) |S|) of the
  /// lowest-degree below-threshold nodes are removed (never more than the
  /// below-threshold candidate count). Must be > 0 for multi-node removal;
  /// epsilon = 0 degenerates to one node per pass.
  double epsilon = 0.5;
  /// Safety cap on passes (0 = uncapped).
  uint64_t max_passes = 1000000;
  /// Record a PassSnapshot per pass.
  bool record_trace = true;
  /// Pass engine that drives the run (see Algorithm1Options::engine).
  PassEngine* engine = nullptr;
  /// Optional cooperative cancellation (see Algorithm1Options::cancel).
  const CancelToken* cancel = nullptr;
};

/// Runs Algorithm 2 over an edge stream: a one-run
/// PassEngine::RunUndirectedRuns. Returns the densest intermediate
/// subgraph among those of size >= min_size; its size is guaranteed
/// >= min_size provided min_size <= num_nodes (otherwise InvalidArgument,
/// as for an epsilon that is negative, NaN or infinite). The algorithm
/// stops early once |S| < min_size (Lemma 11).
StatusOr<UndirectedDensestResult> RunAlgorithm2(EdgeStream& stream,
                                                const Algorithm2Options& options);

/// Convenience wrapper over a CSR graph.
StatusOr<UndirectedDensestResult> RunAlgorithm2(const UndirectedGraph& g,
                                                const Algorithm2Options& options);

}  // namespace densest

#endif  // DENSEST_CORE_ALGORITHM2_H_
