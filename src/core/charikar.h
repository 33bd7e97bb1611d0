// Copyright 2026 The densest Authors.
// Charikar's greedy 2-approximation (APPROX 2000): repeatedly remove the
// single minimum-degree node; one of the n intermediate subgraphs is a
// 2-approximation. This is the baseline Algorithm 1 relaxes: it needs the
// graph in memory (a streaming version would take Theta(n) passes).

#ifndef DENSEST_CORE_CHARIKAR_H_
#define DENSEST_CORE_CHARIKAR_H_

#include "common/status.h"
#include "core/density.h"
#include "graph/undirected_graph.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Output of the greedy peel, including the full removal order
/// (a degeneracy ordering) for callers that want it.
struct [[nodiscard]] CharikarResult {
  /// The best intermediate subgraph (a 2-approximation of rho*).
  UndirectedDensestResult best;
  /// Nodes in removal order (first removed first). Isolated nodes included.
  std::vector<NodeId> removal_order;
};

/// Unweighted exact greedy via a bucket queue: O(n + m) total.
/// `result.best.passes` reports the number of removal steps (== n), the
/// cost a streaming realization would pay.
CharikarResult CharikarPeel(const UndirectedGraph& g);

/// Weighted greedy via a lazy binary heap: O(m log n). Matches
/// CharikarPeel on unweighted inputs (up to ties).
CharikarResult CharikarPeelWeighted(const UndirectedGraph& g);

/// Stream front ends: load the graph with one pass through ReadAllEdges
/// (stream/edge_stream.h; the only scan Charikar needs — the peel itself
/// requires the graph in memory), then run the greedy peel. Fails with the
/// stream's error when the loading pass ended early (a truncated, corrupt
/// or failing file) — peeling the partial graph would yield a plausible
/// but wrong density.
StatusOr<CharikarResult> CharikarPeel(EdgeStream& stream);
StatusOr<CharikarResult> CharikarPeelWeighted(EdgeStream& stream);

}  // namespace densest

#endif  // DENSEST_CORE_CHARIKAR_H_
