// Copyright 2026 The densest Authors.
// Immutable CSR directed graph with both out- and in-adjacency.

#ifndef DENSEST_GRAPH_DIRECTED_GRAPH_H_
#define DENSEST_GRAPH_DIRECTED_GRAPH_H_

#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace densest {

/// \brief Immutable directed graph in CSR form (out-lists and in-lists).
///
/// Each entry of the source edge list is one arc u -> v. Construct via
/// GraphBuilder or FromEdgeList.
class DirectedGraph {
 public:
  DirectedGraph() = default;

  /// Builds a CSR directed graph from an arc list.
  static DirectedGraph FromEdgeList(const EdgeList& arcs);

  /// Number of nodes.
  NodeId num_nodes() const { return num_nodes_; }
  /// Number of arcs.
  EdgeId num_edges() const { return num_edges_; }
  /// Sum of arc weights.
  Weight total_weight() const { return total_weight_; }
  /// True iff any arc carries a weight different from 1.0.
  bool is_weighted() const { return !out_weights_.empty(); }

  /// Out-degree of u.
  NodeId OutDegree(NodeId u) const {
    return static_cast<NodeId>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  /// In-degree of v.
  NodeId InDegree(NodeId v) const {
    return static_cast<NodeId>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Targets of arcs leaving u.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_neighbors_.data() + out_offsets_[u],
            static_cast<size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }
  /// Sources of arcs entering v.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_neighbors_.data() + in_offsets_[v],
            static_cast<size_t>(in_offsets_[v + 1] - in_offsets_[v])};
  }
  /// Weights parallel to OutNeighbors(u); empty for unweighted graphs.
  std::span<const Weight> OutNeighborWeights(NodeId u) const {
    if (out_weights_.empty()) return {};
    return {out_weights_.data() + out_offsets_[u],
            static_cast<size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }
  /// Weights parallel to InNeighbors(v); empty for unweighted graphs.
  std::span<const Weight> InNeighborWeights(NodeId v) const {
    if (in_weights_.empty()) return {};
    return {in_weights_.data() + in_offsets_[v],
            static_cast<size_t>(in_offsets_[v + 1] - in_offsets_[v])};
  }

  /// The CSR offsets of the out-rows and of the in-rows: row u's arcs are
  /// [offsets[u], offsets[u + 1]). num_nodes() + 1 values each (none for a
  /// default-constructed graph).
  std::span<const EdgeId> out_offsets() const { return out_offsets_; }
  std::span<const EdgeId> in_offsets() const { return in_offsets_; }

  /// Re-materializes the arc list.
  EdgeList ToEdgeList() const;

 private:
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  Weight total_weight_ = 0;
  std::vector<EdgeId> out_offsets_, in_offsets_;
  std::vector<NodeId> out_neighbors_, in_neighbors_;
  // Parallel to out_neighbors_ / in_neighbors_; both empty if unweighted.
  std::vector<Weight> out_weights_, in_weights_;
};

}  // namespace densest

#endif  // DENSEST_GRAPH_DIRECTED_GRAPH_H_
