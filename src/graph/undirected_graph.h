// Copyright 2026 The densest Authors.
// Immutable CSR (compressed sparse row) undirected graph.

#ifndef DENSEST_GRAPH_UNDIRECTED_GRAPH_H_
#define DENSEST_GRAPH_UNDIRECTED_GRAPH_H_

#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace densest {

/// \brief Immutable undirected graph in CSR form.
///
/// Each undirected edge {u, v} is stored twice (in u's and v's adjacency
/// list). Weights are stored only for weighted graphs; unweighted graphs
/// report weight 1.0 per edge. Construct via GraphBuilder or FromEdgeList.
class UndirectedGraph {
 public:
  UndirectedGraph() = default;

  /// Builds a CSR graph from an edge list. Each entry of `edges` is one
  /// undirected edge; self-loops and duplicates are kept as given (use
  /// GraphBuilder for cleaning policies).
  static UndirectedGraph FromEdgeList(const EdgeList& edges);

  /// Number of nodes.
  NodeId num_nodes() const { return num_nodes_; }
  /// Number of undirected edges.
  EdgeId num_edges() const { return num_edges_; }
  /// Sum of all edge weights (== num_edges() for unweighted graphs).
  Weight total_weight() const { return total_weight_; }
  /// True iff any edge carries a weight different from 1.0.
  bool is_weighted() const { return !weights_.empty(); }
  /// True iff any edge is a self-loop (u == u). Lets pass kernels pick a
  /// tighter inner loop for the overwhelmingly common loop-free case.
  bool has_self_loops() const { return has_self_loops_; }

  /// Degree of node u (number of incident edge slots; a self-loop counts 1).
  NodeId Degree(NodeId u) const {
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }
  /// Sum of incident edge weights of node u.
  Weight WeightedDegree(NodeId u) const;

  /// Neighbors of node u.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }
  /// Weights parallel to Neighbors(u); empty span for unweighted graphs.
  std::span<const Weight> NeighborWeights(NodeId u) const {
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// The CSR row offsets: row u's entries are [offsets()[u],
  /// offsets()[u + 1]), so offsets()[j] counts the entries of rows [0, j).
  /// num_nodes() + 1 values (none for a default-constructed graph).
  std::span<const EdgeId> offsets() const { return offsets_; }

  /// Density of the whole graph: total_weight / num_nodes (0 if empty).
  double Density() const {
    return num_nodes_ == 0 ? 0.0
                           : total_weight_ / static_cast<double>(num_nodes_);
  }

  /// Maximum degree over all nodes (0 for the empty graph).
  NodeId MaxDegree() const;

  /// Re-materializes the edge list (each undirected edge once, u <= v;
  /// self-loops emitted once).
  EdgeList ToEdgeList() const;

 private:
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  Weight total_weight_ = 0;
  bool has_self_loops_ = false;
  std::vector<EdgeId> offsets_;    // size num_nodes_ + 1
  std::vector<NodeId> neighbors_;  // size 2 * num_edges_ (self loop: 1 slot)
  std::vector<Weight> weights_;    // parallel to neighbors_, empty if unweighted
};

}  // namespace densest

#endif  // DENSEST_GRAPH_UNDIRECTED_GRAPH_H_
