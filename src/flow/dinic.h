// Copyright 2026 The densest Authors.
// Dinic's max-flow algorithm. The exact densest-subgraph solver (Goldberg's
// reduction) drives this; capacities are doubles because the reduction
// embeds the real-valued density guess g into arc capacities.

#ifndef DENSEST_FLOW_DINIC_H_
#define DENSEST_FLOW_DINIC_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancel.h"

namespace densest {

/// \brief Knobs for a Dinic solver (the repo-wide options convention:
/// every engine takes `const XOptions&` with a `cancel` member).
struct DinicOptions {
  /// Optional cooperative cancellation: MaxFlow polls the token at the top
  /// of each BFS phase (O(V) phases total) and returns the partial flow
  /// when it trips. The caller must re-check the token to distinguish a
  /// converged solve from an abandoned one. Null = never stops.
  const CancelToken* cancel = nullptr;
};

/// \brief Max-flow solver on a directed network with double capacities.
///
/// Usage: AddArc all arcs, then MaxFlow(s, t), then MinCutSourceSide().
/// Capacities can be updated in place (SetArcCapacity) between solves;
/// ResetFlow() restores all residual capacities.
class Dinic {
 public:
  /// Creates a network with `num_nodes` nodes and no arcs.
  explicit Dinic(int num_nodes, const DinicOptions& options = {});

  /// Adds arc u -> v with capacity `cap` (and a residual reverse arc of
  /// capacity `reverse_cap`, default 0). Returns the arc's id.
  int AddArc(int u, int v, double cap, double reverse_cap = 0.0);

  /// Overwrites the capacity of arc `arc_id` (forward direction). Call
  /// ResetFlow() afterwards before re-solving.
  void SetArcCapacity(int arc_id, double cap);

  /// Restores residual capacities to the configured capacities.
  void ResetFlow();

  /// Computes the max flow from s to t over the current residual network
  /// (call ResetFlow() first to solve from scratch).
  double MaxFlow(int s, int t);

  /// After MaxFlow: true for each node reachable from s in the residual
  /// network (the source side of a minimum cut).
  std::vector<uint8_t> MinCutSourceSide(int s) const;

  int num_nodes() const { return num_nodes_; }

 private:
  struct Arc {
    int to;
    int rev;          // slot of the reverse arc in arcs_[to]
    double residual;  // remaining capacity
    double capacity;  // configured capacity (for ResetFlow)
  };

  bool Bfs(int s, int t);
  double Dfs(int u, int t, double pushed);

  int num_nodes_;
  const CancelToken* cancel_ = nullptr;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<std::pair<int, int>> arc_index_;  // arc id -> (node, slot)
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace densest

#endif  // DENSEST_FLOW_DINIC_H_
