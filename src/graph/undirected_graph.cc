#include "graph/undirected_graph.h"

#include <algorithm>
#include <cmath>

namespace densest {

UndirectedGraph UndirectedGraph::FromEdgeList(const EdgeList& edges) {
  UndirectedGraph g;
  g.num_nodes_ = edges.num_nodes();
  g.num_edges_ = edges.num_edges();

  bool weighted = false;
  for (const Edge& e : edges.edges()) {
    if (e.w != 1.0) {
      weighted = true;
      break;
    }
  }

  // Counting pass: a self-loop occupies one adjacency slot, a normal edge two.
  // Sized in size_t: num_nodes_ + 1 would wrap to 0 in NodeId at the
  // widest id.
  std::vector<EdgeId> counts(size_t{g.num_nodes_} + 1, 0);
  EdgeId slots = 0;
  for (const Edge& e : edges.edges()) {
    ++counts[e.u + 1];
    ++slots;
    if (e.u != e.v) {
      ++counts[e.v + 1];
      ++slots;
    } else {
      g.has_self_loops_ = true;
    }
    g.total_weight_ += e.w;
  }
  for (NodeId i = 0; i < g.num_nodes_; ++i) counts[i + 1] += counts[i];
  g.offsets_ = counts;

  g.neighbors_.resize(slots);
  if (weighted) g.weights_.resize(slots);
  std::vector<EdgeId> cursor = g.offsets_;
  for (const Edge& e : edges.edges()) {
    EdgeId pu = cursor[e.u]++;
    g.neighbors_[pu] = e.v;
    if (weighted) g.weights_[pu] = e.w;
    if (e.u != e.v) {
      EdgeId pv = cursor[e.v]++;
      g.neighbors_[pv] = e.u;
      if (weighted) g.weights_[pv] = e.w;
    }
  }
  return g;
}

Weight UndirectedGraph::WeightedDegree(NodeId u) const {
  if (weights_.empty()) return static_cast<Weight>(Degree(u));
  Weight total = 0;
  for (EdgeId i = offsets_[u]; i < offsets_[u + 1]; ++i) total += weights_[i];
  return total;
}

NodeId UndirectedGraph::MaxDegree() const {
  NodeId best = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) best = std::max(best, Degree(u));
  return best;
}

EdgeList UndirectedGraph::ToEdgeList() const {
  EdgeList out(num_nodes_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto nbrs = Neighbors(u);
    auto ws = NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      if (v >= u) {  // emit each undirected edge once
        out.Add(u, v, ws.empty() ? 1.0 : ws[i]);
      }
    }
  }
  return out;
}

}  // namespace densest
