#include "graph/directed_graph.h"

namespace densest {

DirectedGraph DirectedGraph::FromEdgeList(const EdgeList& arcs) {
  DirectedGraph g;
  g.num_nodes_ = arcs.num_nodes();
  g.num_edges_ = arcs.num_edges();

  bool weighted = false;
  for (const Edge& e : arcs.edges()) {
    if (e.w != 1.0) {
      weighted = true;
      break;
    }
  }

  // Sized in size_t: num_nodes_ + 1 would wrap to 0 in NodeId at the
  // widest id.
  std::vector<EdgeId> out_counts(size_t{g.num_nodes_} + 1, 0);
  std::vector<EdgeId> in_counts(size_t{g.num_nodes_} + 1, 0);
  for (const Edge& e : arcs.edges()) {
    ++out_counts[e.u + 1];
    ++in_counts[e.v + 1];
    g.total_weight_ += e.w;
  }
  for (NodeId i = 0; i < g.num_nodes_; ++i) {
    out_counts[i + 1] += out_counts[i];
    in_counts[i + 1] += in_counts[i];
  }
  g.out_offsets_ = out_counts;
  g.in_offsets_ = in_counts;

  g.out_neighbors_.resize(g.num_edges_);
  g.in_neighbors_.resize(g.num_edges_);
  if (weighted) {
    g.out_weights_.resize(g.num_edges_);
    g.in_weights_.resize(g.num_edges_);
  }
  std::vector<EdgeId> out_cursor = g.out_offsets_;
  std::vector<EdgeId> in_cursor = g.in_offsets_;
  for (const Edge& e : arcs.edges()) {
    EdgeId po = out_cursor[e.u]++;
    g.out_neighbors_[po] = e.v;
    EdgeId pi = in_cursor[e.v]++;
    g.in_neighbors_[pi] = e.u;
    if (weighted) {
      g.out_weights_[po] = e.w;
      g.in_weights_[pi] = e.w;
    }
  }
  return g;
}

EdgeList DirectedGraph::ToEdgeList() const {
  EdgeList out(num_nodes_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto nbrs = OutNeighbors(u);
    auto ws = OutNeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out.Add(u, nbrs[i], ws.empty() ? 1.0 : ws[i]);
    }
  }
  return out;
}

}  // namespace densest
