#include "graph/subgraph.h"

#include <cmath>

namespace densest {

std::vector<NodeId> NodeSet::ToVector() const {
  std::vector<NodeId> out;
  out.reserve(count_);
  ForEachMember(*this, 0, n_, [&out](NodeId u) { out.push_back(u); });
  return out;
}

NodeSet NodeSet::FromVector(NodeId n, const std::vector<NodeId>& members) {
  NodeSet s(n);
  for (NodeId u : members) s.Insert(u);
  return s;
}

UndirectedGraph InducedSubgraph(const UndirectedGraph& g, const NodeSet& nodes,
                                std::vector<NodeId>* mapping) {
  std::vector<NodeId> old_to_new(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(nodes.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (nodes.Contains(u)) {
      old_to_new[u] = static_cast<NodeId>(new_to_old.size());
      new_to_old.push_back(u);
    }
  }
  EdgeList edges(static_cast<NodeId>(new_to_old.size()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!nodes.Contains(u)) continue;
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      if (v >= u && nodes.Contains(v)) {
        edges.Add(old_to_new[u], old_to_new[v], ws.empty() ? 1.0 : ws[i]);
      }
    }
  }
  if (mapping != nullptr) *mapping = std::move(new_to_old);
  return UndirectedGraph::FromEdgeList(edges);
}

DirectedGraph InducedSubgraphDirected(const DirectedGraph& g,
                                      const NodeSet& nodes,
                                      std::vector<NodeId>* mapping) {
  std::vector<NodeId> old_to_new(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(nodes.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (nodes.Contains(u)) {
      old_to_new[u] = static_cast<NodeId>(new_to_old.size());
      new_to_old.push_back(u);
    }
  }
  EdgeList arcs(static_cast<NodeId>(new_to_old.size()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!nodes.Contains(u)) continue;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutNeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      if (nodes.Contains(v)) {
        arcs.Add(old_to_new[u], old_to_new[v], ws.empty() ? 1.0 : ws[i]);
      }
    }
  }
  if (mapping != nullptr) *mapping = std::move(new_to_old);
  return DirectedGraph::FromEdgeList(arcs);
}

InducedEdgeCount CountInducedEdges(const UndirectedGraph& g,
                                   const NodeSet& nodes) {
  InducedEdgeCount out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!nodes.Contains(u)) continue;
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      if (v >= u && nodes.Contains(v)) {
        ++out.edges;
        out.weight += ws.empty() ? 1.0 : ws[i];
      }
    }
  }
  return out;
}

double InducedDensity(const UndirectedGraph& g, const NodeSet& nodes) {
  if (nodes.empty()) return 0.0;
  return CountInducedEdges(g, nodes).weight / static_cast<double>(nodes.size());
}

double InducedDensityDirected(const DirectedGraph& g, const NodeSet& s,
                              const NodeSet& t) {
  if (s.empty() || t.empty()) return 0.0;
  Weight total = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!s.Contains(u)) continue;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutNeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (t.Contains(nbrs[i])) total += ws.empty() ? 1.0 : ws[i];
    }
  }
  return total / std::sqrt(static_cast<double>(s.size()) *
                           static_cast<double>(t.size()));
}

}  // namespace densest
