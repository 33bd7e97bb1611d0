#include "flow/goldberg.h"

#include <algorithm>
#include <cmath>

#include "flow/dinic.h"
#include "graph/subgraph.h"

namespace densest {

StatusOr<ExactDensestResult> ExactDensestSubgraph(
    const UndirectedGraph& g, const ExactDensestOptions& options) {
  const NodeId n = g.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  ExactDensestResult result;
  const double total_weight = g.total_weight();
  if (total_weight <= 0) {
    // Edgeless graph: every subset has density 0; a singleton is optimal.
    result.nodes = {0};
    result.density = 0;
    return result;
  }

  // Network layout: graph nodes 0..n-1, source = n, sink = n+1.
  const int source = static_cast<int>(n);
  const int sink = static_cast<int>(n) + 1;
  Dinic dinic(static_cast<int>(n) + 2, {.cancel = options.cancel});

  std::vector<int> sink_arcs(n);
  std::vector<double> wdeg(n);
  for (NodeId u = 0; u < n; ++u) {
    wdeg[u] = g.WeightedDegree(u);
    dinic.AddArc(source, static_cast<int>(u), total_weight);
    sink_arcs[u] = dinic.AddArc(static_cast<int>(u), sink, 0.0);
  }
  for (NodeId u = 0; u < n; ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      NodeId v = nbrs[i];
      if (v <= u) continue;  // one pair of opposed arcs per undirected edge
      double w = ws.empty() ? 1.0 : ws[i];
      dinic.AddArc(static_cast<int>(u), static_cast<int>(v), w, w);
    }
  }

  // Cut-gap tolerance: for unweighted graphs two distinct densities differ
  // by at least 1/(n(n-1)), giving a cut gap of at least 2/n; for weighted
  // graphs fall back to a relative tolerance.
  const double gap_tolerance =
      g.is_weighted()
          ? std::max(1e-9, 1e-12 * total_weight * static_cast<double>(n))
          : 1.0 / (2.0 * static_cast<double>(n));

  // Start from the trivial candidate S = V.
  NodeSet best(n, /*full=*/true);
  double best_density = total_weight / static_cast<double>(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Per-iteration poll; MaxFlow additionally polls per BFS phase (the
    // token rides in DinicOptions above) and returns a partial flow when tripped, so the
    // re-check after the solve is what keeps a truncated flow value from
    // being mistaken for a converged one.
    if (Status c = CheckCancel(options.cancel); !c.ok()) return c;
    const double guess = best_density;
    for (NodeId u = 0; u < n; ++u) {
      dinic.SetArcCapacity(sink_arcs[u],
                           total_weight + 2.0 * guess - wdeg[u]);
    }
    dinic.ResetFlow();
    double flow = dinic.MaxFlow(source, sink);
    ++result.flow_iterations;
    // A token tripped mid-solve yields a partial flow whose residual
    // network certifies nothing; fail before reading a cut from it.
    if (Status c = CheckCancel(options.cancel); !c.ok()) return c;

    const double cut_bound = total_weight * static_cast<double>(n);
    if (flow >= cut_bound - gap_tolerance) break;  // no denser set exists

    std::vector<uint8_t> side = dinic.MinCutSourceSide(source);
    NodeSet candidate(n);
    for (NodeId u = 0; u < n; ++u) {
      if (side[u]) candidate.Insert(u);
    }
    if (candidate.empty()) break;
    double candidate_density = InducedDensity(g, candidate);
    if (candidate_density <= best_density) break;  // numerically converged
    best = candidate;
    best_density = candidate_density;
  }

  result.nodes = best.ToVector();
  result.density = best_density;
  return result;
}

}  // namespace densest
