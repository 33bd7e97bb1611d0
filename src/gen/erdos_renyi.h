// Copyright 2026 The densest Authors.
// Erdős–Rényi random graph generators.

#ifndef DENSEST_GEN_ERDOS_RENYI_H_
#define DENSEST_GEN_ERDOS_RENYI_H_

#include "common/random.h"
#include "graph/edge_list.h"

namespace densest {

/// The n(n-1)/2 distinct node pairs of n nodes: the complete graph's edge
/// count, and so the most edges ErdosRenyiGnm can draw.
inline EdgeId NodePairs(NodeId n) { return EdgeId{n} * (n - 1) / 2; }

/// Samples a simple undirected G(n, m) graph: m distinct edges chosen
/// uniformly among the n(n-1)/2 possible. An m above n(n-1)/2 is capped
/// there, giving the complete graph. Deterministic given the seed.
EdgeList ErdosRenyiGnm(NodeId n, EdgeId m, uint64_t seed);

/// Samples undirected G(n, p): each of the n(n-1)/2 edges present
/// independently with probability p. Uses geometric skipping, so the cost is
/// proportional to the number of edges generated, not n^2.
EdgeList ErdosRenyiGnp(NodeId n, double p, uint64_t seed);

/// Directed variant of G(n, m): m distinct arcs (u != v) chosen uniformly
/// among the n(n-1) possible; an m above n(n-1) is capped there.
EdgeList ErdosRenyiDirectedGnm(NodeId n, EdgeId m, uint64_t seed);

}  // namespace densest

#endif  // DENSEST_GEN_ERDOS_RENYI_H_
