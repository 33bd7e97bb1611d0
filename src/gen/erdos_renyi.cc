#include "gen/erdos_renyi.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace densest {

namespace {

inline uint64_t PairKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

EdgeList ErdosRenyiGnm(NodeId n, EdgeId m, uint64_t seed) {
  EdgeList out(n);
  if (n < 2) return out;
  m = std::min(m, NodePairs(n));
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(m * 2);
  while (out.num_edges() < m) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (seen.insert(PairKey(u, v)).second) out.Add(u, v);
  }
  return out;
}

EdgeList ErdosRenyiGnp(NodeId n, double p, uint64_t seed) {
  EdgeList out(n);
  if (n < 2 || p <= 0.0) return out;
  Rng rng(seed);
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) out.Add(u, v);
    return out;
  }
  // Batagelj–Brandes geometric skipping over the implicit edge enumeration.
  const double log1mp = std::log(1.0 - p);
  int64_t v = 1;
  int64_t u = static_cast<int64_t>(-1);
  const int64_t nn = static_cast<int64_t>(n);
  while (v < nn) {
    double r = 1.0 - rng.UniformDouble();
    u += 1 + static_cast<int64_t>(std::floor(std::log(r) / log1mp));
    while (u >= v && v < nn) {
      u -= v;
      ++v;
    }
    if (v < nn) out.Add(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return out;
}

EdgeList ErdosRenyiDirectedGnm(NodeId n, EdgeId m, uint64_t seed) {
  EdgeList out(n);
  if (n < 2) return out;
  m = std::min(m, 2 * NodePairs(n));
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(m * 2);
  while (out.num_edges() < m) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    if (u == v) continue;
    if (seen.insert(PairKey(u, v)).second) out.Add(u, v);
  }
  return out;
}

}  // namespace densest
