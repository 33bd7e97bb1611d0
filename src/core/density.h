// Copyright 2026 The densest Authors.
// Shared result types for the densest-subgraph algorithms: densities,
// per-pass traces (the raw material of the paper's Figures 6.2–6.5), and
// the returned subgraphs.

#ifndef DENSEST_CORE_DENSITY_H_
#define DENSEST_CORE_DENSITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/answer.h"
#include "graph/types.h"

namespace densest {

/// \brief State of the undirected peeling process at one pass.
struct PassSnapshot {
  uint64_t pass = 0;        ///< 1-based pass index.
  NodeId nodes = 0;         ///< |S| at the start of the pass.
  EdgeId edges = 0;         ///< |E(S)| induced edge count.
  double weight = 0;        ///< induced total weight (== edges if unweighted).
  double density = 0;       ///< rho(S) = weight / |S|.
  double threshold = 0;     ///< removal threshold used in this pass.
  NodeId removed = 0;       ///< |A(S)| nodes removed at the end of the pass.
};

/// \brief Output of the undirected algorithms (Algorithms 1 and 2,
/// Charikar's greedy, the sketched variant).
struct [[nodiscard]] UndirectedDensestResult {
  /// Node ids of the returned subgraph S~ (ascending).
  std::vector<NodeId> nodes;
  /// rho(S~).
  double density = 0;
  /// Number of streaming passes taken (1 pass = 1 full scan of the edges).
  uint64_t passes = 0;
  /// Passes that scanned the *external* stream. Equal to `passes` unless
  /// in-memory compaction (Algorithm1Options::compact_below_edges) kicked
  /// in, in which case the remaining passes ran over the internal buffer.
  uint64_t io_passes = 0;
  /// The driver's approximation guarantee: rho* <= certified_band *
  /// density. Set at result construction from the algorithm's proven
  /// factor — 2(1+eps) for Algorithm 1, 3(1+eps) for Algorithm 2, 2 for
  /// Charikar / max-core. 0 = no recorded band (e.g. the sketched variant,
  /// whose oracle estimates void the deterministic proof); ToAnswer() then
  /// reports the answer uncertified.
  double certified_band = 0;
  /// Per-pass trace (empty if tracing was disabled).
  std::vector<PassSnapshot> trace;

  /// The unified serving view (core/answer.h): density + the band-implied
  /// certified upper bound, comparable field-for-field with answers from
  /// the dynamic engine and the serving plane. Batch answers are never
  /// stale and carry epoch 0.
  Answer ToAnswer() const;
};

/// \brief State of the directed peeling process at one pass.
struct DirectedPassSnapshot {
  uint64_t pass = 0;
  NodeId s_size = 0;        ///< |S| at the start of the pass.
  NodeId t_size = 0;        ///< |T| at the start of the pass.
  double weight = 0;        ///< |E(S,T)| (weighted).
  double density = 0;       ///< rho(S,T).
  bool removed_from_s = false;  ///< whether this pass peeled A(S) or B(T).
  NodeId removed = 0;
};

/// \brief Output of the directed algorithm (Algorithm 3) for one ratio c.
struct [[nodiscard]] DirectedDensestResult {
  std::vector<NodeId> s_nodes;
  std::vector<NodeId> t_nodes;
  /// rho(S~, T~) = |E(S~,T~)| / sqrt(|S~| |T~|).
  double density = 0;
  uint64_t passes = 0;
  /// The size ratio c this run assumed.
  double c = 1.0;
  /// rho*(c) <= certified_band * density for this c (2(1+eps) for
  /// Algorithm 3); 0 = no recorded band. See UndirectedDensestResult.
  double certified_band = 0;
  std::vector<DirectedPassSnapshot> trace;

  /// The unified serving view; size counts |S~| + |T~|.
  Answer ToAnswer() const;
};

/// OK for an epsilon the peeling drivers accept: finite and >= 0.
/// InvalidArgument naming `name` otherwise — NaN and infinity included,
/// which a bare `epsilon < 0` test lets through.
Status CheckEpsilon(double epsilon, const char* name = "epsilon");

/// Renders "rho=… |S|=… passes=…" for logs and examples.
std::string Summarize(const UndirectedDensestResult& r);
/// Renders "rho=… |S|=… |T|=… c=… passes=…".
std::string Summarize(const DirectedDensestResult& r);

}  // namespace densest

#endif  // DENSEST_CORE_DENSITY_H_
