// Copyright 2026 The densest Authors.
// Algorithm 1 of the paper: streaming (2+2eps)-approximation for the
// undirected densest subgraph in O(log_{1+eps} n) passes and O(n) memory.

#ifndef DENSEST_CORE_ALGORITHM1_H_
#define DENSEST_CORE_ALGORITHM1_H_

#include "common/cancel.h"
#include "common/status.h"
#include "core/density.h"
#include "graph/undirected_graph.h"
#include "stream/edge_stream.h"

namespace densest {

class PassEngine;

/// \brief Knobs for Algorithm 1.
struct Algorithm1Options {
  /// The epsilon of the paper: each pass removes every node with
  /// deg_S(i) <= 2(1+epsilon) rho(S). Larger epsilon = fewer passes,
  /// looser (2+2eps) worst-case guarantee. epsilon = 0 mimics Charikar's
  /// threshold; termination still holds because the minimum-degree node is
  /// never above the average-degree threshold.
  double epsilon = 0.5;
  /// Safety cap on passes (0 = uncapped). The theoretical bound is
  /// O(log_{1+eps} n); the cap only exists to bound pathological inputs.
  uint64_t max_passes = 100000;
  /// Record a PassSnapshot per pass (Figures 6.2/6.3 need this).
  bool record_trace = true;
  /// The paper's §6.3 observation: the graph shrinks by orders of
  /// magnitude in the first passes, so "the rest of the computation can be
  /// done in main memory". When > 0, once a pass sees at most this many
  /// surviving edges the algorithm buffers them and stops re-scanning the
  /// input stream; all later passes run over the in-memory buffer. The
  /// result is bit-identical to the uncompacted run — only IO changes —
  /// for unit weights on any stream, and for weighted record streams too:
  /// a buffer pass adds the same values in the same order as the stream
  /// pass it replaces. A buffer pass polls `cancel` between rounds like a
  /// stream pass; a cancelled one leaves the buffer as it was, and the
  /// run reports the cancellation. 0 disables compaction.
  EdgeId compact_below_edges = 0;
  /// Pass engine that drives the run (a one-run PassEngine drive, the same
  /// scheduler every sweep uses). nullptr uses the shared
  /// DefaultPassEngine(); callers running algorithms concurrently from
  /// several threads must each supply a private engine (the shared one
  /// holds mutable scratch and is not thread-safe). Ignored by the sweep
  /// entry points, which drive every run on their own engine.
  PassEngine* engine = nullptr;
  /// Optional cooperative cancellation: polled once per shard round, so a
  /// cancel/deadline is observed within one bounded unit of work and the
  /// run returns kCancelled/kDeadlineExceeded. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Runs Algorithm 1 over an edge stream (one Reset+scan per pass): a
/// one-run PassEngine::RunUndirectedRuns. The stream may be disk-, memory-
/// or generator-backed; only O(n) state is kept between passes. Fails with
/// InvalidArgument for an epsilon that is negative, NaN or infinite, or an
/// empty node set.
StatusOr<UndirectedDensestResult> RunAlgorithm1(EdgeStream& stream,
                                                const Algorithm1Options& options);

/// Convenience wrapper: streams a CSR graph from memory.
StatusOr<UndirectedDensestResult> RunAlgorithm1(const UndirectedGraph& g,
                                                const Algorithm1Options& options);

}  // namespace densest

#endif  // DENSEST_CORE_ALGORITHM1_H_
