// Copyright 2026 The densest Authors.
// The semi-streaming substrate: edges arrive one at a time; algorithms may
// rewind and take multiple passes. Only O(n) state may be kept between
// passes (the streams themselves may be disk- or generator-backed).

#ifndef DENSEST_STREAM_EDGE_STREAM_H_
#define DENSEST_STREAM_EDGE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/retry.h"
#include "common/status.h"
#include "graph/types.h"

namespace densest {

class UndirectedGraph;
class DirectedGraph;

/// \brief A rewindable stream of edges — the input model of all streaming
/// algorithms in this library (paper §1.1: nodes known in advance, edges
/// streamed; multiple passes allowed).
///
/// Contract: after Reset(), successive Next() calls yield every edge of the
/// graph exactly once (in an arbitrary but fixed order), then return false.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Rewinds to the beginning of the stream (starts a new pass).
  virtual void Reset() = 0;

  /// Produces the next edge into *e; returns false at end of stream.
  virtual bool Next(Edge* e) = 0;

  /// Produces up to `cap` edges into `buf` and returns how many were
  /// written; 0 only at end of stream (mid-stream calls may return fewer
  /// than `cap` but never 0). Interleaves freely with Next(): both consume
  /// the same cursor. The base implementation loops over Next(); concrete
  /// streams override it to amortize the per-edge virtual dispatch away
  /// (the pass engine's hot path only calls this).
  virtual size_t NextBatch(Edge* buf, size_t cap);

  /// Zero-copy variant of NextBatch: returns a view of up to `cap` edges,
  /// advancing the same cursor; empty only at end of stream. The view
  /// stays valid until Reset() or until `scratch` is reused by another
  /// call, so callers that hold several views concurrently (the pass
  /// engine's shard rounds) must pass distinct scratch regions. The
  /// default copies through NextBatch into `scratch` (which must hold
  /// `cap` edges); streams whose edges already live in memory override it
  /// to return views of their own storage so a pass copies nothing.
  virtual std::span<const Edge> NextView(Edge* scratch, size_t cap) {
    return {scratch, NextBatch(scratch, cap)};
  }

  /// Health of the stream. Next/NextBatch/NextView signal "no more edges"
  /// by returning nothing, which deliberately conflates end-of-pass with
  /// mid-pass failure (a disk read error, a truncated file); a pass that
  /// ended early would otherwise yield a plausible-looking density computed
  /// from a silently truncated edge set. Streams that can fail set a sticky
  /// error here, and every pass driver checks it after draining a pass,
  /// aborting the run with the error instead of peeling on bad statistics.
  /// In-memory and generator streams cannot fail and keep the OK default.
  virtual Status status() const { return Status::OK(); }

  /// Outcomes of the retry loop at this stream's IO seam: transient
  /// (kUnavailable) faults that were retried, healed, or exhausted. All
  /// zero for streams that cannot fail. Surfaced through PassStats so a
  /// run that limped through transient faults is distinguishable from a
  /// clean one.
  virtual IoRetryStats io_retry_stats() const { return {}; }

  /// True when every edge is guaranteed to carry weight exactly 1.0.
  /// Unit-weight sums are exact in double precision, so the pass engine may
  /// accumulate them in any order and still be bit-reproducible; returning
  /// false (the conservative default) merely selects the slower
  /// order-deterministic path.
  virtual bool HasUnitWeights() const { return false; }

  /// CSR escape hatches: a stream backed by an in-memory CSR graph may
  /// expose it so the pass engine can run its cache-friendly kernel over
  /// the adjacency arrays instead of materializing Edge records. The
  /// exposed graph must describe exactly the edges Next() would yield.
  virtual const UndirectedGraph* UndirectedCsrView() const { return nullptr; }
  virtual const DirectedGraph* DirectedCsrView() const { return nullptr; }

  /// Number of nodes in the graph (known in advance per the semi-streaming
  /// model).
  virtual NodeId num_nodes() const = 0;

  /// Number of edges per pass, if known (0 if unknown).
  virtual EdgeId SizeHint() const { return 0; }
};

}  // namespace densest

#endif  // DENSEST_STREAM_EDGE_STREAM_H_
