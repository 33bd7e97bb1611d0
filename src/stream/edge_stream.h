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
#include "graph/edge_list.h"
#include "graph/types.h"

namespace densest {

class UndirectedGraph;
class DirectedGraph;

/// \brief A rewindable stream of edges — the input model of all streaming
/// algorithms in this library (paper §1.1: nodes known in advance, edges
/// streamed; multiple passes allowed).
///
/// Contract: after Reset(), successive NextView() calls yield every edge of
/// the graph exactly once (in an arbitrary but fixed order), then empty
/// views. NextView is the one read a stream implements; Next and NextBatch
/// are helpers over it, so every read path of a stream shares one body.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Rewinds to the beginning of the stream (starts a new pass).
  virtual void Reset() = 0;

  /// The read primitive: returns the next up to `cap` edges of the pass.
  /// - The view lies in the stream's own storage (in-memory and cached
  ///   streams: a pass copies nothing) or in `scratch`, which must hold
  ///   `cap` edges.
  /// - It stays valid until Reset() or the next call that uses the same
  ///   `scratch`; callers holding several views at once (the pass
  ///   engine's shard rounds) pass distinct scratch regions.
  /// - It is empty only at end of pass or after a sticky error (status()).
  /// - `cap == 0` returns an empty view and changes no state.
  virtual std::span<const Edge> NextView(Edge* scratch, size_t cap) = 0;

  /// Helper: copies the next edge into *e; false at end of pass.
  bool Next(Edge* e);

  /// Helper: copies up to `cap` edges into `buf` and returns how many;
  /// 0 only at end of pass. One NextView call, so it shares the cursor
  /// with the other reads.
  size_t NextBatch(Edge* buf, size_t cap);

  /// Health of the stream. An empty view signals "no more edges", which
  /// deliberately conflates end-of-pass with mid-pass failure (a disk read
  /// error, a truncated or corrupt file); a pass that ended early would
  /// otherwise yield a plausible-looking density computed from a silently
  /// truncated edge set. Streams that can fail set a sticky error here,
  /// and every pass driver checks it after draining a pass, aborting the
  /// run with the error instead of peeling on bad statistics. In-memory
  /// and generator streams cannot fail and keep the OK default.
  virtual Status status() const { return Status::OK(); }

  /// Outcomes of the retry loop at this stream's IO seam: transient
  /// (kUnavailable) faults that were retried, healed, or exhausted. All
  /// zero for streams that cannot fail; decorators forward their inner
  /// stream's, so a run that limped through transient faults is
  /// distinguishable from a clean one.
  virtual IoRetryStats io_retry_stats() const { return {}; }

  /// CSR escape hatches: a stream backed by an in-memory CSR graph may
  /// expose it so the pass engine can run its cache-friendly kernel over
  /// the adjacency arrays instead of materializing Edge records. The
  /// exposed graph must describe exactly the edges a pass would yield.
  virtual const UndirectedGraph* UndirectedCsrView() const { return nullptr; }
  virtual const DirectedGraph* DirectedCsrView() const { return nullptr; }

  /// Number of nodes in the graph (known in advance per the semi-streaming
  /// model).
  virtual NodeId num_nodes() const = 0;

  /// Number of edges per pass, if known (0 if unknown).
  virtual EdgeId SizeHint() const { return 0; }
};

/// Drains one full pass of `stream` into an EdgeList over its num_nodes(),
/// reserving SizeHint() edges up front. Fails with the stream's status()
/// when the pass ended early (a truncated, corrupt or failing file):
/// analyzing the partial edge set would yield a plausible wrong density.
StatusOr<EdgeList> ReadAllEdges(EdgeStream& stream);

}  // namespace densest

#endif  // DENSEST_STREAM_EDGE_STREAM_H_
