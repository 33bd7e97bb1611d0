// Copyright 2026 The densest Authors.
// Generator-backed edge streams: the edges are *recomputed* on every pass
// instead of stored anywhere. This is the extreme point of the
// semi-streaming model — O(1) stream state — and is how experiments beyond
// RAM size can still be driven deterministically.
//
// Each generator optionally records its first completed pass into an
// in-memory edge vector (capped by a byte budget): passes 2..P then serve
// zero-copy views of that vector — the same fast path an EdgeListStream
// takes — instead of re-running the generator per edge. The replayed
// sequence is bit-identical to regeneration (generators are deterministic),
// so this trades memory for compute without changing any result.

#ifndef DENSEST_STREAM_GENERATED_STREAM_H_
#define DENSEST_STREAM_GENERATED_STREAM_H_

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief First-pass recorder shared by the generator streams.
///
/// States: disabled (budget 0 or blown) -> recording (first pass) ->
/// serving (complete pass captured; replay from memory). A Reset before the
/// first pass completed restarts recording from scratch.
class EdgeCache {
 public:
  /// `budget_bytes` caps the materialized pass (0 disables caching).
  explicit EdgeCache(size_t budget_bytes)
      : max_edges_(budget_bytes / sizeof(Edge)) {
    if (max_edges_ == 0) abandoned_ = true;
  }

  /// True once a full pass is captured and replay is active.
  bool serving() const { return serving_; }

  /// Records one generated edge of the current (first) pass.
  void Record(const Edge& e) {
    if (abandoned_) return;
    if (edges_.size() >= max_edges_) {
      Abandon();
      return;
    }
    edges_.push_back(e);
  }

  /// The generator reported end of pass: the recording is complete.
  void MarkComplete() {
    if (!abandoned_) complete_ = true;
  }

  /// Pass boundary. Promotes a complete recording to serving, restarts an
  /// incomplete one, and rewinds the replay cursor.
  void OnReset() {
    if (complete_) serving_ = true;
    if (!serving_) edges_.clear();
    pos_ = 0;
  }

  /// Replay: zero-copy view of up to `cap` cached edges.
  std::span<const Edge> NextView(size_t cap) {
    const size_t take = std::min(cap, edges_.size() - pos_);
    std::span<const Edge> view(edges_.data() + pos_, take);
    pos_ += take;
    return view;
  }

  /// Cached pass length (only meaningful while serving()).
  EdgeId size() const { return static_cast<EdgeId>(edges_.size()); }

 private:
  void Abandon() {
    abandoned_ = true;
    edges_.clear();
    edges_.shrink_to_fit();
  }

  size_t max_edges_;
  std::vector<Edge> edges_;
  size_t pos_ = 0;
  bool complete_ = false;
  bool serving_ = false;
  bool abandoned_ = false;
};

/// \brief Streams the edges of an Erdős–Rényi G(n, p) graph using
/// Batagelj–Brandes geometric skipping, regenerating the identical edge
/// sequence on every pass from the seed. Nothing is materialized unless a
/// cache budget is given: state is a few machine words.
class GnpEdgeStream : public EdgeStream {
 public:
  /// G(n, p) with the given seed; the same (n, p, seed) triple always
  /// yields the same graph. `materialize_budget_bytes` > 0 records the
  /// first pass (up to that many bytes of edges) and serves later passes
  /// zero-copy from memory; if the graph outgrows the budget, caching is
  /// abandoned and every pass regenerates as before.
  GnpEdgeStream(NodeId n, double p, uint64_t seed,
                size_t materialize_budget_bytes = 0);

  void Reset() override;
  /// Serves the cached pass zero-copy, or generates into `scratch` (and
  /// records it, while the first pass is being captured).
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  NodeId num_nodes() const override { return n_; }
  /// Exact once a pass has been materialized; 0 (unknown) before that.
  EdgeId SizeHint() const override {
    return cache_.serving() ? cache_.size() : 0;
  }

 private:
  bool GenerateNext(Edge* e);

  NodeId n_;
  double p_;
  uint64_t seed_;
  double log1mp_;
  Rng rng_;
  int64_t u_ = -1;
  int64_t v_ = 1;
  bool exhausted_ = false;
  EdgeCache cache_;
};

/// \brief Streams a deterministic circulant d-regular graph on n nodes,
/// computing each edge from its index. Zero storage (unless a cache budget
/// is given); useful for the Lemma 5 pass-lower-bound experiments at sizes
/// where materializing the blocks would be wasteful.
class CirculantEdgeStream : public EdgeStream {
 public:
  /// Requires d even and d < n (the matching case of odd d is only needed
  /// by the materialized generator). The edge count is known up front, so
  /// `materialize_budget_bytes` either fits the whole pass or is ignored.
  CirculantEdgeStream(NodeId n, NodeId d, size_t materialize_budget_bytes = 0);

  void Reset() override;
  /// Serves the cached pass zero-copy, or emits offset rings into
  /// `scratch` (and records them, while the first pass is being captured).
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override;
  NodeId num_nodes() const override { return n_; }
  EdgeId SizeHint() const override {
    return static_cast<EdgeId>(n_) * (d_ / 2);
  }

 private:
  NodeId n_, d_;
  NodeId node_ = 0;
  NodeId offset_ = 1;
  EdgeCache cache_;
};

}  // namespace densest

#endif  // DENSEST_STREAM_GENERATED_STREAM_H_
