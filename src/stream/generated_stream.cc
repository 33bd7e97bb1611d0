#include "stream/generated_stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace densest {

GnpEdgeStream::GnpEdgeStream(NodeId n, double p, uint64_t seed,
                             size_t materialize_budget_bytes)
    : n_(n),
      p_(p),
      seed_(seed),
      log1mp_(p > 0 && p < 1 ? std::log(1.0 - p) : 0.0),
      rng_(seed),
      cache_(materialize_budget_bytes) {
  Reset();
}

void GnpEdgeStream::Reset() {
  cache_.OnReset();
  rng_ = Rng(seed_);
  u_ = -1;
  v_ = 1;
  exhausted_ = (p_ <= 0.0 || n_ < 2);
}

bool GnpEdgeStream::GenerateNext(Edge* e) {
  if (exhausted_) return false;
  const int64_t n = static_cast<int64_t>(n_);
  if (p_ >= 1.0) {
    // Dense corner case: enumerate all pairs directly.
    ++u_;
    if (u_ >= v_) {
      u_ = 0;
      ++v_;
      if (v_ >= n) {
        exhausted_ = true;
        return false;
      }
    }
    *e = Edge(static_cast<NodeId>(u_), static_cast<NodeId>(v_));
    return true;
  }
  // Geometric skip to the next present edge in the (u < v) enumeration.
  double r = 1.0 - rng_.UniformDouble();
  u_ += 1 + static_cast<int64_t>(std::floor(std::log(r) / log1mp_));
  while (u_ >= v_ && v_ < n) {
    u_ -= v_;
    ++v_;
  }
  if (v_ >= n) {
    exhausted_ = true;
    return false;
  }
  *e = Edge(static_cast<NodeId>(u_), static_cast<NodeId>(v_));
  return true;
}

std::span<const Edge> GnpEdgeStream::NextView(Edge* scratch, size_t cap) {
  if (cache_.serving()) return cache_.NextView(cap);
  size_t produced = 0;
  while (produced < cap && GenerateNext(&scratch[produced])) {
    cache_.Record(scratch[produced]);
    ++produced;
  }
  // Short of `cap` only when the generator ran dry; a cap == 0 call
  // mid-pass must not promote a partial recording.
  if (produced < cap) cache_.MarkComplete();
  return {scratch, produced};
}

CirculantEdgeStream::CirculantEdgeStream(NodeId n, NodeId d,
                                         size_t materialize_budget_bytes)
    : n_(n),
      d_(d),
      // The pass length is known up front: either the whole pass fits the
      // budget or recording is pointless, so decide here.
      cache_(static_cast<EdgeId>(n) * (d / 2) * sizeof(Edge) <=
                     materialize_budget_bytes
                 ? materialize_budget_bytes
                 : 0) {
  assert(d % 2 == 0 && d < n);
  Reset();
}

void CirculantEdgeStream::Reset() {
  cache_.OnReset();
  node_ = 0;
  offset_ = 1;
}

std::span<const Edge> CirculantEdgeStream::NextView(Edge* scratch,
                                                    size_t cap) {
  if (cache_.serving()) return cache_.NextView(cap);
  size_t produced = 0;
  while (produced < cap && d_ != 0 && offset_ <= d_ / 2) {
    // Emit the rest of the current offset ring in one tight loop.
    const NodeId take = static_cast<NodeId>(std::min<size_t>(
        cap - produced, static_cast<size_t>(n_ - node_)));
    for (NodeId i = 0; i < take; ++i) {
      NodeId u = node_ + i;
      NodeId v = u + offset_;
      scratch[produced + i] = Edge(u, v >= n_ ? v - n_ : v);
    }
    produced += take;
    node_ += take;
    if (node_ == n_) {
      node_ = 0;
      ++offset_;
    }
  }
  for (size_t i = 0; i < produced; ++i) cache_.Record(scratch[i]);
  // Complete only on actual generator exhaustion — a cap==0 call mid-pass
  // must not promote a partial recording.
  if (d_ == 0 || offset_ > d_ / 2) cache_.MarkComplete();
  return {scratch, produced};
}

}  // namespace densest
