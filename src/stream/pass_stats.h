// Copyright 2026 The densest Authors.
// Accounting for the streaming model: passes and edges scanned.

#ifndef DENSEST_STREAM_PASS_STATS_H_
#define DENSEST_STREAM_PASS_STATS_H_

#include <cstdint>
#include <string>

#include "stream/edge_stream.h"

namespace densest {

/// \brief Counters a streaming algorithm accumulates while consuming a
/// stream. Passes are counted on Reset(); edges on NextView().
struct PassStats {
  uint64_t passes = 0;
  uint64_t edges_scanned = 0;

  std::string ToString() const;
};

/// \brief Decorator that counts passes and edges flowing through an
/// underlying stream. Algorithms take an EdgeStream&; wrapping it in a
/// CountingEdgeStream makes the pass/edge accounting externally visible.
class CountingEdgeStream : public EdgeStream {
 public:
  CountingEdgeStream(EdgeStream& inner, PassStats& stats)
      : inner_(&inner), stats_(&stats) {}

  void Reset() override {
    ++stats_->passes;
    inner_->Reset();
  }
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override {
    std::span<const Edge> view = inner_->NextView(scratch, cap);
    stats_->edges_scanned += view.size();
    return view;
  }
  Status status() const override { return inner_->status(); }
  IoRetryStats io_retry_stats() const override {
    return inner_->io_retry_stats();
  }
  // The CSR views are deliberately NOT forwarded: the pass engine's CSR
  // kernel reads the graph without flowing edges through this decorator,
  // which would silently break the edges_scanned accounting.
  NodeId num_nodes() const override { return inner_->num_nodes(); }
  EdgeId SizeHint() const override { return inner_->SizeHint(); }

 private:
  EdgeStream* inner_;
  PassStats* stats_;
};

}  // namespace densest

#endif  // DENSEST_STREAM_PASS_STATS_H_
