// Copyright 2026 The densest Authors.
// The scan state of one *physical* pass over an EdgeStream, shared by every
// logical consumer of that pass.
//
// An EdgeStream has exactly one cursor; when K peeling runs are fused over
// the same stream (PassEngine::Drive, core/pass_engine.h), they must all
// drink from one scan instead of each resetting the stream for themselves.
// PassCursor is that one scan made explicit: the engine pulls chunks
// through it and fans each chunk across the runs, and the cursor is the
// single place where "number of times the stream was physically scanned"
// is counted — the quantity the streaming model charges for and the fused
// benches verify.

#ifndef DENSEST_STREAM_PASS_CURSOR_H_
#define DENSEST_STREAM_PASS_CURSOR_H_

#include <cstdint>
#include <span>

#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Cursor over an EdgeStream that counts physical passes and edges.
/// Not owning; the stream must outlive the cursor.
class PassCursor {
 public:
  explicit PassCursor(EdgeStream& stream) : stream_(&stream) {}

  /// Rewinds the stream and starts a new physical pass.
  void BeginPass() {
    stream_->Reset();
    ++passes_;
  }

  /// Next chunk of the current pass: up to `cap` edges, zero-copy where the
  /// stream supports it, empty exactly at end of pass. `scratch` must hold
  /// `cap` edges and follows EdgeStream::NextView's aliasing rules (one
  /// outstanding view per scratch region).
  std::span<const Edge> NextChunk(Edge* scratch, size_t cap) {
    std::span<const Edge> view = stream_->NextView(scratch, cap);
    edges_scanned_ += view.size();
    return view;
  }

  /// Accounts a pass its consumer walked through the stream's CSR view
  /// instead of NextChunk: the view holds exactly the `edges` one scan
  /// would deliver.
  void CountViewPass(uint64_t edges) { edges_scanned_ += edges; }

  EdgeStream& stream() { return *stream_; }
  /// Physical passes started so far (BeginPass calls).
  uint64_t passes() const { return passes_; }
  /// Edges delivered across all passes.
  uint64_t edges_scanned() const { return edges_scanned_; }

 private:
  EdgeStream* stream_;
  uint64_t passes_ = 0;
  uint64_t edges_scanned_ = 0;
};

}  // namespace densest

#endif  // DENSEST_STREAM_PASS_CURSOR_H_
