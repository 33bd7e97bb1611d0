// Copyright 2026 The densest Authors.
// Bridges the streaming substrate into the MapReduce engine: a
// StreamRecordSource chunks any EdgeStream — binary file, Gnp/circulant
// generator, in-memory edge list — into map-task input records through a
// PassCursor, so every MR job over it is one physical scan counted by the
// same accounting the fused streaming engines use.

#ifndef DENSEST_MAPREDUCE_STREAM_SOURCE_H_
#define DENSEST_MAPREDUCE_STREAM_SOURCE_H_

#include <vector>

#include "graph/types.h"
#include "mapreduce/job.h"
#include "stream/pass_cursor.h"

namespace densest {

/// \brief RecordSource over an EdgeStream: each Reset() begins one physical
/// pass on the shared cursor; FillChunk converts the cursor's edge views
/// into (first endpoint; second endpoint) records. The §5.2 records carry
/// no weight, so weights are rejected, not dropped: the first edge whose
/// weight is not 1.0 ends the scan with a sticky InvalidArgument. The
/// cursor must outlive the source.
class StreamRecordSource : public RecordSource<NodeId, NodeId> {
 public:
  explicit StreamRecordSource(PassCursor& cursor) : cursor_(&cursor) {}

  /// Wire size of one §5.2 edge record on the modeled DFS — the packed
  /// (u:u32, v:u32) record of the binary edge-file format. Every stream
  /// type is charged this uniformly, so the modeled scan IO is a pure
  /// function of the record count, not of which backend happened to serve
  /// the scan.
  static constexpr uint64_t kDfsRecordBytes = 2 * sizeof(NodeId);

  void Reset() override { cursor_->BeginPass(); }
  size_t FillChunk(KV<NodeId, NodeId>* buf, size_t cap) override;
  uint64_t SizeHint() const override { return cursor_->stream().SizeHint(); }
  /// The sticky weight error if one was seen, else the stream's sticky IO
  /// health; the engine aborts the job on either instead of reducing over
  /// partial or weight-stripped data.
  Status status() const override {
    return weight_status_.ok() ? cursor_->stream().status() : weight_status_;
  }
  /// kDfsRecordBytes per record delivered, across all scans.
  uint64_t bytes_scanned() const override { return bytes_scanned_; }
  /// Forwards the stream's retry-loop outcomes (transient faults healed
  /// by the prefetch retry loop show up in JobStats::io_retries).
  IoRetryStats io_retry_stats() const override {
    return cursor_->stream().io_retry_stats();
  }

 private:
  PassCursor* cursor_;
  std::vector<Edge> scratch_;
  uint64_t bytes_scanned_ = 0;
  Status weight_status_;
};

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_STREAM_SOURCE_H_
