#include "mapreduce/stream_source.h"

#include <sstream>

namespace densest {

size_t StreamRecordSource::FillChunk(KV<NodeId, NodeId>* buf, size_t cap) {
  if (!weight_status_.ok()) return 0;
  scratch_.resize(cap);
  // One view per call: the engine consumes the chunk before asking for the
  // next, so reusing one scratch region is within NextView's aliasing rules.
  std::span<const Edge> view = cursor_->NextChunk(scratch_.data(), cap);
  bool unit = true;
  for (size_t i = 0; i < view.size(); ++i) {
    buf[i] = KV<NodeId, NodeId>{view[i].u, view[i].v};
    unit &= view[i].w == 1.0;
  }
  if (!unit) {
    // A record has no room for a weight; dropping it would peel a
    // different graph under the same certified band.
    size_t first = 0;
    while (view[first].w == 1.0) ++first;
    const Edge& e = view[first];
    std::ostringstream msg;
    msg << "mapreduce takes unit weights only: edge (" << e.u << ", " << e.v
        << ") has weight " << e.w;
    weight_status_ = Status::InvalidArgument(msg.str());
    return 0;
  }
  bytes_scanned_ += view.size() * kDfsRecordBytes;
  return view.size();
}

}  // namespace densest
