#include "stream/edge_stream.h"

#include <algorithm>

namespace densest {

bool EdgeStream::Next(Edge* e) {
  const std::span<const Edge> view = NextView(e, 1);
  if (view.empty()) return false;
  *e = view.front();
  return true;
}

size_t EdgeStream::NextBatch(Edge* buf, size_t cap) {
  const std::span<const Edge> view = NextView(buf, cap);
  if (view.data() != buf) std::copy(view.begin(), view.end(), buf);
  return view.size();
}

StatusOr<EdgeList> ReadAllEdges(EdgeStream& stream) {
  EdgeList edges(stream.num_nodes());
  edges.mutable_edges().reserve(static_cast<size_t>(stream.SizeHint()));
  Edge scratch[1024];
  stream.Reset();
  for (;;) {
    const std::span<const Edge> view =
        stream.NextView(scratch, std::size(scratch));
    if (view.empty()) break;
    for (const Edge& e : view) edges.Add(e.u, e.v, e.w);
  }
  if (Status io = stream.status(); !io.ok()) return io;
  return edges;
}

}  // namespace densest
