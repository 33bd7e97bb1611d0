// Copyright 2026 The densest Authors.
// Between-pass state of the streaming peeling algorithms: O(n) memory per
// the semi-streaming model — alive bitmaps and degree counters per node
// (record rounds on a pool keep up to kShardSlots accumulator copies, a
// constant factor on top of that; CSR row pulls keep none). The pass
// result types and the batched
// execution live in core/pass_engine.h; these free functions are
// convenience wrappers over the process-wide default engine and are not
// safe for concurrent calls — concurrent runs need a private PassEngine.

#ifndef DENSEST_CORE_PEEL_STATE_H_
#define DENSEST_CORE_PEEL_STATE_H_

#include <vector>

#include "core/pass_engine.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "stream/edge_stream.h"

namespace densest {

/// Streams all edges once and accumulates deg_S for alive nodes.
/// `degrees` must have size num_nodes and is overwritten. Runs on
/// DefaultPassEngine() — batched, and multi-threaded where the hardware
/// allows; results are identical to the scalar definition regardless of
/// thread count.
UndirectedPassResult RunUndirectedPass(EdgeStream& stream,
                                       const NodeSet& alive,
                                       std::vector<double>& degrees);

/// Streams all arcs once; accumulates out_to_t[u] over u in S and
/// in_from_s[v] over v in T. Both vectors must have size num_nodes and are
/// overwritten. Runs on DefaultPassEngine().
DirectedPassResult RunDirectedPass(EdgeStream& stream, const NodeSet& s,
                                   const NodeSet& t,
                                   std::vector<double>& out_to_t,
                                   std::vector<double>& in_from_s);

}  // namespace densest

#endif  // DENSEST_CORE_PEEL_STATE_H_
