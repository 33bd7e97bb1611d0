// Copyright 2026 The densest Authors.
// Text edge-list IO (SNAP-compatible "u v [w]" lines).

#ifndef DENSEST_IO_EDGE_LIST_IO_H_
#define DENSEST_IO_EDGE_LIST_IO_H_

#include <string>

#include "common/status.h"
#include "graph/edge_list.h"

namespace densest {

/// Reads a whitespace-separated edge list: one "u v" or "u v w" per line;
/// lines starting with '#' or '%' are comments. Node ids must be integers
/// in [0, 2^32 - 2] (not necessarily contiguous; num_nodes becomes
/// max id + 1), and a weight must be a finite number. Any other line fails
/// with InvalidArgument naming path:line.
StatusOr<EdgeList> ReadEdgeListText(const std::string& path);

/// Writes "u v" (or "u v w" when weighted=true) lines.
Status WriteEdgeListText(const std::string& path, const EdgeList& edges,
                         bool weighted = false);

}  // namespace densest

#endif  // DENSEST_IO_EDGE_LIST_IO_H_
