// Copyright 2026 The densest Authors.
// The single registry of failpoint names. Every DENSEST_FAILPOINT seam in
// the library must use a name listed here, and Failpoints::Set refuses to
// arm anything else — so a typo in a test or a --failpoint flag fails
// loudly instead of silently arming a point that no seam ever evaluates.
//
// Grammar: `subsystem.operation`, both segments lowercase
// [a-z0-9_]+ — e.g. "spill.read_at". The `t` subsystem is reserved for
// tests exercising the registry itself (t.* names are armable but no
// library seam evaluates them).
//
// tools/lint.py cross-checks this list against the tree: every
// DENSEST_FAILPOINT("...") literal in src/ must appear here, every entry
// here must be evaluated by some seam, and every name must match the
// grammar. Add the name here in the same change that adds the seam.

#ifndef DENSEST_COMMON_FAILPOINT_NAMES_H_
#define DENSEST_COMMON_FAILPOINT_NAMES_H_

#include <cstddef>
#include <string_view>

namespace densest {

/// Canonical failpoint names, sorted. Keep in sync with the
/// DENSEST_FAILPOINT seams (tools/lint.py enforces both directions).
inline constexpr std::string_view kFailpointNames[] = {
    "edge_file.write",     // WriteBinaryEdgeFile body writes
    "edge_list.read",      // text edge-list parsing
    "edge_stream.read",    // BinaryFileEdgeStream prefetch fread
    "replay.crash",        // ReplayUpdates mid-replay process kill
    "serve.enqueue",       // QueryService submit-side admission
    "snapshot.read",       // snapshot file read/decode
    "snapshot.write",      // snapshot temp-file write
    "spill.append",        // SpillFile::Append
    "spill.read_at",       // SpillFile::ReadAt (merge path)
    "update_file.flush",   // WriteBinaryUpdateFile final flush
    "update_file.write",   // WriteBinaryUpdateFile body writes
    "update_stream.read",  // BinaryFileUpdateStream reads
};

/// True when `name` matches the `subsystem.operation` grammar.
constexpr bool FailpointNameWellFormed(std::string_view name) {
  auto segment_ok = [](std::string_view seg) {
    if (seg.empty()) return false;
    for (char c : seg) {
      const bool ok =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
      if (!ok) return false;
    }
    return true;
  };
  const size_t dot = name.find('.');
  if (dot == std::string_view::npos) return false;
  if (name.find('.', dot + 1) != std::string_view::npos) return false;
  return segment_ok(name.substr(0, dot)) && segment_ok(name.substr(dot + 1));
}

/// True when `name` may be armed: a registered seam name, or a well-formed
/// name in the reserved test subsystem `t`.
constexpr bool IsRegisteredFailpoint(std::string_view name) {
  if (!FailpointNameWellFormed(name)) return false;
  if (name.substr(0, 2) == "t.") return true;
  for (std::string_view registered : kFailpointNames) {
    if (name == registered) return true;
  }
  return false;
}

}  // namespace densest

#endif  // DENSEST_COMMON_FAILPOINT_NAMES_H_
