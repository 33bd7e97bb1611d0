#include "io/edge_list_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/failpoint.h"

namespace densest {

namespace {
constexpr long long kMaxNodeId = std::numeric_limits<NodeId>::max() - 1;
}  // namespace

StatusOr<EdgeList> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  EdgeList edges;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (DENSEST_FAILPOINT("edge_list.read") != FailpointAction::kNone) {
      // Models a mid-file device failure: same observable as in.bad().
      return Status::IOError("read error (injected): " + path + ":" +
                             std::to_string(lineno));
    }
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    auto invalid = [&](const std::string& what) {
      return Status::InvalidArgument(what + " at " + path + ":" +
                                     std::to_string(lineno));
    };
    std::istringstream ss(line);
    long long u, v;
    if (!(ss >> u >> v)) return invalid("bad edge");
    if (u < 0 || v < 0) return invalid("negative node id");
    // The node count is max id + 1, so the largest id must leave room for
    // it in a NodeId; a larger one would wrap the count or alias an id.
    if (u > kMaxNodeId || v > kMaxNodeId) {
      return invalid("node id above " + std::to_string(kMaxNodeId));
    }
    double w = 1.0;
    std::string token;
    if (ss >> token) {  // optional weight: the whole token, finite
      char* end = nullptr;
      w = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || !std::isfinite(w)) {
        return invalid("bad weight '" + token + "'");
      }
    }
    edges.Add(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
  }
  // getline exits identically on EOF and on a mid-file read error; only
  // badbit tells them apart. Returning the partial list as OK would yield
  // a plausible-looking density over a truncated edge set.
  if (in.bad()) return Status::IOError("read error: " + path);
  return edges;
}

Status WriteEdgeListText(const std::string& path, const EdgeList& edges,
                         bool weighted) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (const Edge& e : edges.edges()) {
    if (weighted) {
      out << e.u << ' ' << e.v << ' ' << e.w << '\n';
    } else {
      out << e.u << ' ' << e.v << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace densest
