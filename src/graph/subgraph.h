// Copyright 2026 The densest Authors.
// Node subsets and induced subgraph extraction.

#ifndef DENSEST_GRAPH_SUBGRAPH_H_
#define DENSEST_GRAPH_SUBGRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/edge_list.h"
#include "graph/types.h"
#include "graph/undirected_graph.h"

namespace densest {

/// \brief Word-packed bitset over node ids with a maintained popcount.
///
/// This is the O(n)-memory set the streaming algorithms keep between passes.
/// Membership lives in 64-bit words (64 nodes per cache line octet), which is
/// what lets the pass engine test both endpoints of an edge with two loads
/// and a branchless AND instead of two byte loads and two branches.
class NodeSet {
 public:
  NodeSet() = default;
  /// Creates a set over the universe [0, n); initially empty or full.
  explicit NodeSet(NodeId n, bool full = false)
      : n_(n),
        words_((static_cast<size_t>(n) + 63) / 64, full ? ~uint64_t{0} : 0),
        count_(full ? n : 0) {
    if (full && (n & 63) != 0) {
      // Clear the tail bits beyond the universe in the last word.
      words_.back() &= (uint64_t{1} << (n & 63)) - 1;
    }
  }

  /// Universe size.
  NodeId universe_size() const { return n_; }
  /// Number of members.
  NodeId size() const { return count_; }
  /// True iff no members.
  bool empty() const { return count_ == 0; }
  /// Membership test.
  bool Contains(NodeId u) const {
    return (words_[u >> 6] >> (u & 63)) & 1;
  }
  /// Branchless test that both u and v are members (the hot predicate of
  /// every undirected streaming pass).
  bool ContainsBoth(NodeId u, NodeId v) const {
    return ((words_[u >> 6] >> (u & 63)) & (words_[v >> 6] >> (v & 63)) & 1) !=
           0;
  }

  /// Inserts u (no-op if present).
  void Insert(NodeId u) {
    const uint64_t mask = uint64_t{1} << (u & 63);
    uint64_t& word = words_[u >> 6];
    count_ += static_cast<NodeId>(!(word & mask));
    word |= mask;
  }
  /// Removes u (no-op if absent).
  void Remove(NodeId u) {
    const uint64_t mask = uint64_t{1} << (u & 63);
    uint64_t& word = words_[u >> 6];
    count_ -= static_cast<NodeId>((word & mask) != 0);
    word &= ~mask;
  }

  /// The packed words, 64 node bits each (bit i of word w = node 64w + i).
  /// Exposed for word-at-a-time consumers (pass engine, sweeps).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Members in increasing order.
  std::vector<NodeId> ToVector() const;

  /// Builds a set from explicit members over universe [0, n).
  static NodeSet FromVector(NodeId n, const std::vector<NodeId>& members);

 private:
  NodeId n_ = 0;
  std::vector<uint64_t> words_;
  NodeId count_ = 0;
};

/// Calls fn(u) for every member u of `set` in [begin, end), in increasing
/// order, a word at a time: a word with no member costs one load and no
/// call, so a walk costs O((end - begin) / 64 + members). fn may Remove the
/// member it is handed (a word is read before any of its members is
/// visited), but no other member of the set. Requires end <=
/// set.universe_size().
template <typename Fn>
void ForEachMember(const NodeSet& set, NodeId begin, NodeId end, Fn&& fn) {
  if (begin >= end) return;
  const uint64_t* words = set.words().data();
  const size_t last = (size_t{end} - 1) >> 6;
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  size_t w = begin >> 6;
  uint64_t word = words[w] & (~uint64_t{0} << (begin & 63));
  for (;;) {
    if (w == last) word &= last_mask;
    for (; word != 0; word &= word - 1) {
      fn(static_cast<NodeId>(w * 64 + std::countr_zero(word)));
    }
    if (w == last) return;
    word = words[++w];
  }
}

/// \brief Extracts the subgraph of `g` induced by `nodes`, relabeling nodes
/// to [0, |nodes|). `mapping` (optional out-param) receives the original id
/// of each new node.
UndirectedGraph InducedSubgraph(const UndirectedGraph& g, const NodeSet& nodes,
                                std::vector<NodeId>* mapping = nullptr);

/// Directed version of InducedSubgraph: keeps arcs with both endpoints in
/// `nodes`.
DirectedGraph InducedSubgraphDirected(const DirectedGraph& g,
                                      const NodeSet& nodes,
                                      std::vector<NodeId>* mapping = nullptr);

/// Number of edges of `g` with both endpoints in `nodes`, plus their total
/// weight (equal for unweighted graphs).
struct InducedEdgeCount {
  EdgeId edges = 0;
  Weight weight = 0;
};
InducedEdgeCount CountInducedEdges(const UndirectedGraph& g,
                                   const NodeSet& nodes);

/// Induced density rho(S) = induced weight / |S| (0 for empty S).
double InducedDensity(const UndirectedGraph& g, const NodeSet& nodes);

/// Directed density rho(S, T) = |E(S,T)| / sqrt(|S| |T|) (0 if either empty).
double InducedDensityDirected(const DirectedGraph& g, const NodeSet& s,
                              const NodeSet& t);

}  // namespace densest

#endif  // DENSEST_GRAPH_SUBGRAPH_H_
