// Unit tests for NodeSet and induced subgraph extraction.

#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/graph_builder.h"

namespace densest {
namespace {

TEST(NodeSetTest, InsertRemoveContains) {
  NodeSet s(10);
  EXPECT_TRUE(s.empty());
  s.Insert(3);
  s.Insert(3);  // idempotent
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(3));
  s.Remove(3);
  s.Remove(3);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(NodeSetTest, FullConstruction) {
  NodeSet s(5, /*full=*/true);
  EXPECT_EQ(s.size(), 5u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_TRUE(s.Contains(u));
}

TEST(NodeSetTest, ToVectorAscending) {
  NodeSet s(10);
  s.Insert(7);
  s.Insert(2);
  s.Insert(5);
  auto v = s.ToVector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 2u);
  EXPECT_EQ(v[1], 5u);
  EXPECT_EQ(v[2], 7u);
}

TEST(NodeSetTest, FromVectorRoundTrip) {
  NodeSet s = NodeSet::FromVector(10, {1, 4, 9});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.Contains(9));
  EXPECT_FALSE(s.Contains(0));
}

TEST(NodeSetTest, FullConstructionMasksTailBits) {
  // Universe sizes straddling the 64-bit word boundary: the packed tail
  // word must not carry phantom members.
  for (NodeId n : {63u, 64u, 65u, 130u}) {
    NodeSet s(n, /*full=*/true);
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.ToVector().size(), n);
    for (NodeId u = 0; u < n; ++u) EXPECT_TRUE(s.Contains(u)) << n << " " << u;
  }
}

TEST(NodeSetTest, ContainsBothMatchesPairwiseContains) {
  NodeSet s = NodeSet::FromVector(200, {0, 63, 64, 100, 199});
  for (NodeId u : {0u, 1u, 63u, 64u, 100u, 199u}) {
    for (NodeId v : {0u, 1u, 63u, 64u, 100u, 199u}) {
      EXPECT_EQ(s.ContainsBoth(u, v), s.Contains(u) && s.Contains(v))
          << u << " " << v;
    }
  }
}

TEST(NodeSetTest, ToVectorCrossesWordBoundaries) {
  NodeSet s = NodeSet::FromVector(300, {5, 63, 64, 127, 128, 255, 299});
  EXPECT_EQ(s.ToVector(),
            (std::vector<NodeId>{5, 63, 64, 127, 128, 255, 299}));
}

/// The members of [begin, end) by the per-node test the walk replaces.
std::vector<NodeId> MembersByContains(const NodeSet& s, NodeId begin,
                                      NodeId end) {
  std::vector<NodeId> out;
  for (NodeId u = begin; u < end; ++u) {
    if (s.Contains(u)) out.push_back(u);
  }
  return out;
}

std::vector<NodeId> MembersByWalk(const NodeSet& s, NodeId begin, NodeId end) {
  std::vector<NodeId> out;
  ForEachMember(s, begin, end, [&out](NodeId u) { out.push_back(u); });
  return out;
}

TEST(ForEachMemberTest, VisitsExactlyTheMembersOfTheRangeInOrder) {
  // n % 64 != 0, and words that are empty, full and mixed.
  const NodeId n = 300;
  NodeSet mixed(n);
  for (NodeId u : {0u, 1u, 62u, 63u, 64u, 100u, 191u, 256u, 298u, 299u}) {
    mixed.Insert(u);
  }
  for (NodeId u = 128; u < 192; ++u) mixed.Insert(u);  // one full word
  const NodeSet sets[] = {NodeSet(n), NodeSet(n, /*full=*/true), mixed};
  // Aligned and unaligned ends, begin == end, ranges inside one word, and
  // ranges ending at the universe's partial last word.
  const std::pair<NodeId, NodeId> ranges[] = {
      {0, n},    {0, 0},     {5, 5},     {64, 64},   {300, 300},
      {0, 64},   {64, 128},  {1, 63},    {62, 64},   {63, 65},
      {3, 60},   {100, 101}, {101, 256}, {129, 191}, {0, 299},
      {256, n},  {257, 299}, {299, n},   {65, 257}};
  for (const NodeSet& s : sets) {
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(MembersByWalk(s, begin, end), MembersByContains(s, begin, end))
          << "size=" << s.size() << " [" << begin << ", " << end << ")";
    }
  }
}

TEST(ForEachMemberTest, CallbackMayRemoveTheMemberItIsHanded) {
  const NodeId n = 200;
  NodeSet s(n, /*full=*/true);
  std::vector<NodeId> visited;
  // Remove every member not divisible by 3 while walking [10, 190).
  ForEachMember(s, 10, 190, [&](NodeId u) {
    visited.push_back(u);
    if (u % 3 != 0) s.Remove(u);
  });
  std::vector<NodeId> want_visited;
  for (NodeId u = 10; u < 190; ++u) want_visited.push_back(u);
  EXPECT_EQ(visited, want_visited);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(s.Contains(u), u < 10 || u >= 190 || u % 3 == 0) << u;
  }
  EXPECT_EQ(s.size(), static_cast<NodeId>(MembersByContains(s, 0, n).size()));
}

UndirectedGraph K4PlusPendant() {
  // Clique on {0,1,2,3} plus pendant edge 3-4.
  GraphBuilder b;
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) b.Add(i, j);
  }
  b.Add(3, 4);
  return std::move(b.BuildUndirected()).value();
}

TEST(InducedSubgraphTest, ExtractsCliqueWithMapping) {
  UndirectedGraph g = K4PlusPendant();
  NodeSet s = NodeSet::FromVector(5, {0, 1, 2, 3});
  std::vector<NodeId> mapping;
  UndirectedGraph sub = InducedSubgraph(g, s, &mapping);
  EXPECT_EQ(sub.num_nodes(), 4u);
  EXPECT_EQ(sub.num_edges(), 6u);
  ASSERT_EQ(mapping.size(), 4u);
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(mapping[i], i);
}

TEST(InducedSubgraphTest, DropsCrossEdges) {
  UndirectedGraph g = K4PlusPendant();
  NodeSet s = NodeSet::FromVector(5, {3, 4});
  UndirectedGraph sub = InducedSubgraph(g, s);
  EXPECT_EQ(sub.num_nodes(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);  // only 3-4 survives
}

TEST(InducedSubgraphTest, EmptySelection) {
  UndirectedGraph g = K4PlusPendant();
  NodeSet s(5);
  UndirectedGraph sub = InducedSubgraph(g, s);
  EXPECT_EQ(sub.num_nodes(), 0u);
  EXPECT_EQ(sub.num_edges(), 0u);
}

TEST(CountInducedEdgesTest, CliqueSubsetCounts) {
  UndirectedGraph g = K4PlusPendant();
  NodeSet s = NodeSet::FromVector(5, {0, 1, 2});
  auto c = CountInducedEdges(g, s);
  EXPECT_EQ(c.edges, 3u);
  EXPECT_DOUBLE_EQ(c.weight, 3.0);
  EXPECT_DOUBLE_EQ(InducedDensity(g, s), 1.0);
}

TEST(InducedDensityTest, EmptySetIsZero) {
  UndirectedGraph g = K4PlusPendant();
  EXPECT_DOUBLE_EQ(InducedDensity(g, NodeSet(5)), 0.0);
}

TEST(InducedSubgraphDirectedTest, KeepsInternalArcs) {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 2);
  b.Add(2, 0);
  b.Add(0, 3);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  NodeSet s = NodeSet::FromVector(4, {0, 1, 2});
  std::vector<NodeId> mapping;
  DirectedGraph sub = InducedSubgraphDirected(g, s, &mapping);
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);
}

TEST(InducedDensityDirectedTest, MatchesDefinition) {
  GraphBuilder b;
  b.Add(0, 2);
  b.Add(0, 3);
  b.Add(1, 2);
  b.Add(1, 3);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  NodeSet s = NodeSet::FromVector(4, {0, 1});
  NodeSet t = NodeSet::FromVector(4, {2, 3});
  // |E(S,T)| = 4, sqrt(|S||T|) = 2 -> rho = 2.
  EXPECT_DOUBLE_EQ(InducedDensityDirected(g, s, t), 2.0);
  EXPECT_DOUBLE_EQ(InducedDensityDirected(g, NodeSet(4), t), 0.0);
}

TEST(InducedDensityDirectedTest, OverlappingSetsAllowed) {
  // S and T need not be disjoint (paper Definition 2).
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 0);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  NodeSet both = NodeSet::FromVector(2, {0, 1});
  // E(S,T) = 2 arcs, sqrt(2*2) = 2 -> rho = 1.
  EXPECT_DOUBLE_EQ(InducedDensityDirected(g, both, both), 1.0);
}

}  // namespace
}  // namespace densest
