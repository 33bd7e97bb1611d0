// Unit and property tests for the graph generators.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "gen/chung_lu.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "gen/lower_bound.h"
#include "gen/planted.h"
#include "gen/preferential_attachment.h"
#include "gen/regular.h"
#include "gen/rmat.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "graph/subgraph.h"

namespace densest {
namespace {

bool IsSimpleUndirected(const EdgeList& e) {
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& edge : e.edges()) {
    if (edge.u == edge.v) return false;
    NodeId a = std::min(edge.u, edge.v), b = std::max(edge.u, edge.v);
    if (!seen.insert({a, b}).second) return false;
  }
  return true;
}

TEST(ErdosRenyiTest, GnmExactEdgeCount) {
  // (n, m, edges): an m past the n(n-1)/2 pairs gives the complete graph,
  // not a sampler that never returns.
  for (auto [n, m, want] : {std::tuple<NodeId, EdgeId, EdgeId>{100, 500, 500},
                            {10, 46, 45}}) {
    EdgeList e = ErdosRenyiGnm(n, m, 1);
    EXPECT_EQ(e.num_edges(), want) << m;
    EXPECT_LE(e.num_nodes(), n);
    EXPECT_TRUE(IsSimpleUndirected(e)) << m;
  }
}

TEST(ErdosRenyiTest, GnmDeterministic) {
  EdgeList a = ErdosRenyiGnm(50, 100, 42);
  EdgeList b = ErdosRenyiGnm(50, 100, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].u, b.edges()[i].u);
    EXPECT_EQ(a.edges()[i].v, b.edges()[i].v);
  }
}

TEST(ErdosRenyiTest, GnpEdgeCountNearExpectation) {
  const NodeId n = 500;
  const double p = 0.05;
  EdgeList e = ErdosRenyiGnp(n, p, 7);
  double expected = p * n * (n - 1) / 2.0;
  EXPECT_GT(static_cast<double>(e.num_edges()), expected * 0.85);
  EXPECT_LT(static_cast<double>(e.num_edges()), expected * 1.15);
  EXPECT_TRUE(IsSimpleUndirected(e));
}

TEST(ErdosRenyiTest, GnpExtremes) {
  EXPECT_EQ(ErdosRenyiGnp(50, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(ErdosRenyiGnp(10, 1.0, 1).num_edges(), 45u);
}

TEST(ErdosRenyiTest, DirectedGnmDistinctArcs) {
  // (n, m, arcs): an m past the n(n-1) ordered pairs is capped there.
  for (auto [n, m, want] : {std::tuple<NodeId, EdgeId, EdgeId>{50, 300, 300},
                            {10, 91, 90}}) {
    EdgeList e = ErdosRenyiDirectedGnm(n, m, 3);
    EXPECT_EQ(e.num_edges(), want) << m;
    std::set<std::pair<NodeId, NodeId>> seen;
    for (const Edge& edge : e.edges()) {
      EXPECT_NE(edge.u, edge.v);
      EXPECT_TRUE(seen.insert({edge.u, edge.v}).second);
    }
  }
}

TEST(ChungLuTest, ProducesHeavyTailedDegrees) {
  ChungLuOptions opt;
  opt.num_nodes = 20000;
  opt.num_edges = 100000;
  opt.exponent = 2.2;
  EdgeList e = ChungLu(opt, 11);
  EXPECT_GT(e.num_edges(), 90000u);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
  GraphStats s = ComputeStats(g);
  // A heavy-tailed graph has a hub far above the mean degree.
  EXPECT_GT(s.max_degree, 20 * s.avg_degree);
}

TEST(ChungLuTest, DeterministicAndSimple) {
  ChungLuOptions opt;
  opt.num_nodes = 1000;
  opt.num_edges = 5000;
  EdgeList a = ChungLu(opt, 5);
  EdgeList b = ChungLu(opt, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(IsSimpleUndirected(a));
}

TEST(RmatTest, RespectsScaleAndBudget) {
  RmatOptions opt;
  opt.scale = 10;
  opt.num_edges = 5000;
  EdgeList e = Rmat(opt, 9);
  EXPECT_EQ(e.num_nodes(), 1024u);
  EXPECT_GT(e.num_edges(), 4000u);
  EXPECT_LE(e.num_edges(), 5000u);
}

TEST(RmatTest, SkewedQuadrantsProduceHubs) {
  RmatOptions opt;
  opt.scale = 12;
  opt.num_edges = 40000;
  opt.directed = true;
  EdgeList e = Rmat(opt, 21);
  DirectedGraph g = DirectedGraph::FromEdgeList(e);
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_degree, 10 * s.avg_degree);
}

TEST(BarabasiAlbertTest, EdgeCountAndConnectivityShape) {
  EdgeList e = BarabasiAlbert(2000, 3, 13);
  // Each node beyond the seed adds ~3 edges.
  EXPECT_GT(e.num_edges(), 1995u * 3 * 8 / 10);
  UndirectedGraph g =
      UndirectedGraph::FromEdgeList(e);
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_degree, 30u);  // rich-get-richer hubs
}

TEST(DeterministicWeightedPATest, PowerLawWeightedDegrees) {
  EdgeList e = DeterministicWeightedPA(200);
  // Complete graph: n(n-1)/2 edges.
  EXPECT_EQ(e.num_edges(), 200u * 199 / 2);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
  // Total weight grows by 1 per arrival: first arrival distributes 1.
  EXPECT_NEAR(g.total_weight(), 199.0, 1e-6);
  // Early nodes accumulate much more weighted degree than late ones.
  EXPECT_GT(g.WeightedDegree(0), 10 * g.WeightedDegree(150));
}

TEST(CirculantRegularTest, ExactDegrees) {
  for (NodeId d : {2u, 4u, 6u}) {
    EdgeList e = CirculantRegular(20, d);
    UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
    for (NodeId u = 0; u < 20; ++u) EXPECT_EQ(g.Degree(u), d);
    EXPECT_EQ(g.num_edges(), 20u * d / 2);
  }
}

TEST(CirculantRegularTest, OddDegreeViaMatching) {
  EdgeList e = CirculantRegular(10, 3);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.Degree(u), 3u);
}

TEST(CirculantRegularTest, DegreeOneIsPerfectMatching) {
  EdgeList e = CirculantRegular(8, 1);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
  EXPECT_EQ(g.num_edges(), 4u);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.Degree(u), 1u);
}

TEST(Lemma5Test, BlockStructureMatchesPaper) {
  const int k = 4;
  EdgeList e = Lemma5Construction(k);
  EXPECT_EQ(e.num_nodes(), Lemma5NumNodes(k));
  // Every block G_i has exactly 2^(2k-1) edges; k blocks total.
  EXPECT_EQ(e.num_edges(), static_cast<EdgeId>(k) << (2 * k - 1));
  UndirectedGraph g = UndirectedGraph::FromEdgeList(e);
  // Degrees are exactly the powers 2^(i-1).
  std::set<NodeId> degrees;
  for (NodeId u = 0; u < g.num_nodes(); ++u) degrees.insert(g.Degree(u));
  std::set<NodeId> expected;
  for (int i = 1; i <= k; ++i) expected.insert(1u << (i - 1));
  EXPECT_EQ(degrees, expected);
}

TEST(PlantedTest, BlocksAreDenseAndDisjoint) {
  std::vector<PlantedBlock> blocks = {{30, 1.0}, {20, 0.5}};
  PlantedGraph pg = PlantDenseBlocks(1000, 2000, blocks, 31);
  ASSERT_EQ(pg.blocks.size(), 2u);
  EXPECT_EQ(pg.blocks[0].size(), 30u);
  EXPECT_EQ(pg.blocks[1].size(), 20u);
  std::set<NodeId> all(pg.blocks[0].begin(), pg.blocks[0].end());
  for (NodeId u : pg.blocks[1]) {
    EXPECT_TRUE(all.insert(u).second) << "blocks overlap at " << u;
  }

  // The clique block should actually be a clique.
  GraphBuilder b;
  b.ReserveNodes(pg.edges.num_nodes());
  for (const Edge& edge : pg.edges.edges()) b.Add(edge.u, edge.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  NodeSet s = NodeSet::FromVector(g.num_nodes(), pg.blocks[0]);
  // At least the clique edges; background edges may add a little more.
  EXPECT_GE(InducedDensity(g, s), (30.0 - 1) / 2);
  EXPECT_LE(InducedDensity(g, s), (30.0 - 1) / 2 + 1.0);
}

TEST(PlantedDirectedTest, BlockArcsPresent) {
  PlantedDirectedGraph pg = PlantDirectedBlock(500, 1000, 40, 10, 1.0, 17);
  EXPECT_EQ(pg.s_nodes.size(), 40u);
  EXPECT_EQ(pg.t_nodes.size(), 10u);
  // With p = 1, all 400 block arcs exist on top of the background.
  EXPECT_GE(pg.arcs.num_edges(), 1000u + 400u);
}

TEST(DatasetsTest, Table1HasFourEntries) {
  auto infos = Table1Datasets();
  ASSERT_EQ(infos.size(), 4u);
  EXPECT_EQ(infos[0].paper_name, "flickr");
  EXPECT_FALSE(infos[0].directed);
  EXPECT_TRUE(infos[2].directed);
}

TEST(DatasetsTest, Table2HasSevenRows) {
  auto specs = Table2Specs();
  ASSERT_EQ(specs.size(), 7u);
  for (const auto& s : specs) {
    EXPECT_GT(s.nodes, 0u);
    EXPECT_GT(s.edges, 0u);
    EXPECT_GT(s.paper_rho, 0.0);
  }
}

TEST(DatasetsTest, SnapStandInMatchesRowScale) {
  auto specs = Table2Specs();
  const auto& row = specs[3];  // ca-GrQc: 5242 nodes
  EdgeList e = MakeSnapStandIn(row, 1);
  EXPECT_EQ(e.num_nodes(), row.nodes);
  double ratio = static_cast<double>(e.num_edges()) /
                 static_cast<double>(row.edges);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.3);
  EXPECT_TRUE(IsSimpleUndirected(e));
}

}  // namespace
}  // namespace densest
