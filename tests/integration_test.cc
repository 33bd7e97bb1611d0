// End-to-end integration tests: the full stack on realistic (scaled-down)
// workloads, cross-checking every solver against every other.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/charikar.h"
#include "core/enumerate.h"
#include "core/kcore.h"
#include "flow/goldberg.h"
#include "gen/chung_lu.h"
#include "gen/datasets.h"
#include "gen/lower_bound.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"
#include "mapreduce/mr_densest.h"
#include "sketch/sketched_algorithm1.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

UndirectedGraph BuildUndirected(const EdgeList& e) {
  GraphBuilder b;
  b.ReserveNodes(e.num_nodes());
  for (const Edge& edge : e.edges()) b.Add(edge.u, edge.v, edge.w);
  return std::move(b.BuildUndirected()).value();
}

/// A scaled-down social-network-style workload shared by the tests below.
UndirectedGraph SmallSocialGraph() {
  ChungLuOptions cl;
  cl.num_nodes = 3000;
  cl.num_edges = 15000;
  cl.exponent = 2.3;
  EdgeList graph = ChungLu(cl, 1234);
  PlantedGraph planted = PlantDenseBlocks(cl.num_nodes, 0, {{35, 0.9}}, 99);
  graph.Append(planted.edges);
  return BuildUndirected(graph);
}

TEST(IntegrationTest, ApproximationChainOnSocialGraph) {
  UndirectedGraph g = SmallSocialGraph();

  auto exact = ExactDensestSubgraph(g);
  ASSERT_TRUE(exact.ok());
  double rho_star = exact->density;
  EXPECT_GT(rho_star, 5.0);  // planted community dominates the background

  CharikarResult greedy = CharikarPeel(g);
  EXPECT_GE(greedy.best.density * 2.0, rho_star * (1 - 1e-9));

  UndirectedDensestResult core = MaxCoreBaseline(g);
  EXPECT_GE(core.density * 2.0, rho_star * (1 - 1e-9));

  for (double eps : {0.0, 0.5, 1.0, 2.0}) {
    Algorithm1Options opt;
    opt.epsilon = eps;
    auto r = RunAlgorithm1(g, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->density * (2 + 2 * eps), rho_star * (1 - 1e-9))
        << "eps=" << eps;
    EXPECT_LE(r->density, rho_star + 1e-9);
  }
}

TEST(IntegrationTest, StreamingFromDiskMatchesInMemory) {
  UndirectedGraph g = SmallSocialGraph();
  EdgeList el = g.ToEdgeList();
  el.set_num_nodes(g.num_nodes());

  // Duplicate ChungLu/planted edges merge to weight 2 during cleaning, so
  // the file must carry weights to be equivalent to the in-memory graph.
  std::string path = ::testing::TempDir() + "/integration_edges.bin";
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/true).ok());
  auto disk = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(disk.ok());

  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto mem = RunAlgorithm1(g, opt);
  auto from_disk = RunAlgorithm1(**disk, opt);
  std::remove(path.c_str());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(from_disk.ok());
  EXPECT_EQ(mem->nodes, from_disk->nodes);
  EXPECT_DOUBLE_EQ(mem->density, from_disk->density);
}

TEST(IntegrationTest, MapReduceMatchesStreamingOnSocialGraph) {
  UndirectedGraph g = SmallSocialGraph();
  // Cleaning merged duplicate edges into weight 2, and the §5.2 records
  // carry no weight: MR gets the same graph as unit multi-edges, each
  // weight-w edge as w unit edges.
  const EdgeList weighted = g.ToEdgeList();
  EdgeList el(g.num_nodes());
  for (const Edge& e : weighted.edges()) {
    ASSERT_TRUE(e.w >= 1 && e.w == std::floor(e.w)) << "weight " << e.w;
    for (int k = 0; k < static_cast<int>(e.w); ++k) el.Add(e.u, e.v);
  }

  Algorithm1Options s_opt;
  s_opt.epsilon = 1.0;
  auto streaming = RunAlgorithm1(g, s_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = 1.0;
  auto mr = RunMrDensestUndirected(env, el, mr_opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->result.nodes, streaming->nodes);
  EXPECT_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
}

TEST(IntegrationTest, SketchedRunStaysClose) {
  UndirectedGraph g = SmallSocialGraph();
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto exact_run = RunAlgorithm1(g, opt);
  ASSERT_TRUE(exact_run.ok());

  UndirectedGraphStream stream(g);
  auto sketched =
      RunSketchedAlgorithm1(stream, {.tables = 5, .buckets = 1024}, 7, opt);
  ASSERT_TRUE(sketched.ok());
  EXPECT_GE(sketched->result.density, 0.5 * exact_run->density);
}

TEST(IntegrationTest, Algorithm2FindsLargeDenseRegions) {
  UndirectedGraph g = SmallSocialGraph();
  Algorithm2Options opt;
  opt.min_size = 100;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->nodes.size(), 100u);
  // A 100+-node set can't beat the global optimum but must beat the
  // whole-graph density.
  EXPECT_GE(r->density, g.Density() - 1e-9);
}

TEST(IntegrationTest, EnumerationSeparatesTwoCommunities) {
  ChungLuOptions cl;
  cl.num_nodes = 2000;
  cl.num_edges = 8000;
  EdgeList graph = ChungLu(cl, 77);
  PlantedGraph planted =
      PlantDenseBlocks(cl.num_nodes, 0, {{30, 1.0}, {26, 1.0}}, 78);
  graph.Append(planted.edges);
  UndirectedGraph g = BuildUndirected(graph);

  EnumerateOptions opt;
  opt.max_subgraphs = 2;
  opt.epsilon = 0.25;
  opt.min_density = 3.0;
  auto subs = EnumerateDenseSubgraphs(g, opt);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 2u);

  // Each discovered community should be mostly one planted block.
  std::set<NodeId> block0(planted.blocks[0].begin(),
                          planted.blocks[0].end());
  std::set<NodeId> block1(planted.blocks[1].begin(),
                          planted.blocks[1].end());
  size_t hits0 = 0, hits1 = 0;
  for (NodeId u : (*subs)[0].nodes) {
    hits0 += block0.count(u);
    hits1 += block1.count(u);
  }
  EXPECT_GT(std::max(hits0, hits1), (*subs)[0].nodes.size() * 7 / 10);
}

TEST(IntegrationTest, Lemma5ConstructionForcesManyPasses) {
  // The paper's pass lower bound: more blocks -> more passes at small eps.
  EdgeList small = Lemma5Construction(3);
  EdgeList large = Lemma5Construction(5);
  Algorithm1Options opt;
  opt.epsilon = 0.001;
  opt.record_trace = false;
  auto r_small = RunAlgorithm1(BuildUndirected(small), opt);
  auto r_large = RunAlgorithm1(BuildUndirected(large), opt);
  ASSERT_TRUE(r_small.ok());
  ASSERT_TRUE(r_large.ok());
  EXPECT_GT(r_large->passes, r_small->passes);
  // The densest block is G_k (a 2^(k-1)-regular graph, density 2^(k-2)).
  EXPECT_NEAR(r_large->density, 8.0, 8.0 * 0.3);
}

TEST(IntegrationTest, DirectedPipelineOnPlantedGraph) {
  PlantedDirectedGraph pg = PlantDirectedBlock(2000, 10000, 120, 30, 0.8, 5);
  DirectedGraph g = DirectedGraph::FromEdgeList(pg.arcs);

  CSearchOptions opt;
  opt.delta = 2.0;
  opt.epsilon = 0.5;
  auto search = RunCSearch(g, opt);
  ASSERT_TRUE(search.ok());

  // Planted block: E ~ 0.8*120*30 = 2880, rho ~ 2880/60 = 48, c* = 4.
  double planted_rho = 0.8 * 120 * 30 / std::sqrt(120.0 * 30.0);
  EXPECT_GE(search->best.density * (2 + 2 * opt.epsilon) * opt.delta,
            planted_rho * 0.9);
  // The best c should be in the skewed-toward-S region.
  EXPECT_GE(search->best.c, 1.0);
}

TEST(IntegrationTest, DatasetStandInsAreWellFormed) {
  // Smoke-test the two small directed stand-ins end to end.
  EdgeList lj = MakeLiveJournalSim(42);
  EXPECT_GT(lj.num_edges(), 1000000u);
  DirectedGraph g = DirectedGraph::FromEdgeList(lj);
  Algorithm3Options opt;
  opt.c = 1.0;
  opt.epsilon = 2.0;
  opt.record_trace = false;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->density, 1.0);
}

}  // namespace
}  // namespace densest
