// Tests for Algorithm 3 (directed densest subgraph) and the c-search.

#include "core/algorithm3.h"

#include <gtest/gtest.h>

#include <cmath>

#include "flow/brute_force.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"

namespace densest {
namespace {

DirectedGraph BuildDirected(const EdgeList& e) {
  GraphBuilder b;
  b.ReserveNodes(e.num_nodes());
  for (const Edge& edge : e.edges()) b.Add(edge.u, edge.v, edge.w);
  return std::move(b.BuildDirected()).value();
}

DirectedGraph TwoNodeCycle() {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 0);
  return std::move(b.BuildDirected()).value();
}

TEST(Algorithm3Test, TwoNodeCycleDensity) {
  // S = T = {0,1}: E(S,T) = 2, sqrt(4) = 2 -> rho = 1 (the optimum).
  auto r = RunAlgorithm3(TwoNodeCycle(), {.c = 1.0, .epsilon = 0.0});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->density, 1.0);
  EXPECT_EQ(r->s_nodes.size(), 2u);
  EXPECT_EQ(r->t_nodes.size(), 2u);
}

TEST(Algorithm3Test, FindsPlantedBipartiteBlock) {
  PlantedDirectedGraph pg = PlantDirectedBlock(500, 1500, 40, 10, 1.0, 23);
  DirectedGraph g = BuildDirected(pg.arcs);
  // Planted block: rho = 400 / sqrt(400) = 20; c* = 4.
  Algorithm3Options opt;
  opt.c = 4.0;
  opt.epsilon = 0.25;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->density * (2.0 + 2.0 * opt.epsilon), 20.0 * (1 - 1e-9));
}

TEST(Algorithm3Test, DensityMatchesReturnedSets) {
  DirectedGraph g = BuildDirected(ErdosRenyiDirectedGnm(200, 2000, 5));
  Algorithm3Options opt;
  opt.c = 1.0;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  NodeSet s = NodeSet::FromVector(g.num_nodes(), r->s_nodes);
  NodeSet t = NodeSet::FromVector(g.num_nodes(), r->t_nodes);
  EXPECT_NEAR(InducedDensityDirected(g, s, t), r->density, 1e-9);
}

TEST(Algorithm3Test, TraceShowsAlternatingPeels) {
  DirectedGraph g = BuildDirected(ErdosRenyiDirectedGnm(300, 3000, 7));
  Algorithm3Options opt;
  opt.c = 1.0;
  opt.epsilon = 1.0;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->trace.size(), r->passes);
  bool saw_s = false, saw_t = false;
  for (const auto& snap : r->trace) {
    EXPECT_GE(snap.removed, 1u);
    saw_s |= snap.removed_from_s;
    saw_t |= !snap.removed_from_s;
  }
  // With c = 1 and |S| = |T| initially, both sides get peeled eventually.
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_t);
}

TEST(Algorithm3Test, PassBoundHolds) {
  DirectedGraph g = BuildDirected(ErdosRenyiDirectedGnm(1000, 8000, 29));
  for (double eps : {0.5, 1.0, 2.0}) {
    Algorithm3Options opt;
    opt.c = 1.0;
    opt.epsilon = eps;
    opt.record_trace = false;
    auto r = RunAlgorithm3(g, opt);
    ASSERT_TRUE(r.ok());
    // Lemma 13: O(log_{1+eps} n) passes; the constant covers both sets.
    double bound =
        2.0 * std::log(static_cast<double>(g.num_nodes())) / std::log1p(eps);
    EXPECT_LE(static_cast<double>(r->passes), bound + 2.0) << "eps=" << eps;
  }
}

TEST(Algorithm3Test, MaxDegreeRuleAlsoSatisfiesGuarantee) {
  PlantedDirectedGraph pg = PlantDirectedBlock(300, 900, 30, 10, 1.0, 37);
  DirectedGraph g = BuildDirected(pg.arcs);
  Algorithm3Options opt;
  opt.c = 3.0;
  opt.epsilon = 0.5;
  opt.rule = DirectedRemovalRule::kMaxDegree;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  // Planted rho = 300 / sqrt(300) = sqrt(300).
  EXPECT_GE(r->density * (2.0 + 2.0 * opt.epsilon),
            std::sqrt(300.0) * (1 - 1e-9));
}

TEST(Algorithm3Test, InvalidArguments) {
  DirectedGraph g = TwoNodeCycle();
  EXPECT_FALSE(RunAlgorithm3(g, {.c = 0.0}).ok());
  EXPECT_FALSE(RunAlgorithm3(g, {.c = -1.0}).ok());
  EXPECT_FALSE(RunAlgorithm3(g, {.c = std::nan("")}).ok());
  EXPECT_FALSE(RunAlgorithm3(g, {.c = 1.0, .epsilon = -0.5}).ok());
  EXPECT_FALSE(RunAlgorithm3(g, {.c = 1.0, .epsilon = std::nan("")}).ok());
  EXPECT_FALSE(RunAlgorithm3(g, {.c = 1.0, .epsilon = INFINITY}).ok());
  DirectedGraph empty;
  EXPECT_FALSE(RunAlgorithm3(empty, {.c = 1.0}).ok());
}

TEST(Algorithm3Test, NonFiniteRatioAndDeltaRejected) {
  DirectedGraph g = TwoNodeCycle();
  for (double c : {INFINITY, -INFINITY}) {
    auto r = RunAlgorithm3(g, {.c = c});
    ASSERT_FALSE(r.ok()) << c;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << c;
  }
  // An infinite delta spans a one-ratio grid: no search at all.
  CSearchOptions opt;
  opt.delta = INFINITY;
  EXPECT_TRUE(CSearchGrid(g.num_nodes(), opt).empty());
  auto search = RunCSearch(g, opt);
  ASSERT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), Status::Code::kInvalidArgument);
}

TEST(CSearchTest, SweepCoversRatioGridAndFindsBest) {
  PlantedDirectedGraph pg = PlantDirectedBlock(200, 600, 32, 8, 1.0, 41);
  DirectedGraph g = BuildDirected(pg.arcs);
  CSearchOptions opt;
  opt.delta = 2.0;
  opt.epsilon = 0.5;
  auto r = RunCSearch(g, opt);
  ASSERT_TRUE(r.ok());
  // Grid size: 2 * ceil(log2 200) + 1 = 17 values of c.
  EXPECT_EQ(r->sweep.size(), 17u);
  // The planted block has rho = 256/16 = 16, c* = 4 (on the grid).
  EXPECT_GE(r->best.density * (2.0 + 2.0 * opt.epsilon), 16.0 * (1 - 1e-9));
  // best is the max of the sweep.
  for (const auto& run : r->sweep) {
    EXPECT_LE(run.density, r->best.density + 1e-12);
  }
}

TEST(CSearchTest, RejectsBadDelta) {
  DirectedGraph g = TwoNodeCycle();
  CSearchOptions opt;
  opt.delta = 1.0;
  EXPECT_FALSE(RunCSearch(g, opt).ok());
  opt.delta = std::nan("");
  EXPECT_FALSE(RunCSearch(g, opt).ok());
  opt.delta = 2.0;
  opt.epsilon = std::nan("");
  EXPECT_FALSE(RunCSearch(g, opt).ok());
  opt.epsilon = INFINITY;
  EXPECT_FALSE(RunCSearch(g, opt).ok());
}

// ---- Guarantee sweep against the directed brute-force oracle. ----

class Algorithm3GuaranteeTest : public ::testing::TestWithParam<int> {};

TEST_P(Algorithm3GuaranteeTest, CSearchWithinFactor) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  DirectedGraph g = BuildDirected(ErdosRenyiDirectedGnm(9, 30, seed));
  auto brute = BruteForceDensestDirected(g);
  ASSERT_TRUE(brute.ok());

  CSearchOptions opt;
  opt.delta = 1.5;  // fine grid keeps the delta penalty small
  opt.epsilon = 0.1;
  auto r = RunCSearch(g, opt);
  ASSERT_TRUE(r.ok());
  // (2+2eps) * delta overall factor (Lemma 12 plus the grid rounding).
  double factor = (2.0 + 2.0 * opt.epsilon) * opt.delta;
  EXPECT_GE(r->best.density * factor, brute->density * (1 - 1e-9))
      << "seed=" << seed;
  EXPECT_LE(r->best.density, brute->density + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DirectedSweep, Algorithm3GuaranteeTest,
                         ::testing::Range(300, 315));

}  // namespace
}  // namespace densest
