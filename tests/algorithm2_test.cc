// Tests for Algorithm 2 (densest subgraph of size >= k).

#include "core/algorithm2.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <tuple>

#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"

namespace densest {
namespace {

UndirectedGraph BuildUndirected(const EdgeList& e) {
  GraphBuilder b;
  b.ReserveNodes(e.num_nodes());
  for (const Edge& edge : e.edges()) b.Add(edge.u, edge.v, edge.w);
  return std::move(b.BuildUndirected()).value();
}

/// Reference oracle: max density over subsets with |S| >= k (n <= 20).
double BruteForceDensestAtLeastK(const UndirectedGraph& g, NodeId k) {
  const NodeId n = g.num_nodes();
  double best = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<NodeId>(std::popcount(mask)) < k) continue;
    NodeSet s(n);
    for (NodeId u = 0; u < n; ++u) {
      if (mask & (1u << u)) s.Insert(u);
    }
    best = std::max(best, InducedDensity(g, s));
  }
  return best;
}

TEST(Algorithm2Test, ReturnsAtLeastKNodes) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(200, 1200, 4));
  for (NodeId k : {1u, 10u, 50u, 150u, 200u}) {
    Algorithm2Options opt;
    opt.min_size = k;
    opt.epsilon = 0.5;
    auto r = RunAlgorithm2(g, opt);
    ASSERT_TRUE(r.ok()) << "k=" << k;
    EXPECT_GE(r->nodes.size(), k) << "k=" << k;
  }
}

TEST(Algorithm2Test, DensityMatchesReturnedNodes) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(150, 900, 8));
  Algorithm2Options opt;
  opt.min_size = 30;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  NodeSet s = NodeSet::FromVector(g.num_nodes(), r->nodes);
  EXPECT_NEAR(InducedDensity(g, s), r->density, 1e-9);
}

TEST(Algorithm2Test, FindsLargePlantedCommunityAboveK) {
  // Planted 24-node half-dense block in sparse noise; ask for k = 12.
  // Lemma 10 regime: |S*| > k, so the bound is (2+2eps).
  PlantedGraph pg = PlantDenseBlocks(400, 400, {{24, 0.8}}, 19);
  UndirectedGraph g = BuildUndirected(pg.edges);
  NodeSet planted = NodeSet::FromVector(g.num_nodes(), pg.blocks[0]);
  double planted_density = InducedDensity(g, planted);

  Algorithm2Options opt;
  opt.min_size = 12;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->nodes.size(), 12u);
  EXPECT_GE(r->density * (2.0 + 2.0 * opt.epsilon),
            planted_density * (1.0 - 1e-9));
}

TEST(Algorithm2Test, KEqualsNReturnsWholeGraph) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(50, 200, 6));
  Algorithm2Options opt;
  opt.min_size = 50;
  opt.epsilon = 1.0;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes.size(), 50u);
  EXPECT_DOUBLE_EQ(r->density, g.Density());
}

TEST(Algorithm2Test, RejectsOversizedK) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(10, 20, 1));
  Algorithm2Options opt;
  opt.min_size = 11;
  EXPECT_FALSE(RunAlgorithm2(g, opt).ok());
}

TEST(Algorithm2Test, RejectsNegativeEpsilon) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(10, 20, 1));
  Algorithm2Options opt;
  opt.epsilon = -1;
  EXPECT_FALSE(RunAlgorithm2(g, opt).ok());
  opt.epsilon = std::nan("");
  EXPECT_FALSE(RunAlgorithm2(g, opt).ok());
  // An infinite epsilon would make the removal quota NaN.
  opt.epsilon = INFINITY;
  opt.min_size = 5;
  EXPECT_FALSE(RunAlgorithm2(g, opt).ok());
}

TEST(Algorithm2Test, PassBoundScalesWithNOverK) {
  // Lemma 11: O(log_{1+eps}(n/k)) passes; with k close to n this is tiny.
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(1000, 6000, 12));
  Algorithm2Options opt;
  opt.epsilon = 1.0;
  opt.min_size = 500;
  opt.record_trace = false;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  double bound = std::log(1000.0 / 500.0) / std::log(2.0);
  EXPECT_LE(static_cast<double>(r->passes), bound + 3.0);
}

TEST(Algorithm2Test, RemovalQuotaIsFractionOfS) {
  UndirectedGraph g = BuildUndirected(ErdosRenyiGnm(300, 1500, 3));
  Algorithm2Options opt;
  opt.epsilon = 1.0;  // quota = |S| / 2
  opt.min_size = 1;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  for (const PassSnapshot& snap : r->trace) {
    // ceil(eps/(1+eps) |S|) with eps=1 is ceil(|S|/2).
    EXPECT_LE(snap.removed,
              static_cast<NodeId>((snap.nodes + 1) / 2));
  }
}

// ---- Guarantee sweep against the restricted brute-force oracle. ----

class Algorithm2GuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Algorithm2GuaranteeTest, ThreePlusThreeEpsGuarantee) {
  auto [seed, k] = GetParam();
  const double eps = 0.5;
  UndirectedGraph g = BuildUndirected(
      ErdosRenyiGnm(14, 40, static_cast<uint64_t>(seed)));
  double opt_k = BruteForceDensestAtLeastK(g, static_cast<NodeId>(k));

  Algorithm2Options opt;
  opt.min_size = static_cast<NodeId>(k);
  opt.epsilon = eps;
  auto r = RunAlgorithm2(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->nodes.size(), static_cast<size_t>(k));
  // Theorem 9: (3+3eps)-approximation of rho*_{>=k}.
  EXPECT_GE(r->density * (3.0 + 3.0 * eps), opt_k * (1.0 - 1e-9))
      << "seed=" << seed << " k=" << k;
  // Never above the restricted optimum.
  EXPECT_LE(r->density, opt_k + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GuaranteeSweep, Algorithm2GuaranteeTest,
                         ::testing::Combine(::testing::Range(200, 210),
                                            ::testing::Values(2, 5, 8, 12)));

}  // namespace
}  // namespace densest
