// Unit tests for the per-pass peeling state — the alive-set degree and
// out/in accumulators a PassEngine pass fills — and weighted directed
// peeling.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/algorithm3.h"
#include "core/pass_engine.h"
#include "graph/graph_builder.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

TEST(PeelStateTest, UndirectedPassCountsOnlyAliveEdges) {
  EdgeList el(4);
  el.Add(0, 1, 2.0);
  el.Add(1, 2, 1.0);
  el.Add(2, 3, 1.0);
  EdgeListStream stream(el);

  NodeSet alive(4, /*full=*/true);
  alive.Remove(3);
  std::vector<double> degrees(4, 99.0);  // must be overwritten

  UndirectedPassResult r =
      DefaultPassEngine().RunUndirected(stream, alive, degrees);
  EXPECT_EQ(r.edges, 2u);          // edge 2-3 excluded
  EXPECT_DOUBLE_EQ(r.weight, 3.0);
  EXPECT_DOUBLE_EQ(degrees[0], 2.0);
  EXPECT_DOUBLE_EQ(degrees[1], 3.0);
  EXPECT_DOUBLE_EQ(degrees[2], 1.0);
  EXPECT_DOUBLE_EQ(degrees[3], 0.0);  // dead nodes read as zero
}

TEST(PeelStateTest, DirectedPassSplitsOutAndIn) {
  EdgeList arcs(4);
  arcs.Add(0, 1, 1.0);
  arcs.Add(0, 2, 1.0);
  arcs.Add(3, 1, 1.0);
  EdgeListStream stream(arcs);

  NodeSet s(4, true), t(4, true);
  t.Remove(2);  // arc 0->2 no longer counts
  std::vector<double> out_to_t(4), in_from_s(4);
  DirectedPassResult r =
      DefaultPassEngine().RunDirected(stream, s, t, out_to_t, in_from_s);
  EXPECT_EQ(r.arcs, 2u);
  EXPECT_DOUBLE_EQ(out_to_t[0], 1.0);
  EXPECT_DOUBLE_EQ(out_to_t[3], 1.0);
  EXPECT_DOUBLE_EQ(in_from_s[1], 2.0);
  EXPECT_DOUBLE_EQ(in_from_s[2], 0.0);
}

TEST(PeelStateTest, RepeatedPassesAreIdempotent) {
  // One engine, many passes: every pass must start from zeroed degree
  // arrays and totals, at 1 and 4 threads.
  EdgeList el(3);
  el.Add(0, 1);
  el.Add(1, 2);
  EdgeListStream stream(el);
  NodeSet alive(3, true);
  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> degrees(3);
    auto r1 = engine.RunUndirected(stream, alive, degrees);
    auto r2 = engine.RunUndirected(stream, alive, degrees);
    EXPECT_EQ(r1.edges, r2.edges) << threads;
    EXPECT_DOUBLE_EQ(r1.weight, r2.weight) << threads;
    EXPECT_DOUBLE_EQ(degrees[1], 2.0) << threads;  // not double-counted
  }
}

TEST(WeightedDirectedTest, Algorithm3UsesArcWeights) {
  // A heavy 2-cycle between {0,1} vs a light dense block on {2..5}.
  GraphBuilder b;
  b.Add(0, 1, 50.0);
  b.Add(1, 0, 50.0);
  for (NodeId u = 2; u <= 5; ++u) {
    for (NodeId v = 2; v <= 5; ++v) {
      if (u != v) b.Add(u, v, 1.0);
    }
  }
  DirectedGraph g = std::move(b.BuildDirected()).value();

  Algorithm3Options opt;
  opt.c = 1.0;
  opt.epsilon = 0.1;
  auto r = RunAlgorithm3(g, opt);
  ASSERT_TRUE(r.ok());
  // Heavy pair: rho(S={0,1}, T={0,1}) = 100/2 = 50.
  EXPECT_DOUBLE_EQ(r->density, 50.0);
  EXPECT_EQ(r->s_nodes, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(r->t_nodes, (std::vector<NodeId>{0, 1}));
}

TEST(WeightedDirectedTest, WeightScalingActsLinearlyOnAlgorithm3) {
  GraphBuilder base, scaled;
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(20));
    NodeId v = static_cast<NodeId>(rng.UniformU64(20));
    if (u == v) continue;
    base.Add(u, v, 1.0);
    scaled.Add(u, v, 7.0);
  }
  DirectedGraph g1 = std::move(base.BuildDirected()).value();
  DirectedGraph g2 = std::move(scaled.BuildDirected()).value();

  Algorithm3Options opt;
  opt.c = 1.0;
  opt.epsilon = 0.5;
  auto r1 = RunAlgorithm3(g1, opt);
  auto r2 = RunAlgorithm3(g2, opt);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->s_nodes, r2->s_nodes);
  EXPECT_EQ(r1->t_nodes, r2->t_nodes);
  EXPECT_NEAR(r2->density, 7.0 * r1->density, 1e-9);
}

}  // namespace
}  // namespace densest
