// Unit tests for the per-pass peeling state — the alive-set degree and
// out/in accumulators a PassEngine pass fills, and the peel steps that
// read only their live rows — and weighted directed peeling.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.h"
#include "core/algorithm3.h"
#include "core/pass_engine.h"
#include "core/peel_runs.h"
#include "gen/planted.h"
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

// ---------------------------------------------------------------------------
// A peel step reads live rows only: a pulled pass leaves each dead row's
// value from an earlier pass in place. These feed each run's ApplyPass
// degree arrays whose dead rows hold 0.0 (what a zeroing pass left), -1.0
// (below every threshold) or 1e300 (above every threshold), which must not
// change a single decision, and each pass's trace must count exactly the
// nodes that left the set. A peel step that walks dead rows peels or
// counts the low ones and skips the high ones.

constexpr double kDeadRowValues[] = {0.0, -1.0, 1e300};

/// One undirected pass over `edges` for `alive`, dead rows set to `dead`.
UndirectedPassResult PassWithDeadRows(const EdgeList& edges,
                                      const NodeSet& alive, double dead,
                                      std::vector<double>& degrees) {
  degrees.assign(alive.universe_size(), dead);
  for (NodeId u : alive.ToVector()) degrees[u] = 0.0;
  UndirectedPassResult stats;
  for (const Edge& e : edges.edges()) {
    if (alive.ContainsBoth(e.u, e.v)) {
      degrees[e.u] += e.w;
      degrees[e.v] += e.w;
      stats.weight += e.w;
      ++stats.edges;
    }
  }
  return stats;
}

/// A run's sets after each pass, its trace's removed counts, and how many
/// nodes each pass took out of the sets.
struct PeelRecord {
  std::vector<std::vector<NodeId>> sets;
  std::vector<NodeId> removed;
  std::vector<NodeId> shrunk;
};

template <typename Run, typename Options>
PeelRecord PeelUndirected(const EdgeList& edges, const Options& options,
                          double dead) {
  Run run(edges.num_nodes(), options);
  PeelRecord record;
  std::vector<double> degrees;
  while (!run.done()) {
    const NodeId before = run.alive().size();
    const UndirectedPassResult stats =
        PassWithDeadRows(edges, run.alive(), dead, degrees);
    run.ApplyPass(stats, degrees);
    record.sets.push_back(run.alive().ToVector());
    record.shrunk.push_back(before - run.alive().size());
  }
  for (const PassSnapshot& snap : run.TakeResult().trace) {
    record.removed.push_back(snap.removed);
  }
  return record;
}

template <typename Run, typename Options>
void ExpectPeelIgnoresDeadRows(const EdgeList& edges, const Options& options) {
  const PeelRecord want = PeelUndirected<Run>(edges, options, 0.0);
  ASSERT_GE(want.sets.size(), 3u);  // later passes have dead rows
  for (double dead : kDeadRowValues) {
    const PeelRecord got = PeelUndirected<Run>(edges, options, dead);
    EXPECT_EQ(got.sets, want.sets) << "dead rows " << dead;
    EXPECT_EQ(got.removed, got.shrunk) << "dead rows " << dead;
  }
}

EdgeList PlantedUndirected() {
  return PlantDenseBlocks(400, 1500, {{.size = 30, .internal_p = 0.6}}, 17)
      .edges;
}

TEST(DeadRowTest, Algorithm1PeelReadsLiveRowsOnly) {
  Algorithm1Options options;
  options.epsilon = 0.2;
  ExpectPeelIgnoresDeadRows<Algorithm1Run>(PlantedUndirected(), options);
}

TEST(DeadRowTest, Algorithm2PeelReadsLiveRowsOnly) {
  Algorithm2Options options;
  options.epsilon = 0.2;
  options.min_size = 20;
  ExpectPeelIgnoresDeadRows<Algorithm2Run>(PlantedUndirected(), options);
}

/// Algorithm 3 under `rule`. Both arrays are filled for live rows whatever
/// sides() names; a pass's sets are its S then its T.
PeelRecord PeelDirected(const EdgeList& arcs, DirectedRemovalRule rule,
                        double dead) {
  Algorithm3Options options;
  options.c = 0.5;
  options.epsilon = 0.2;
  options.rule = rule;
  Algorithm3Run run(arcs.num_nodes(), options);
  PeelRecord record;
  const NodeId n = arcs.num_nodes();
  std::vector<double> out_to_t, in_from_s;
  while (!run.done()) {
    const NodeId before = run.s().size() + run.t().size();
    out_to_t.assign(n, dead);
    in_from_s.assign(n, dead);
    for (NodeId u : run.s().ToVector()) out_to_t[u] = 0.0;
    for (NodeId u : run.t().ToVector()) in_from_s[u] = 0.0;
    DirectedPassResult stats;
    for (const Edge& e : arcs.edges()) {
      if (run.s().Contains(e.u) && run.t().Contains(e.v)) {
        out_to_t[e.u] += e.w;
        in_from_s[e.v] += e.w;
        stats.weight += e.w;
        ++stats.arcs;
      }
    }
    run.ApplyPass(stats, out_to_t, in_from_s);
    record.sets.push_back(run.s().ToVector());
    record.sets.push_back(run.t().ToVector());
    record.shrunk.push_back(before - run.s().size() - run.t().size());
  }
  for (const DirectedPassSnapshot& snap : run.TakeResult().trace) {
    record.removed.push_back(snap.removed);
  }
  return record;
}

TEST(DeadRowTest, Algorithm3PeelReadsLiveRowsOnly) {
  const EdgeList arcs = PlantDirectedBlock(400, 2000, 15, 40, 0.6, 19).arcs;
  for (DirectedRemovalRule rule :
       {DirectedRemovalRule::kSizeRatio, DirectedRemovalRule::kMaxDegree}) {
    const PeelRecord want = PeelDirected(arcs, rule, 0.0);
    ASSERT_GE(want.sets.size(), 6u);  // three passes or more
    for (double dead : kDeadRowValues) {
      const PeelRecord got = PeelDirected(arcs, rule, dead);
      EXPECT_EQ(got.sets, want.sets) << "dead rows " << dead;
      EXPECT_EQ(got.removed, got.shrunk) << "dead rows " << dead;
    }
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
