// Tests for the MapReduce engine, the §5.2 graph jobs, and the MR drivers'
// equivalence with the streaming algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/mr_densest.h"
#include "common/thread_pool.h"

namespace densest {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroAndOneCounts) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(CostModelTest, OverheadDominatesTinyJobs) {
  CostModel model;
  JobStats stats;  // zero records
  EXPECT_DOUBLE_EQ(SimulateJobSeconds(model, stats),
                   model.job_overhead_seconds);
}

TEST(CostModelTest, TimeGrowsWithRecords) {
  CostModel model;
  JobStats small, large;
  small.map_input_records = 1000;
  large.map_input_records = 1000000000;
  EXPECT_LT(SimulateJobSeconds(model, small),
            SimulateJobSeconds(model, large));
}

TEST(CostModelTest, AccumulateSums) {
  JobStats a, b;
  a.map_input_records = 5;
  a.simulated_seconds = 1.5;
  b.map_input_records = 7;
  b.simulated_seconds = 2.5;
  a.Accumulate(b);
  EXPECT_EQ(a.map_input_records, 12u);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, 4.0);
  EXPECT_NE(a.ToString().find("map_in=12"), std::string::npos);
}

TEST(RunJobTest, WordCountStyleAggregation) {
  MapReduceEnv env;
  std::vector<KV<uint32_t, uint32_t>> input;
  // 10 records of key i%3.
  for (uint32_t i = 0; i < 10; ++i) input.push_back({i, i % 3});

  JobStats stats;
  auto counts = RunJob<uint32_t, uint32_t, uint32_t, uint64_t>(
      env, input,
      [](const uint32_t&, const uint32_t& group,
         Emitter<uint32_t, uint32_t>& emit) { emit.Emit(group, 1); },
      [](const uint32_t& key, const std::vector<uint32_t>& ones,
         Emitter<uint32_t, uint64_t>& emit) {
        emit.Emit(key, ones.size());
      },
      &stats);

  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].value, 4u);  // keys 0,3,6,9
  EXPECT_EQ(counts[1].value, 3u);
  EXPECT_EQ(counts[2].value, 3u);
  EXPECT_EQ(stats.map_input_records, 10u);
  EXPECT_EQ(stats.map_output_records, 10u);
  EXPECT_EQ(stats.reduce_input_groups, 3u);
  EXPECT_GT(stats.simulated_seconds, 0.0);
}

TEST(RunJobTest, DeterministicAcrossThreadCounts) {
  std::vector<KV<uint32_t, uint32_t>> input;
  for (uint32_t i = 0; i < 5000; ++i) input.push_back({i % 97, i});

  auto run = [&](size_t threads) {
    MapReduceEnv env({}, threads);
    auto out = RunJob<uint32_t, uint32_t, uint32_t, uint64_t>(
        env, input,
        [](const uint32_t& k, const uint32_t& v,
           Emitter<uint32_t, uint32_t>& emit) { emit.Emit(k, v); },
        [](const uint32_t& key, const std::vector<uint32_t>& vs,
           Emitter<uint32_t, uint64_t>& emit) {
          uint64_t sum = 0;
          for (uint32_t v : vs) sum += v;
          emit.Emit(key, sum);
        });
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return out;
  };

  auto a = run(1), b = run(8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(GraphJobsTest, DegreeJobMatchesCsrDegrees) {
  EdgeList el = ErdosRenyiGnm(200, 800, 81);
  GraphBuilder b;
  b.ReserveNodes(el.num_nodes());
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();

  MapReduceEnv env;
  auto degrees = MrDegreeJob(env, ToMrEdges(g.ToEdgeList().edges()));
  std::vector<EdgeId> deg(g.num_nodes(), 0);
  for (const auto& kv : degrees) deg[kv.key] = kv.value;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(deg[u], g.Degree(u)) << "u=" << u;
  }
}

TEST(GraphJobsTest, CombinedDegreeJobMatchesPlainDegreeJob) {
  EdgeList el = ErdosRenyiGnm(300, 2000, 82);
  MapReduceEnv env;
  MrEdges edges = ToMrEdges(el.edges());

  JobStats plain_stats, combined_stats;
  auto plain = MrDegreeJob(env, edges, &plain_stats);
  auto combined = MrDegreeJobCombined(env, edges, &combined_stats);

  auto by_key = [](const KV<NodeId, EdgeId>& a, const KV<NodeId, EdgeId>& b) {
    return a.key < b.key;
  };
  std::sort(plain.begin(), plain.end(), by_key);
  std::sort(combined.begin(), combined.end(), by_key);
  ASSERT_EQ(plain.size(), combined.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].key, combined[i].key);
    EXPECT_EQ(plain[i].value, combined[i].value);
  }

  // The combiner is what crosses the shuffle: fewer records, fewer bytes.
  EXPECT_EQ(combined_stats.map_output_records, 2 * el.num_edges());
  EXPECT_LT(combined_stats.combine_output_records,
            combined_stats.map_output_records);
  EXPECT_LT(combined_stats.shuffle_bytes, plain_stats.shuffle_bytes);
}

TEST(GraphJobsTest, CombinerInvarianceAcrossThreadCounts) {
  // Chunking changes which records each combiner sees; the final counts
  // must not.
  EdgeList el = ErdosRenyiGnm(200, 1500, 84);
  MrEdges edges = ToMrEdges(el.edges());
  auto run = [&](size_t threads) {
    MapReduceEnv env({}, threads);
    auto out = MrDegreeJobCombined(env, edges);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return out;
  };
  auto a = run(1), b = run(8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(GraphJobsTest, DirectedDegreeJobMatchesCsr) {
  EdgeList el = ErdosRenyiDirectedGnm(150, 900, 83);
  DirectedGraph g = DirectedGraph::FromEdgeList(el);
  MapReduceEnv env;
  auto degrees = MrDirectedDegreeJob(env, ToMrEdges(el.edges()));
  std::vector<EdgeId> out_deg(g.num_nodes(), 0), in_deg(g.num_nodes(), 0);
  for (const auto& kv : degrees) {
    NodeId node = static_cast<NodeId>(kv.key >> 1);
    (kv.key & 1 ? in_deg : out_deg)[node] = kv.value;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(out_deg[u], g.OutDegree(u));
    EXPECT_EQ(in_deg[u], g.InDegree(u));
  }
}

TEST(GraphJobsTest, CountEdgesJob) {
  EdgeList el = ErdosRenyiGnm(100, 321, 85);
  MapReduceEnv env;
  EXPECT_EQ(MrCountEdgesJob(env, ToMrEdges(el.edges())), 321u);
  EXPECT_EQ(MrCountEdgesJob(env, {}), 0u);
}

TEST(GraphJobsTest, RemoveNodesDropsExactlyIncidentEdges) {
  // Triangle 0-1-2 plus edge 2-3; removing node 2 leaves only 0-1.
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(0, 2);
  el.Add(2, 3);
  MapReduceEnv env;
  NodeSet marked(4);
  marked.Insert(2);
  MrEdges out = MrRemoveNodesJob(env, ToMrEdges(el.edges()), marked);
  ASSERT_EQ(out.size(), 1u);
  NodeId a = std::min(out[0].key, out[0].value);
  NodeId bb = std::max(out[0].key, out[0].value);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(bb, 1u);
}

TEST(GraphJobsTest, RemoveNodesHandlesBothEndpointOrientations) {
  // Node marked on the *second* endpoint position must also be caught.
  EdgeList el(3);
  el.Add(0, 2);  // 2 in second position
  el.Add(2, 1);  // 2 in first position
  MapReduceEnv env;
  NodeSet marked(3);
  marked.Insert(2);
  MrEdges out = MrRemoveNodesJob(env, ToMrEdges(el.edges()), marked);
  EXPECT_TRUE(out.empty());
}

TEST(GraphJobsTest, RemoveArcsBySourceAndTarget) {
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(2, 3);
  MapReduceEnv env;
  NodeSet marked(4);
  marked.Insert(1);

  MrEdges by_src = MrRemoveArcsJob(env, ToMrEdges(el.edges()), marked,
                                   /*by_source=*/true);
  // Only arc 1->2 has source 1.
  ASSERT_EQ(by_src.size(), 2u);

  MrEdges by_dst = MrRemoveArcsJob(env, ToMrEdges(el.edges()), marked,
                                   /*by_source=*/false);
  // Only arc 0->1 has target 1.
  ASSERT_EQ(by_dst.size(), 2u);
  for (const auto& kv : by_dst) EXPECT_NE(kv.value, 1u);
}

// ---- Driver equivalence with the streaming algorithms. ----

// The MR drivers peel through the streaming runs, so every trace field
// matches the streaming trace exactly.
void ExpectSameTrace(const std::vector<PassSnapshot>& got,
                     const std::vector<PassSnapshot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pass, want[i].pass) << "pass " << i;
    EXPECT_EQ(got[i].nodes, want[i].nodes) << "pass " << i;
    EXPECT_EQ(got[i].edges, want[i].edges) << "pass " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "pass " << i;
    EXPECT_EQ(got[i].density, want[i].density) << "pass " << i;
    EXPECT_EQ(got[i].threshold, want[i].threshold) << "pass " << i;
    EXPECT_EQ(got[i].removed, want[i].removed) << "pass " << i;
  }
}

void ExpectSameTrace(const std::vector<DirectedPassSnapshot>& got,
                     const std::vector<DirectedPassSnapshot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pass, want[i].pass) << "pass " << i;
    EXPECT_EQ(got[i].s_size, want[i].s_size) << "pass " << i;
    EXPECT_EQ(got[i].t_size, want[i].t_size) << "pass " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "pass " << i;
    EXPECT_EQ(got[i].density, want[i].density) << "pass " << i;
    EXPECT_EQ(got[i].removed_from_s, want[i].removed_from_s) << "pass " << i;
    EXPECT_EQ(got[i].removed, want[i].removed) << "pass " << i;
  }
}

/// The §5.2 records carry no weight, so MR sees a GraphBuilder graph (whose
/// merged duplicates weigh 2) as unit multi-edges: each weight-w edge as w
/// unit edges, the same graph with every weight 1.
EdgeList UnitMultiEdges(const UndirectedGraph& g) {
  const EdgeList weighted = g.ToEdgeList();
  EdgeList el(g.num_nodes());
  for (const Edge& e : weighted.edges()) {
    EXPECT_TRUE(e.w >= 1 && e.w == std::floor(e.w)) << "weight " << e.w;
    for (int k = 0; k < static_cast<int>(e.w); ++k) el.Add(e.u, e.v);
  }
  return el;
}

class MrUndirectedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MrUndirectedEquivalenceTest, MatchesStreamingAlgorithm1) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  GraphBuilder b;
  EdgeList raw = ErdosRenyiGnm(120, 700, seed);
  b.ReserveNodes(raw.num_nodes());
  for (const Edge& e : raw.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  EdgeList el = g.ToEdgeList();
  el.set_num_nodes(g.num_nodes());

  Algorithm1Options stream_opt;
  stream_opt.epsilon = 0.5;
  auto streaming = RunAlgorithm1(g, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = 0.5;
  auto mr = RunMrDensestUndirected(env, el, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.nodes, streaming->nodes) << "seed=" << seed;
  EXPECT_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  EXPECT_EQ(mr->result.io_passes, streaming->io_passes);
  EXPECT_EQ(mr->result.certified_band, streaming->certified_band);
  ExpectSameTrace(mr->result.trace, streaming->trace);
  EXPECT_EQ(mr->pass_seconds.size(), mr->result.passes);
  for (double s : mr->pass_seconds) EXPECT_GT(s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(MrSweep, MrUndirectedEquivalenceTest,
                         ::testing::Range(700, 708));

class MrDirectedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MrDirectedEquivalenceTest, MatchesStreamingAlgorithm3) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  EdgeList el = ErdosRenyiDirectedGnm(100, 800, seed);
  el.set_num_nodes(100);
  DirectedGraph g = DirectedGraph::FromEdgeList(el);

  Algorithm3Options stream_opt;
  stream_opt.c = 2.0;
  stream_opt.epsilon = 1.0;
  auto streaming = RunAlgorithm3(g, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDirectedOptions mr_opt;
  mr_opt.c = 2.0;
  mr_opt.epsilon = 1.0;
  auto mr = RunMrDensestDirected(env, el, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.s_nodes, streaming->s_nodes) << "seed=" << seed;
  EXPECT_EQ(mr->result.t_nodes, streaming->t_nodes);
  EXPECT_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  EXPECT_EQ(mr->result.c, streaming->c);
  EXPECT_EQ(mr->result.certified_band, streaming->certified_band);
  ExpectSameTrace(mr->result.trace, streaming->trace);
}

INSTANTIATE_TEST_SUITE_P(MrDirectedSweep, MrDirectedEquivalenceTest,
                         ::testing::Range(800, 806));

TEST(MrDriverTest, InvalidArguments) {
  MapReduceEnv env;
  EdgeList el(3);
  el.Add(0, 1);
  MrDensestOptions bad;
  bad.epsilon = -1;
  EXPECT_FALSE(RunMrDensestUndirected(env, el, bad).ok());
  bad.epsilon = std::nan("");
  EXPECT_FALSE(RunMrDensestUndirected(env, el, bad).ok());
  bad.epsilon = INFINITY;
  EXPECT_FALSE(RunMrDensestUndirected(env, el, bad).ok());
  EXPECT_FALSE(RunMrDensestUndirected(env, EdgeList(0), {}).ok());
  MrDirectedOptions bad_dir;
  bad_dir.c = 0;
  EXPECT_FALSE(RunMrDensestDirected(env, el, bad_dir).ok());
  bad_dir.c = 1;
  bad_dir.epsilon = std::nan("");
  EXPECT_FALSE(RunMrDensestDirected(env, el, bad_dir).ok());
}

TEST(MrDriverTest, SimulatedTimeDecaysAcrossPasses) {
  // The graph shrinks every pass, so simulated per-pass time is
  // non-increasing (up to the constant overhead floor) and the first pass
  // is the most expensive.
  PlantedGraph pg = PlantDenseBlocks(3000, 20000, {{40, 0.9}}, 91);
  GraphBuilder b;
  b.ReserveNodes(pg.edges.num_nodes());
  for (const Edge& e : pg.edges.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  EdgeList el = UnitMultiEdges(g);

  CostModel model;
  model.map_seconds_per_record = 1e-3;  // exaggerate data-dependent cost
  model.reduce_seconds_per_record = 1e-3;
  MapReduceEnv env(model);
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto mr = RunMrDensestUndirected(env, el, opt);
  ASSERT_TRUE(mr.ok());
  ASSERT_GE(mr->pass_seconds.size(), 2u);
  double first = mr->pass_seconds.front();
  for (double s : mr->pass_seconds) EXPECT_LE(s, first * 1.05);
}

}  // namespace
}  // namespace densest
