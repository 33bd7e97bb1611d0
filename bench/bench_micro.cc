// Microbenchmarks (google-benchmark) of the core primitives: the per-pass
// streaming scan, the removal sweep, Count-Sketch updates/queries, the
// MapReduce degree job, k-core decomposition, and Dinic on the Goldberg
// network.

#include <benchmark/benchmark.h>

#include "core/algorithm1.h"
#include "core/charikar.h"
#include "core/kcore.h"
#include "core/pass_engine.h"
#include "flow/goldberg.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/subgraph.h"
#include "mapreduce/graph_jobs.h"
#include "sketch/count_sketch.h"
#include "stream/memory_stream.h"

namespace {

using namespace densest;

const UndirectedGraph& TestGraph() {
  static const UndirectedGraph* g = [] {
    ChungLuOptions cl;
    cl.num_nodes = 50000;
    cl.num_edges = 250000;
    // lint:allow(naked-new) — leaked benchmark fixture
    return new UndirectedGraph(UndirectedGraph::FromEdgeList(ChungLu(cl, 7)));
  }();
  return *g;
}

void BM_StreamingPass(benchmark::State& state) {
  const UndirectedGraph& g = TestGraph();
  UndirectedGraphStream stream(g);
  NodeSet alive(g.num_nodes(), true);
  std::vector<double> degrees(g.num_nodes());
  for (auto _ : state) {
    auto r = DefaultPassEngine().RunUndirected(stream, alive, degrees);
    benchmark::DoNotOptimize(r.weight);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_StreamingPass);

void BM_Algorithm1FullRun(benchmark::State& state) {
  const UndirectedGraph& g = TestGraph();
  Algorithm1Options opt;
  opt.epsilon = static_cast<double>(state.range(0)) / 10.0;
  opt.record_trace = false;
  for (auto _ : state) {
    auto r = RunAlgorithm1(g, opt);
    benchmark::DoNotOptimize(r->density);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Algorithm1FullRun)->Arg(0)->Arg(5)->Arg(20);

void BM_CharikarPeel(benchmark::State& state) {
  const UndirectedGraph& g = TestGraph();
  for (auto _ : state) {
    CharikarResult r = CharikarPeel(g);
    benchmark::DoNotOptimize(r.best.density);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CharikarPeel);

void BM_KCoreDecomposition(benchmark::State& state) {
  const UndirectedGraph& g = TestGraph();
  for (auto _ : state) {
    CoreDecomposition dec = KCoreDecomposition(g);
    benchmark::DoNotOptimize(dec.degeneracy);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KCoreDecomposition);

void BM_CountSketchUpdate(benchmark::State& state) {
  auto sketch = CountSketch::Create(
      {.tables = 5, .buckets = static_cast<int>(state.range(0))}, 3);
  uint32_t x = 0;
  for (auto _ : state) {
    sketch->Update(x++ & 0xFFFFF, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate)->Arg(1024)->Arg(30000);

void BM_CountSketchEstimate(benchmark::State& state) {
  auto sketch = CountSketch::Create({.tables = 5, .buckets = 30000}, 3);
  for (uint32_t x = 0; x < 100000; ++x) sketch->Update(x, 1.0);
  uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch->Estimate(x++ & 0xFFFFF));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchEstimate);

void BM_MrDegreeJob(benchmark::State& state) {
  static MrEdges edges = [] {
    EdgeList el = ErdosRenyiGnm(20000, 100000, 5);
    return ToMrEdges(el.edges());
  }();
  MapReduceEnv env;
  for (auto _ : state) {
    auto degrees = MrDegreeJob(env, edges);
    benchmark::DoNotOptimize(degrees.size());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_MrDegreeJob);

void BM_ExactFlowSolve(benchmark::State& state) {
  static const UndirectedGraph* g = [] {
    ChungLuOptions cl;
    cl.num_nodes = 5000;
    cl.num_edges = 25000;
    // lint:allow(naked-new) — leaked benchmark fixture
    return new UndirectedGraph(UndirectedGraph::FromEdgeList(ChungLu(cl, 9)));
  }();
  for (auto _ : state) {
    auto r = ExactDensestSubgraph(*g);
    benchmark::DoNotOptimize(r->density);
  }
  state.SetItemsProcessed(state.iterations() * g->num_edges());
}
BENCHMARK(BM_ExactFlowSolve);

// The live-row walk every pass and peel step takes over 10^6 nodes: every
// node alive (arg 1) or one in 64 (arg 64), as after a few peel passes.
void BM_NodeSetSweep(benchmark::State& state) {
  const NodeId n = 1000000;
  const NodeId stride = static_cast<NodeId>(state.range(0));
  NodeSet s(n);
  for (NodeId u = 0; u < n; u += stride) s.Insert(u);
  for (auto _ : state) {
    uint64_t sum = 0;
    ForEachMember(s, 0, n, [&sum](NodeId u) { sum += u; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NodeSetSweep)->Arg(1)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
