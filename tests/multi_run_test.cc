// Equivalence tests for fused PassEngine sweeps: a fused c-sweep or
// epsilon-sweep must produce results bit-identical to the same
// configurations run sequentially — densities, pass counts, survivor sets
// and traces — across 1..8 fan-out threads and every stream type, while
// physically scanning the stream only max-over-runs(passes) times.

#include "core/multi_run.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/peel_runs.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

void ExpectSameDirected(const DirectedDensestResult& seq,
                        const DirectedDensestResult& fused,
                        const std::string& label) {
  EXPECT_EQ(seq.c, fused.c) << label;
  EXPECT_EQ(seq.density, fused.density) << label;  // bit-identical, not NEAR
  EXPECT_EQ(seq.passes, fused.passes) << label;
  EXPECT_EQ(seq.s_nodes, fused.s_nodes) << label;
  EXPECT_EQ(seq.t_nodes, fused.t_nodes) << label;
  ASSERT_EQ(seq.trace.size(), fused.trace.size()) << label;
  for (size_t i = 0; i < seq.trace.size(); ++i) {
    EXPECT_EQ(seq.trace[i].weight, fused.trace[i].weight) << label;
    EXPECT_EQ(seq.trace[i].density, fused.trace[i].density) << label;
    EXPECT_EQ(seq.trace[i].removed, fused.trace[i].removed) << label;
    EXPECT_EQ(seq.trace[i].removed_from_s, fused.trace[i].removed_from_s)
        << label;
  }
}

void ExpectSameUndirected(const UndirectedDensestResult& seq,
                          const UndirectedDensestResult& fused,
                          const std::string& label) {
  EXPECT_EQ(seq.density, fused.density) << label;
  EXPECT_EQ(seq.passes, fused.passes) << label;
  EXPECT_EQ(seq.io_passes, fused.io_passes) << label;
  EXPECT_EQ(seq.nodes, fused.nodes) << label;
  ASSERT_EQ(seq.trace.size(), fused.trace.size()) << label;
  for (size_t i = 0; i < seq.trace.size(); ++i) {
    EXPECT_EQ(seq.trace[i].weight, fused.trace[i].weight) << label;
    EXPECT_EQ(seq.trace[i].density, fused.trace[i].density) << label;
    EXPECT_EQ(seq.trace[i].removed, fused.trace[i].removed) << label;
  }
}

std::vector<Algorithm3Options> DirectedGrid() {
  std::vector<Algorithm3Options> grid;
  for (double c : {0.125, 0.5, 1.0, 2.0, 8.0}) {
    Algorithm3Options o;
    o.c = c;
    o.epsilon = 0.25;
    grid.push_back(o);
  }
  // A couple of off-grid configurations: different eps and the max-degree
  // removal rule, to prove fusion is per-run, not per-sweep.
  Algorithm3Options hot;
  hot.c = 1.0;
  hot.epsilon = 1.0;
  grid.push_back(hot);
  Algorithm3Options naive;
  naive.c = 2.0;
  naive.epsilon = 0.25;
  naive.rule = DirectedRemovalRule::kMaxDegree;
  grid.push_back(naive);
  return grid;
}

/// Fused results over `stream` must equal sequential RunAlgorithm3 per
/// options, for every fan-out thread count. On record streams each of the
/// 7 runs is one task per round, so 8 threads leave a worker idle and
/// fewer threads share the runs out; both shapes are covered.
void CheckDirectedEquivalence(EdgeStream& stream, const std::string& label) {
  const std::vector<Algorithm3Options> grid = DirectedGrid();

  std::vector<DirectedDensestResult> seq;
  for (const Algorithm3Options& o : grid) {
    auto r = RunAlgorithm3(stream, o);
    ASSERT_TRUE(r.ok()) << label;
    seq.push_back(std::move(*r));
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    auto fused = engine.RunDirectedRuns(stream, grid);
    ASSERT_TRUE(fused.ok()) << label;
    ASSERT_EQ(fused->size(), grid.size()) << label;
    uint64_t max_passes = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      ExpectSameDirected(
          seq[i], (*fused)[i],
          label + " threads=" + std::to_string(threads) +
              " run=" + std::to_string(i));
      max_passes = std::max(max_passes, (*fused)[i].passes);
    }
    // The fused engine scans once per pass round: exactly the longest
    // run.
    EXPECT_EQ(engine.last_physical_passes(), max_passes) << label;
  }
}

TEST(MultiRunDirectedTest, EdgeListStream) {
  EdgeList el = ErdosRenyiDirectedGnm(300, 4000, 11);
  EdgeListStream stream(el);
  CheckDirectedEquivalence(stream, "edge-list");
}

TEST(MultiRunDirectedTest, WeightedEdgeListStream) {
  // Non-unit weights force the per-run slot accumulators; results must
  // still be bit-identical to sequential PassEngine runs.
  EdgeList el = ErdosRenyiDirectedGnm(250, 5000, 13);
  Rng rng(17);
  for (Edge& e : el.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  EdgeListStream stream(el);
  CheckDirectedEquivalence(stream, "weighted-edge-list");
}

TEST(MultiRunDirectedTest, DirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiDirectedGnm(300, 4000, 19);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream stream(g);
  CheckDirectedEquivalence(stream, "csr");
}

class MultiRunFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(MultiRunFileTest, BinaryFileStream) {
  path_ = ::testing::TempDir() + "/multi_run_directed.bin";
  EdgeList el = ErdosRenyiDirectedGnm(200, 3000, 23);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  CheckDirectedEquivalence(**stream, "file");
}

TEST_F(MultiRunFileTest, WeightedBinaryFileStream) {
  path_ = ::testing::TempDir() + "/multi_run_weighted.bin";
  EdgeList el = ErdosRenyiDirectedGnm(150, 2500, 29);
  Rng rng(31);
  for (Edge& e : el.mutable_edges()) e.w = 0.5 + rng.UniformDouble();
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/true).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  CheckDirectedEquivalence(**stream, "weighted-file");
}

// ---------------------------------------------------------------------------
// Undirected sweeps (Algorithms 1 and 2).

std::vector<double> EpsilonGrid() { return {0.0, 0.25, 0.5, 1.0, 2.0}; }

void CheckEpsilonSweepEquivalence(EdgeStream& stream,
                                  const std::string& label,
                                  EdgeId compact_below_edges = 0) {
  Algorithm1Options base;
  base.compact_below_edges = compact_below_edges;
  const std::vector<double> epsilons = EpsilonGrid();

  std::vector<UndirectedDensestResult> seq;
  for (double eps : epsilons) {
    Algorithm1Options o = base;
    o.epsilon = eps;
    auto r = RunAlgorithm1(stream, o);
    ASSERT_TRUE(r.ok()) << label;
    seq.push_back(std::move(*r));
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    auto fused = RunAlgorithm1EpsilonSweep(stream, base, epsilons, &engine);
    ASSERT_TRUE(fused.ok()) << label;
    ASSERT_EQ(fused->size(), epsilons.size()) << label;
    uint64_t max_io = 0;
    for (size_t i = 0; i < epsilons.size(); ++i) {
      ExpectSameUndirected(
          seq[i], (*fused)[i],
          label + " threads=" + std::to_string(threads) +
              " eps=" + std::to_string(epsilons[i]));
      max_io = std::max(max_io, (*fused)[i].io_passes);
    }
    EXPECT_EQ(engine.last_physical_passes(), max_io) << label;
  }
}

TEST(MultiRunEpsilonSweepTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(300, 4000, 37);
  EdgeListStream stream(el);
  CheckEpsilonSweepEquivalence(stream, "edge-list");
}

TEST(MultiRunEpsilonSweepTest, WeightedEdgeListStream) {
  EdgeList el = ErdosRenyiGnm(250, 5000, 41);
  Rng rng(43);
  for (Edge& e : el.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  EdgeListStream stream(el);
  CheckEpsilonSweepEquivalence(stream, "weighted-edge-list");
}

TEST(MultiRunEpsilonSweepTest, UndirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(300, 4000, 47);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream stream(g);
  CheckEpsilonSweepEquivalence(stream, "csr");
}

TEST(MultiRunEpsilonSweepTest, GnpEdgeStream) {
  GnpEdgeStream stream(400, 0.05, 53);
  CheckEpsilonSweepEquivalence(stream, "gnp");
}

TEST(MultiRunEpsilonSweepTest, CirculantEdgeStream) {
  CirculantEdgeStream stream(301, 8);
  CheckEpsilonSweepEquivalence(stream, "circulant");
}

TEST(MultiRunEpsilonSweepTest, WeightedCsrStreamMatchesSequential) {
  // Weighted + CSR view: fused and solo passes share the row-pull kernel,
  // so the fused sweep matches run-by-run execution bit for bit.
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(200, 2500, 89);
  Rng rng(97);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream stream(g);

  Algorithm1Options base;
  const std::vector<double> epsilons = EpsilonGrid();
  std::vector<UndirectedDensestResult> seq;
  for (double eps : epsilons) {
    Algorithm1Options o = base;
    o.epsilon = eps;
    auto r = RunAlgorithm1(stream, o);
    ASSERT_TRUE(r.ok());
    seq.push_back(std::move(*r));
  }
  auto sweep = RunAlgorithm1EpsilonSweep(stream, base, epsilons);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ExpectSameUndirected(seq[i], (*sweep)[i],
                         "weighted-csr eps=" + std::to_string(epsilons[i]));
  }
}

TEST(MultiRunEpsilonSweepTest, CompactionLeavesTheSharedScan) {
  // With §6.3 compaction armed, fused runs must buffer at the same pass as
  // their sequential twins and produce the same io_passes — and the fused
  // scan must stop as soon as every run went in-memory.
  EdgeList el = ErdosRenyiGnm(300, 6000, 59);
  EdgeListStream stream(el);
  CheckEpsilonSweepEquivalence(stream, "compacting", /*compact_below_edges=*/
                               2000);
}

TEST(MultiRunEpsilonSweepTest, WeightedCsrCompactionFusedMatchesSolo) {
  // The §6.3 collect pass pulls rows too, solo and fused: the buffered
  // survivors, and every in-memory pass after them, must agree bit for bit.
  EdgeList el = ErdosRenyiGnm(300, 6000, 101);
  Rng rng(103);
  for (Edge& e : el.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  UndirectedGraph g = UndirectedGraph::FromEdgeList(el);
  UndirectedGraphStream stream(g);
  CheckEpsilonSweepEquivalence(stream, "weighted-csr-compacting",
                               /*compact_below_edges=*/2000);
}

TEST(MultiRunAlgorithm2Test, FusedMatchesSequential) {
  EdgeList el = ErdosRenyiGnm(300, 4000, 61);
  EdgeListStream stream(el);

  std::vector<Algorithm2Options> grid;
  for (NodeId k : {1u, 50u, 150u}) {
    for (double eps : {0.5, 1.0}) {
      Algorithm2Options o;
      o.min_size = k;
      o.epsilon = eps;
      grid.push_back(o);
    }
  }

  std::vector<UndirectedDensestResult> seq;
  for (const Algorithm2Options& o : grid) {
    auto r = RunAlgorithm2(stream, o);
    ASSERT_TRUE(r.ok());
    seq.push_back(std::move(*r));
  }

  // 8 threads > 6 runs: a worker per run; 4 threads: runs share workers.
  for (size_t threads : {1u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    auto fused = engine.RunUndirectedRuns(stream, grid);
    ASSERT_TRUE(fused.ok());
    ASSERT_EQ(fused->size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
      ExpectSameUndirected(seq[i], (*fused)[i],
                           "alg2 threads=" + std::to_string(threads) +
                               " run=" + std::to_string(i));
    }
  }
}

TEST(MultiRunDriveTest, TruncatedFileAbortsTheSweep) {
  // The fused engine must surface a stream IO error instead of peeling on
  // statistics of a silently truncated pass.
  const std::string path = ::testing::TempDir() + "/multi_run_trunc.bin";
  EdgeList el = ErdosRenyiGnm(400, 8000, 83);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 3000 * 8);
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());

  PassEngine engine(PassEngineOptions{.num_threads = 2});
  auto fused = RunAlgorithm1EpsilonSweep(**stream, {}, EpsilonGrid(), &engine);
  ASSERT_FALSE(fused.ok());
  EXPECT_EQ(fused.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fused RunCSearch (the converted §6.4 entry point).

TEST(MultiRunCSearchTest, FusedMatchesSequentialAndSavesScans) {
  EdgeList el = ErdosRenyiDirectedGnm(200, 3000, 67);

  CSearchOptions opt;
  opt.delta = 2.0;
  opt.epsilon = 0.5;
  opt.record_trace = false;

  EdgeListStream seq_inner(el);
  PassStats seq_stats;
  CountingEdgeStream seq_stream(seq_inner, seq_stats);
  opt.fused = false;
  auto seq = RunCSearch(seq_stream, opt);
  ASSERT_TRUE(seq.ok());

  EdgeListStream fused_inner(el);
  PassStats fused_stats;
  CountingEdgeStream fused_stream(fused_inner, fused_stats);
  opt.fused = true;
  auto fused = RunCSearch(fused_stream, opt);
  ASSERT_TRUE(fused.ok());

  ASSERT_EQ(seq->sweep.size(), fused->sweep.size());
  for (size_t i = 0; i < seq->sweep.size(); ++i) {
    ExpectSameDirected(seq->sweep[i], fused->sweep[i],
                       "csearch run=" + std::to_string(i));
  }
  ExpectSameDirected(seq->best, fused->best, "csearch best");

  // Scan accounting: the wrapper counts one Reset per physical scan.
  EXPECT_EQ(seq->physical_scans, seq_stats.passes);
  EXPECT_EQ(fused->physical_scans, fused_stats.passes);
  EXPECT_LT(fused->physical_scans, seq->physical_scans);
}

TEST(MultiRunCSearchTest, WeightedCsrStreamIdenticalAcrossFusedFlag) {
  // Weighted + CSR view: fused and solo passes share the row-pull kernel,
  // so the `fused` flag never changes results.
  GraphBuilder b;
  EdgeList el = ErdosRenyiDirectedGnm(120, 1500, 73);
  Rng rng(79);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream stream(g);

  CSearchOptions opt;
  opt.epsilon = 0.5;
  opt.record_trace = false;
  opt.fused = false;
  auto seq = RunCSearch(stream, opt);
  ASSERT_TRUE(seq.ok());
  opt.fused = true;
  auto fused = RunCSearch(stream, opt);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(seq->sweep.size(), fused->sweep.size());
  for (size_t i = 0; i < seq->sweep.size(); ++i) {
    ExpectSameDirected(seq->sweep[i], fused->sweep[i],
                       "weighted-csr run=" + std::to_string(i));
  }
}

TEST(MultiRunCSearchTest, CSearchGridRejectsInvalidShapes) {
  CSearchOptions opt;
  opt.delta = 1.0;  // spans no finite grid
  EXPECT_TRUE(CSearchGrid(1000, opt).empty());
  opt.delta = 0.5;
  EXPECT_TRUE(CSearchGrid(1000, opt).empty());
  opt.delta = 2.0;
  EXPECT_TRUE(CSearchGrid(0, opt).empty());
  EXPECT_FALSE(CSearchGrid(1000, opt).empty());
}

TEST(MultiRunCSearchTest, EmptyAndInvalidInputs) {
  PassEngine engine(PassEngineOptions{.num_threads = 2});
  EdgeList el = ErdosRenyiDirectedGnm(50, 200, 71);
  EdgeListStream stream(el);

  auto empty = engine.RunDirectedRuns(stream, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(engine.last_physical_passes(), 0u);

  Algorithm3Options bad;
  bad.c = -1.0;
  auto invalid = engine.RunDirectedRuns(stream, {bad});
  EXPECT_FALSE(invalid.ok());
  for (double eps : {-1.0, std::nan(""), static_cast<double>(INFINITY)}) {
    Algorithm3Options bad_eps;
    bad_eps.epsilon = eps;
    EXPECT_FALSE(engine.RunDirectedRuns(stream, {Algorithm3Options{}, bad_eps})
                     .ok())
        << eps;
    EXPECT_FALSE(
        RunAlgorithm1EpsilonSweep(stream, {}, {0.5, eps}, &engine).ok())
        << eps;
  }
}

// ---------------------------------------------------------------------------
// Peel-run state machines: drivers agree with the state-machine protocol.

TEST(PeelRunsTest, Algorithm1RunMatchesDriver) {
  // Drive an Algorithm1Run by hand with a private engine and compare with
  // RunAlgorithm1 — guards the ApplyPass protocol itself.
  EdgeList el = ErdosRenyiGnm(200, 2500, 73);
  EdgeListStream stream(el);
  Algorithm1Options options;
  options.epsilon = 0.5;

  auto want = RunAlgorithm1(stream, options);
  ASSERT_TRUE(want.ok());

  PassEngine engine(PassEngineOptions{.num_threads = 1});
  Algorithm1Run run(stream.num_nodes(), options);
  std::vector<double> degrees(stream.num_nodes());
  while (!run.done()) {
    ASSERT_EQ(run.mode(), Algorithm1Run::PassMode::kStream);
    UndirectedPassResult stats =
        engine.RunUndirected(stream, run.alive(), degrees);
    run.ApplyPass(stats, degrees);
  }
  UndirectedDensestResult got = run.TakeResult();
  EXPECT_EQ(got.density, want->density);
  EXPECT_EQ(got.passes, want->passes);
  EXPECT_EQ(got.nodes, want->nodes);
}

}  // namespace
}  // namespace densest
