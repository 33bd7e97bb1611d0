// Equivalence tests for the fused sketched sweep (sketch/sketch_runs.h):
// a fused Table 4 grid — sketch oracles of several dimensions and seeds
// plus the exact-counting baseline — must produce results bit-identical to
// sequential RunAlgorithm1WithOracle / RunSketchedAlgorithm1 calls, across
// 1..8 fan-out threads (each run is one task per round, fed its shards in
// stream order, however many runs remain active), and weighted streams,
// while physically scanning the stream only max-over-runs(passes) times.

#include "sketch/sketch_runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "sketch/degree_oracle.h"
#include "sketch/sketched_algorithm1.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

void ExpectSameSketched(const SketchedResult& seq, const SketchedResult& fused,
                        const std::string& label) {
  EXPECT_EQ(seq.result.density, fused.result.density) << label;  // bits
  EXPECT_EQ(seq.result.passes, fused.result.passes) << label;
  EXPECT_EQ(seq.result.io_passes, fused.result.io_passes) << label;
  EXPECT_EQ(seq.result.nodes, fused.result.nodes) << label;
  EXPECT_EQ(seq.oracle_state_words, fused.oracle_state_words) << label;
  EXPECT_EQ(seq.memory_ratio, fused.memory_ratio) << label;
  ASSERT_EQ(seq.result.trace.size(), fused.result.trace.size()) << label;
  for (size_t i = 0; i < seq.result.trace.size(); ++i) {
    EXPECT_EQ(seq.result.trace[i].weight, fused.result.trace[i].weight)
        << label;
    EXPECT_EQ(seq.result.trace[i].density, fused.result.trace[i].density)
        << label;
    EXPECT_EQ(seq.result.trace[i].threshold, fused.result.trace[i].threshold)
        << label;
    EXPECT_EQ(seq.result.trace[i].removed, fused.result.trace[i].removed)
        << label;
  }
}

/// A Table 4-shaped grid: sketches of several dimensions/seeds at several
/// epsilons, plus the exact-counting baseline per epsilon.
std::vector<SketchedSweepRun> SketchGrid() {
  std::vector<SketchedSweepRun> grid;
  for (double eps : {0.0, 0.5, 1.5}) {
    SketchedSweepRun exact;
    exact.options.epsilon = eps;
    exact.exact = true;
    grid.push_back(exact);
    int i = 0;
    for (int buckets : {64, 256, 1024}) {
      SketchedSweepRun run;
      run.options.epsilon = eps;
      run.sketch.tables = 5;
      run.sketch.buckets = buckets;
      run.sketch_seed = 0x5eed + i++;
      grid.push_back(run);
    }
  }
  return grid;
}

/// Sequential twin of one grid entry, via the original per-run drivers.
StatusOr<SketchedResult> RunSequential(EdgeStream& stream,
                                       const SketchedSweepRun& run) {
  if (run.exact) {
    ExactDegreeOracle oracle(stream.num_nodes());
    return RunAlgorithm1WithOracle(stream, oracle, run.options);
  }
  return RunSketchedAlgorithm1(stream, run.sketch, run.sketch_seed,
                               run.options);
}

void CheckSketchedEquivalence(EdgeStream& stream, const std::string& label) {
  const std::vector<SketchedSweepRun> grid = SketchGrid();

  std::vector<SketchedResult> seq;
  for (const SketchedSweepRun& run : grid) {
    auto r = RunSequential(stream, run);
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    seq.push_back(std::move(*r));
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    auto fused = RunSketchedSweep(stream, grid, &engine);
    ASSERT_TRUE(fused.ok()) << label;
    ASSERT_EQ(fused->size(), grid.size()) << label;
    uint64_t max_passes = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      ExpectSameSketched(
          seq[i], (*fused)[i],
          label + " threads=" + std::to_string(threads) +
              " run=" + std::to_string(i));
      max_passes = std::max(max_passes, (*fused)[i].result.passes);
    }
    // The fused sweep scans once per pass round: exactly the longest run.
    EXPECT_EQ(engine.last_physical_passes(), max_passes) << label;
    EXPECT_GT(engine.last_logical_passes(), 0u) << label;
  }
}

TEST(SketchFusionTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(300, 4000, 101);
  EdgeListStream stream(el);
  CheckSketchedEquivalence(stream, "edge-list");
}

TEST(SketchFusionTest, WeightedEdgeListStream) {
  EdgeList el = ErdosRenyiGnm(250, 3500, 103);
  Rng rng(107);
  for (Edge& e : el.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  EdgeListStream stream(el);
  CheckSketchedEquivalence(stream, "weighted-edge-list");
}

TEST(SketchFusionTest, UndirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(300, 4000, 109);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream stream(g);
  CheckSketchedEquivalence(stream, "csr");
}

TEST(SketchFusionTest, WeightedCsrStreamNeedsNoFallback) {
  // Sketched runs never pull CSR rows: over a weighted CSR stream they
  // still take record rounds in stream order, bit-identical to the
  // sequential scalar drain.
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(200, 2500, 113);
  Rng rng(127);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream stream(g);
  CheckSketchedEquivalence(stream, "weighted-csr");
}

class SketchFusionFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(SketchFusionFileTest, BinaryFileStream) {
  path_ = ::testing::TempDir() + "/sketch_fusion.bin";
  EdgeList el = ErdosRenyiGnm(200, 3000, 131);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  CheckSketchedEquivalence(**stream, "file");
}

TEST(SketchFusionTest, ScanAccountingMatchesCountingStream) {
  EdgeList el = ErdosRenyiGnm(400, 6000, 137);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream stream(inner, stats);

  PassEngine engine;
  auto fused = RunSketchedSweep(stream, SketchGrid(), &engine);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(engine.last_physical_passes(), stats.passes);
  EXPECT_EQ(engine.last_edges_scanned(), stats.edges_scanned);
  // The whole grid shares scans: strictly fewer than run-by-run.
  EXPECT_LT(engine.last_physical_passes(), engine.last_logical_passes());
}

// ---------------------------------------------------------------------------
// Degenerate shapes the fusion exposes.

TEST(SketchFusionDegenerateTest, EmptyGridYieldsEmptyResults) {
  EdgeList el = ErdosRenyiGnm(50, 200, 139);
  EdgeListStream stream(el);
  PassEngine engine;
  auto r = RunSketchedSweep(stream, {}, &engine);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(engine.last_physical_passes(), 0u);
}

TEST(SketchFusionDegenerateTest, EmptyGraphIsInvalidNotNaN) {
  EdgeList el(0);  // n == 0: memory_ratio would divide by zero
  EdgeListStream stream(el);
  std::vector<SketchedSweepRun> grid(1);
  auto fused = RunSketchedSweep(stream, grid);
  ASSERT_FALSE(fused.ok());
  EXPECT_EQ(fused.status().code(), Status::Code::kInvalidArgument);

  Algorithm1Options opt;
  auto seq = RunSketchedAlgorithm1(stream, CountSketchOptions{}, 1, opt);
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), Status::Code::kInvalidArgument);
}

TEST(SketchFusionDegenerateTest, EdgelessGraphFinishesCleanly) {
  // n > 0 but zero edges: density 0, no NaN anywhere, fused == sequential.
  EdgeList el(10);
  EdgeListStream stream(el);
  std::vector<SketchedSweepRun> grid(1);
  grid[0].sketch.buckets = 64;

  auto seq = RunSequential(stream, grid[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->result.density, 0.0);

  auto fused = RunSketchedSweep(stream, grid);
  ASSERT_TRUE(fused.ok());
  ExpectSameSketched(*seq, (*fused)[0], "edgeless");
  EXPECT_TRUE(std::isfinite((*fused)[0].memory_ratio));
}

TEST(SketchFusionDegenerateTest, BadSketchDimensionsRejected) {
  EdgeList el = ErdosRenyiGnm(50, 200, 149);
  EdgeListStream stream(el);
  std::vector<SketchedSweepRun> grid(1);
  grid[0].sketch.tables = 0;
  auto r = RunSketchedSweep(stream, grid);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(SketchFusionDegenerateTest, NegativeEpsilonRejected) {
  EdgeList el = ErdosRenyiGnm(50, 200, 151);
  EdgeListStream stream(el);
  std::vector<SketchedSweepRun> grid(1);
  grid[0].options.epsilon = -0.5;
  auto r = RunSketchedSweep(stream, grid);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  for (double eps : {std::nan(""), static_cast<double>(INFINITY)}) {
    grid[0].options.epsilon = eps;
    auto sweep = RunSketchedSweep(stream, grid);
    ASSERT_FALSE(sweep.ok()) << eps;
    EXPECT_EQ(sweep.status().code(), Status::Code::kInvalidArgument) << eps;
    ExactDegreeOracle oracle(stream.num_nodes());
    auto solo = RunAlgorithm1WithOracle(stream, oracle, grid[0].options);
    ASSERT_FALSE(solo.ok()) << eps;
    EXPECT_EQ(solo.status().code(), Status::Code::kInvalidArgument) << eps;
  }
}

TEST(SketchFusionDegenerateTest, TruncatedFileSurfacesIOError) {
  const std::string path = ::testing::TempDir() + "/sketch_fusion_trunc.bin";
  EdgeList el = ErdosRenyiGnm(500, 8000, 157);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 2000 * 8);

  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  std::vector<SketchedSweepRun> grid(2);
  grid[0].exact = true;
  grid[1].sketch.buckets = 128;
  auto r = RunSketchedSweep(**stream, grid);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace densest
