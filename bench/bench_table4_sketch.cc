// Reproduces Table 4 — ratio of the density found with Count-Sketch
// degree counting vs exact counting, for three counter-memory budgets
// (t*b/n ~ 0.16/0.20/0.25, the paper's flickr row) and eps in {0..2.5} —
// and self-checks the fused sweep that produces it:
//
//   1. every (eps, budget) configuration plus the per-eps exact baseline
//      runs TWICE, run-by-run (each config re-scans the stream for itself)
//      and fused through RunSketchedSweep (the whole grid shares one
//      physical scan per pass round);
//   2. the two must be bit-identical per configuration, the fused scan
//      count must equal max-over-runs(passes), and the fused sweep must
//      scan the stream at least 3x less than run-by-run.
// Exits nonzero on any violation, so CI fails if the sketched fusion ever
// regresses to per-run scanning or diverges. Metrics land in
// bench_results/BENCH_table4_sketch.json.
//
// Usage: bench_table4_sketch [smoke]
//   (no args)  flickr-sim, the paper-config stand-in
//   smoke      a small Erdős–Rényi graph for CI

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/undirected_graph.h"
#include "sketch/degree_oracle.h"
#include "sketch/sketch_runs.h"
#include "sketch/sketched_algorithm1.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace {

using namespace densest;

constexpr double kEpsilons[] = {0, 0.5, 1.0, 1.5, 2.0, 2.5};
// The paper's Table 4 memory row: counter words as a fraction of the n
// words exact counting needs. Buckets are derived as ratio * n / t so the
// row reproduces on any graph size (the paper's absolute 30000-50000
// bucket labels target its n=976K flickr crawl).
constexpr double kMemoryRatios[] = {0.16, 0.20, 0.25};
constexpr int kTables = 5;

/// The Table 4 grid: per eps, the exact-counting baseline followed by one
/// sketch per memory budget. Seeds vary per budget, as the original
/// harness did.
std::vector<SketchedSweepRun> BuildGrid(NodeId n) {
  std::vector<SketchedSweepRun> grid;
  for (double eps : kEpsilons) {
    SketchedSweepRun exact;
    exact.options.epsilon = eps;
    exact.options.record_trace = false;
    exact.exact = true;
    grid.push_back(exact);
    for (int i = 0; i < 3; ++i) {
      SketchedSweepRun run;
      run.options.epsilon = eps;
      run.options.record_trace = false;
      run.sketch.tables = kTables;
      run.sketch.buckets = std::max(
          1, static_cast<int>(kMemoryRatios[i] * static_cast<double>(n) /
                              kTables));
      run.sketch_seed = 0x5eed + i;
      grid.push_back(run);
    }
  }
  return grid;
}

bool SameRun(const SketchedResult& a, const SketchedResult& b) {
  return a.result.density == b.result.density &&
         a.result.passes == b.result.passes &&
         a.result.nodes == b.result.nodes &&
         a.oracle_state_words == b.oracle_state_words;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;

  bench::Banner("Table 4",
                "rho with / without Count-Sketch counting (t=5), fused "
                "sweep vs run-by-run (self-checking)");
  auto csv = bench::OpenCsv("table4_sketch",
                            {"eps", "buckets", "rho_sketch", "rho_exact",
                             "ratio", "memory_ratio"});
  bench::BenchJson json("table4_sketch");

  UndirectedGraph g =
      smoke ? UndirectedGraph::FromEdgeList(ErdosRenyiGnm(5000, 100000, 7))
            : UndirectedGraph::FromEdgeList(MakeFlickrSim(1));
  const NodeId n = g.num_nodes();
  std::printf("graph: |V|=%u |E|=%llu%s\n\n", n,
              static_cast<unsigned long long>(g.num_edges()),
              smoke ? "  [smoke]" : "");

  const std::vector<SketchedSweepRun> grid = BuildGrid(n);

  // Run-by-run leg: every configuration scans the stream for itself.
  UndirectedGraphStream seq_inner(g);
  PassStats seq_stats;
  CountingEdgeStream seq_stream(seq_inner, seq_stats);
  std::vector<SketchedResult> seq;
  seq.reserve(grid.size());
  WallTimer seq_timer;
  for (const SketchedSweepRun& run : grid) {
    StatusOr<SketchedResult> r =
        run.exact
            ? [&]() -> StatusOr<SketchedResult> {
                ExactDegreeOracle oracle(n);
                return RunAlgorithm1WithOracle(seq_stream, oracle,
                                               run.options);
              }()
            : RunSketchedAlgorithm1(seq_stream, run.sketch, run.sketch_seed,
                                    run.options);
    if (!r.ok()) {
      std::fprintf(stderr, "sequential run failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    seq.push_back(std::move(*r));
  }
  const double seq_wall_s = seq_timer.ElapsedSeconds();

  // Fused leg: the whole grid drinks from shared scans.
  UndirectedGraphStream fused_inner(g);
  PassStats fused_stats;
  CountingEdgeStream fused_stream(fused_inner, fused_stats);
  PassEngine engine;
  WallTimer fused_timer;
  auto fused = RunSketchedSweep(fused_stream, grid, &engine);
  const double fused_wall_s = fused_timer.ElapsedSeconds();
  if (!fused.ok()) {
    std::fprintf(stderr, "fused sweep failed: %s\n",
                 fused.status().ToString().c_str());
    return 1;
  }

  // Self-check 1: bit-identical results per configuration.
  bool identical = fused->size() == seq.size();
  uint64_t max_passes = 0;
  for (size_t i = 0; identical && i < seq.size(); ++i) {
    identical = SameRun(seq[i], (*fused)[i]);
    max_passes = std::max(max_passes, (*fused)[i].result.passes);
  }
  // Self-check 2: scan accounting — fused physical scans must equal the
  // longest run, and the wrapper stream must agree with the engine.
  const bool scans_ok = engine.last_physical_passes() == max_passes &&
                        engine.last_physical_passes() == fused_stats.passes &&
                        engine.last_logical_passes() == seq_stats.passes;
  // Self-check 3: the fused sweep actually shares scans.
  const double reduction =
      fused_stats.passes == 0
          ? 0.0
          : static_cast<double>(seq_stats.passes) /
                static_cast<double>(fused_stats.passes);
  constexpr double kFloor = 3.0;

  // The Table 4 grid, fused results (identical to sequential by check 1).
  std::printf("%6s |", "eps");
  for (double ratio : kMemoryRatios) std::printf("   mem=%.2f*n", ratio);
  std::printf("\n");
  const size_t stride = 4;  // exact + 3 budgets per eps
  double memory_ratio[3] = {0, 0, 0};
  for (size_t e = 0; e < std::size(kEpsilons); ++e) {
    const SketchedResult& exact = (*fused)[e * stride];
    std::printf("%6.1f |", kEpsilons[e]);
    for (size_t i = 0; i < 3; ++i) {
      const SketchedResult& sk = (*fused)[e * stride + 1 + i];
      const double ratio = exact.result.density > 0
                               ? sk.result.density / exact.result.density
                               : 0.0;
      memory_ratio[i] = sk.memory_ratio;
      std::printf(" %12.3f", ratio);
      if (csv.ok()) {
        csv->AddRow({CsvWriter::Num(kEpsilons[e]),
                     std::to_string(grid[e * stride + 1 + i].sketch.buckets),
                     CsvWriter::Num(sk.result.density),
                     CsvWriter::Num(exact.result.density),
                     CsvWriter::Num(ratio), CsvWriter::Num(sk.memory_ratio)});
      }
    }
    std::printf("\n");
  }
  std::printf("%6s |", "Memory");
  for (double m : memory_ratio) std::printf(" %12.2f", m);
  std::printf("\n\n");

  std::printf("fused sweep: %llu -> %llu physical scans (%.2fx, floor "
              "%.0fx)   %.2fs -> %.2fs   results %s\n",
              static_cast<unsigned long long>(seq_stats.passes),
              static_cast<unsigned long long>(fused_stats.passes), reduction,
              kFloor, seq_wall_s, fused_wall_s,
              identical && scans_ok ? "identical" : "DIVERGED");

  json.Add("sequential_scans", static_cast<double>(seq_stats.passes));
  json.Add("fused_scans", static_cast<double>(fused_stats.passes));
  json.Add("physical_scans", static_cast<double>(engine.last_physical_passes()));
  json.Add("scan_reduction", reduction);
  json.Add("sequential_wall_s", seq_wall_s);
  json.Add("fused_wall_s", fused_wall_s);
  json.Add("identical", identical && scans_ok ? 1.0 : 0.0);
  if (fused_wall_s > 0) {
    json.Add("fused_edges_per_s",
             static_cast<double>(engine.last_edges_scanned()) / fused_wall_s);
  }
  if (Status js = json.Write(); !js.ok()) {
    std::fprintf(stderr, "warning: no JSON output: %s\n",
                 js.ToString().c_str());
  }

  const bool ok = identical && scans_ok && reduction >= kFloor;
  std::printf("\nPaper's observation to reproduce: near-1 ratios for small "
              "eps even at 16-25%% of exact-counter memory; quality decays "
              "as eps grows.\n");
  std::printf("%s\n", ok ? "PASS: fused sketched sweep is identical and "
                           "within the scan-reduction floor"
                         : "FAIL: fused sketched sweep diverged or scan "
                           "reduction below floor");
  return ok ? 0 : 1;
}
