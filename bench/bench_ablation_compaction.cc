// Ablation (§6.3): once the graph has shrunk, finish in main memory.
// Compares edges scanned from the (simulated) external stream and local
// wall-clock with compaction off vs on, at several thresholds, and exits 1
// unless compaction changed the IO only.

#include <bit>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "gen/datasets.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace {

/// Bit-exact doubles.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

int main() {
  using namespace densest;
  bench::Banner("Ablation: in-memory compaction (paper §6.3)",
                "Stop re-scanning the stream once the graph is small");
  auto csv = bench::OpenCsv(
      "ablation_compaction",
      {"threshold_edges", "eps", "passes", "io_passes", "edges_scanned",
       "rho", "seconds"});

  EdgeList el = MakeFlickrSim(1);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(el);
  EdgeList csr_edges = g.ToEdgeList();
  csr_edges.set_num_nodes(g.num_nodes());
  const EdgeId m = g.num_edges();
  std::printf("graph: |V|=%u |E|=%llu\n\n", g.num_nodes(),
              static_cast<unsigned long long>(m));

  std::printf("%16s %5s %8s %10s %16s %10s %9s\n", "compact_below",
              "eps", "passes", "io passes", "edges scanned", "rho", "sec");
  bool ok = true;
  for (double eps : {0.5, 1.0}) {
    UndirectedDensestResult uncompacted;
    for (EdgeId threshold : {EdgeId{0}, m / 10, m / 2, m}) {
      EdgeListStream inner(csr_edges);
      PassStats stats;
      CountingEdgeStream stream(inner, stats);
      Algorithm1Options opt;
      opt.epsilon = eps;
      opt.record_trace = false;
      opt.compact_below_edges = threshold;
      WallTimer t;
      auto r = RunAlgorithm1(stream, opt);
      if (!r.ok()) return 1;
      std::printf("%16llu %5.1f %8llu %10llu %16llu %10.3f %9.4f\n",
                  static_cast<unsigned long long>(threshold), eps,
                  static_cast<unsigned long long>(r->passes),
                  static_cast<unsigned long long>(r->io_passes),
                  static_cast<unsigned long long>(stats.edges_scanned),
                  r->density, t.ElapsedSeconds());
      if (csv.ok()) {
        csv->AddRow({std::to_string(threshold), CsvWriter::Num(eps),
                     std::to_string(r->passes),
                     std::to_string(r->io_passes),
                     std::to_string(stats.edges_scanned),
                     CsvWriter::Num(r->density),
                     CsvWriter::Num(t.ElapsedSeconds())});
      }
      if (threshold == 0) uncompacted = *r;
      // Compaction moves IO only: the same answer after the same passes,
      // a full scan per stream pass, and at threshold |E| the buffer
      // takes every pass after the collect pass.
      const bool same_answer = SameBits(r->density, uncompacted.density) &&
                               r->nodes.size() == uncompacted.nodes.size() &&
                               r->passes == uncompacted.passes;
      const bool full_scans = stats.edges_scanned == r->io_passes * m;
      const bool buffered = threshold != m || r->io_passes < r->passes;
      if (!same_answer || !full_scans || !buffered) {
        std::fprintf(stderr, "FAIL: eps=%.1f compact_below=%llu\n", eps,
                     static_cast<unsigned long long>(threshold));
        ok = false;
      }
    }
  }
  std::printf("\n%s\n", ok ? "PASS: identical rho, |S| and passes at every "
                             "threshold, one |E| scan per stream pass"
                           : "FAIL: compaction changed the answer or the "
                             "scan accounting");
  return ok ? 0 : 1;
}
