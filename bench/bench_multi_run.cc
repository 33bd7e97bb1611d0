// Self-checking harness for fused PassEngine sweeps (core/pass_engine.h).
//
// Runs the Figure 6.4 directed c-sweep and a Figure 6.1-style epsilon
// sweep twice — once run-by-run (each configuration scans the stream for
// itself) and once fused (all configurations share every physical scan) —
// and verifies that
//   1. the sweeps are IDENTICAL (density, passes, survivor sets per
//      configuration, i.e. the CSVs the figures are drawn from), and
//   2. the fused c-sweep performs at least 3x fewer physical stream scans
//      (the ISSUE 2 acceptance bar; the epsilon sweep must clear 2x).
// Exits nonzero on any violation, so CI fails if fusion ever regresses to
// per-run scanning. Metrics land in bench_results/BENCH_multi_run.json.
//
// Usage: bench_multi_run [smoke]
//   (no args)  paper-config graphs: livejournal-sim + flickr-sim
//   smoke      small Erdős–Rényi graphs for CI

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "core/multi_run.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace {

using namespace densest;

bool SameRun(const DirectedDensestResult& a, const DirectedDensestResult& b) {
  return a.c == b.c && a.density == b.density && a.passes == b.passes &&
         a.s_nodes == b.s_nodes && a.t_nodes == b.t_nodes;
}

bool SameRun(const UndirectedDensestResult& a,
             const UndirectedDensestResult& b) {
  return a.density == b.density && a.passes == b.passes &&
         a.io_passes == b.io_passes && a.nodes == b.nodes;
}

struct SectionOutcome {
  uint64_t seq_scans = 0;
  uint64_t fused_scans = 0;
  uint64_t fused_edges = 0;
  double seq_wall_s = 0;
  double fused_wall_s = 0;
  bool identical = false;

  double Reduction() const {
    return fused_scans == 0 ? 0.0
                            : static_cast<double>(seq_scans) /
                                  static_cast<double>(fused_scans);
  }
};

void Report(const char* section, const SectionOutcome& o, double floor,
            bool* ok, StatusOr<CsvWriter>& csv, bench::BenchJson& json) {
  std::printf("%-22s %6llu -> %4llu scans  (%5.2fx, floor %.0fx)   "
              "%6.2fs -> %5.2fs   results %s\n",
              section, static_cast<unsigned long long>(o.seq_scans),
              static_cast<unsigned long long>(o.fused_scans), o.Reduction(),
              floor, o.seq_wall_s, o.fused_wall_s,
              o.identical ? "identical" : "DIVERGED");
  if (!o.identical || o.Reduction() < floor) *ok = false;
  if (csv.ok()) {
    csv->AddRow({section, std::to_string(o.seq_scans),
                 std::to_string(o.fused_scans), CsvWriter::Num(o.Reduction()),
                 CsvWriter::Num(o.seq_wall_s), CsvWriter::Num(o.fused_wall_s)});
  }
  const std::string p = std::string(section) + ".";
  json.Add(p + "sequential_scans", static_cast<double>(o.seq_scans));
  json.Add(p + "fused_scans", static_cast<double>(o.fused_scans));
  json.Add(p + "scan_reduction", o.Reduction());
  json.Add(p + "sequential_wall_s", o.seq_wall_s);
  json.Add(p + "fused_wall_s", o.fused_wall_s);
  if (o.fused_wall_s > 0) {
    json.Add(p + "fused_edges_per_s",
             static_cast<double>(o.fused_edges) / o.fused_wall_s);
  }
}

/// Figure 6.4 config: the whole delta=2 c-grid at one eps, sequential vs
/// fused over the same directed graph.
SectionOutcome CSweep(const DirectedGraph& g, double eps) {
  CSearchOptions opt;
  opt.delta = 2.0;
  opt.epsilon = eps;
  opt.record_trace = false;

  SectionOutcome out;

  DirectedGraphStream seq_inner(g);
  PassStats seq_stats;
  CountingEdgeStream seq_stream(seq_inner, seq_stats);
  opt.fused = false;
  WallTimer seq_timer;
  auto seq = RunCSearch(seq_stream, opt);
  out.seq_wall_s = seq_timer.ElapsedSeconds();

  DirectedGraphStream fused_inner(g);
  PassStats fused_stats;
  CountingEdgeStream fused_stream(fused_inner, fused_stats);
  opt.fused = true;
  WallTimer fused_timer;
  auto fused = RunCSearch(fused_stream, opt);
  out.fused_wall_s = fused_timer.ElapsedSeconds();

  if (!seq.ok() || !fused.ok()) return out;  // identical stays false
  out.seq_scans = seq_stats.passes;
  out.fused_scans = fused_stats.passes;
  out.fused_edges = fused_stats.edges_scanned;

  out.identical = seq->sweep.size() == fused->sweep.size() &&
                  fused->physical_scans == fused_stats.passes &&
                  seq->physical_scans == seq_stats.passes;
  for (size_t i = 0; out.identical && i < seq->sweep.size(); ++i) {
    out.identical = SameRun(seq->sweep[i], fused->sweep[i]);
  }
  return out;
}

/// Figure 6.1 config: the eps grid for Algorithm 1, sequential vs fused.
SectionOutcome EpsilonSweep(const UndirectedGraph& g) {
  std::vector<double> epsilons;
  for (double eps = 0.0; eps <= 2.51; eps += 0.25) epsilons.push_back(eps);
  Algorithm1Options base;
  base.record_trace = false;

  SectionOutcome out;

  UndirectedGraphStream seq_inner(g);
  PassStats seq_stats;
  CountingEdgeStream seq_stream(seq_inner, seq_stats);
  std::vector<UndirectedDensestResult> seq;
  WallTimer seq_timer;
  for (double eps : epsilons) {
    Algorithm1Options opt = base;
    opt.epsilon = eps;
    auto r = RunAlgorithm1(seq_stream, opt);
    if (!r.ok()) return out;
    seq.push_back(std::move(*r));
  }
  out.seq_wall_s = seq_timer.ElapsedSeconds();

  UndirectedGraphStream fused_inner(g);
  PassStats fused_stats;
  CountingEdgeStream fused_stream(fused_inner, fused_stats);
  PassEngine engine;
  WallTimer fused_timer;
  auto fused = RunAlgorithm1EpsilonSweep(fused_stream, base, epsilons, &engine);
  out.fused_wall_s = fused_timer.ElapsedSeconds();
  if (!fused.ok()) return out;

  out.seq_scans = seq_stats.passes;
  out.fused_scans = fused_stats.passes;
  out.fused_edges = fused_stats.edges_scanned;
  out.identical = fused->size() == seq.size() &&
                  engine.last_physical_passes() == fused_stats.passes;
  for (size_t i = 0; out.identical && i < seq.size(); ++i) {
    out.identical = SameRun(seq[i], (*fused)[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;

  bench::Banner("Multi-run fusion",
                "Physical stream scans: run-by-run sweeps vs one fused scan "
                "per pass (self-checking)");
  auto csv = bench::OpenCsv(
      "multi_run", {"section", "sequential_scans", "fused_scans",
                    "scan_reduction", "sequential_wall_s", "fused_wall_s"});
  bench::BenchJson json("multi_run");

  DirectedGraph dg =
      smoke ? DirectedGraph::FromEdgeList(ErdosRenyiDirectedGnm(3000, 60000, 7))
            : DirectedGraph::FromEdgeList(MakeLiveJournalSim(3));
  UndirectedGraph ug =
      smoke ? UndirectedGraph::FromEdgeList(ErdosRenyiGnm(3000, 60000, 9))
            : UndirectedGraph::FromEdgeList(MakeFlickrSim(1));
  std::printf("graphs: directed |V|=%u |E|=%llu, undirected |V|=%u "
              "|E|=%llu%s\n\n",
              dg.num_nodes(), static_cast<unsigned long long>(dg.num_edges()),
              ug.num_nodes(), static_cast<unsigned long long>(ug.num_edges()),
              smoke ? "  [smoke]" : "");

  bool ok = true;
  Report("fig64_c_sweep_eps0", CSweep(dg, 0.0), 3.0, &ok, csv, json);
  Report("fig64_c_sweep_eps1", CSweep(dg, 1.0), 3.0, &ok, csv, json);
  Report("fig61_eps_sweep", EpsilonSweep(ug), 2.0, &ok, csv, json);

  Status js = json.Write();
  if (!js.ok()) {
    std::fprintf(stderr, "warning: no JSON output: %s\n",
                 js.ToString().c_str());
  }
  std::printf("\n%s\n", ok ? "PASS: fused sweeps are identical and within "
                             "the scan-reduction floors"
                           : "FAIL: fused sweep diverged or scan reduction "
                             "below floor");
  return ok ? 0 : 1;
}
