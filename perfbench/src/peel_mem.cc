// Workload peel-mem: the paper's Table 1 stand-ins held in memory as CSR
// graphs (im-sim undirected, twitter-sim directed). Each round runs
// Algorithm 1 at eps = 0.5 on the shared default engine (several calls,
// since one takes ~20 ms), the fused Figure 6.1 eps-sweep, and the fused
// Figure 6.6 c-search. The CSR pass kernels and MultiRunEngine fusion do
// nearly all the work; no stream is read from disk.

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "core/multi_run.h"
#include "core/pass_engine.h"
#include "gen/datasets.h"
#include "graph/directed_graph.h"
#include "graph/subgraph.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"
#include "workloads.h"

namespace perfbench {

using namespace densest;

namespace {

constexpr double kEpsilon = 0.5;
constexpr int kAlg1CallsPerRound = 8;

std::vector<double> SweepEpsilons() {
  std::vector<double> eps;
  for (int i = 0; i <= 10; ++i) eps.push_back(0.25 * i);  // 0, 0.25, ..., 2.5
  return eps;
}

CSearchOptions CSearch(MultiRunEngine* engine) {
  CSearchOptions opt;
  opt.delta = 2.0;
  opt.epsilon = kEpsilon;
  opt.multi_engine = engine;
  return opt;
}

Algorithm1Options Alg1(double eps) {
  Algorithm1Options opt;
  opt.epsilon = eps;
  opt.record_trace = false;
  return opt;
}

/// Per-round timings of the measured phase.
struct Rounds {
  std::vector<double> alg1_s, sweep_s, csearch_s, job_s, round_s;
  UndirectedDensestResult alg1;
};

class PeelMem {
 public:
  explicit PeelMem(Run& run) : run_(run) {}

  bool Setup() {
    im_.reset();  // a repeated setup starts from nothing, like the first
    twitter_.reset();
    im_ = std::make_unique<UndirectedGraph>(
        UndirectedGraph::FromEdgeList(MakeImSim(run_.config.seed)));
    twitter_ = std::make_unique<DirectedGraph>(
        DirectedGraph::FromEdgeList(MakeTwitterSim(run_.config.seed)));
    return im_->num_edges() > 0 && twitter_->num_edges() > 0;
  }

  /// One measured round; false when a call failed (already reported).
  bool Round(Rounds& out) {
    WallTimer round;
    for (int i = 0; i < kAlg1CallsPerRound; ++i) {
      WallTimer t;
      SpanLog::Scope span(run_.spans, "core/peel", "RunAlgorithm1 (CSR)");
      auto r = RunAlgorithm1(*im_, Alg1(kEpsilon));
      run_.report.CountOps(1);
      if (!r.ok()) return Failed("RunAlgorithm1", r.status());
      out.alg1_s.push_back(t.ElapsedSeconds());
      out.alg1 = std::move(*r);
    }
    double job = 0;
    {
      WallTimer t;
      UndirectedGraphStream stream(*im_);
      SpanLog::Scope span(run_.spans, "core/multi_run",
                          "RunAlgorithm1EpsilonSweep");
      auto r = RunAlgorithm1EpsilonSweep(stream, Alg1(0), SweepEpsilons(),
                                         &multi_);
      run_.report.CountOps(1);
      if (!r.ok()) return Failed("RunAlgorithm1EpsilonSweep", r.status());
      out.sweep_s.push_back(t.ElapsedSeconds());
      job += out.sweep_s.back();
      sweep_physical_ = multi_.last_physical_passes();
      sweep_logical_ = multi_.last_logical_passes();
      sweep_edges_ = multi_.last_edges_scanned();
    }
    {
      WallTimer t;
      SpanLog::Scope span(run_.spans, "core/multi_run", "RunCSearch (fused)");
      auto r = RunCSearch(*twitter_, CSearch(&multi_));
      run_.report.CountOps(1);
      if (!r.ok()) return Failed("RunCSearch", r.status());
      out.csearch_s.push_back(t.ElapsedSeconds());
      job += out.csearch_s.back();
      csearch_scans_ = r->physical_scans;
    }
    out.job_s.push_back(job);
    out.round_s.push_back(round.ElapsedSeconds());
    run_.RoundDone();
    return true;
  }

  /// Runs rounds for `seconds` (at least three).
  bool Measure(double seconds, Rounds& out) {
    WallTimer wall;
    while (out.round_s.size() < 3 || wall.ElapsedSeconds() < seconds) {
      if (!Round(out)) return false;
    }
    return true;
  }

  void Checks() {
    // Alg1 on the default (nproc) engine == a 1-thread engine.
    PassEngine one(PassEngineOptions{1});
    Algorithm1Options solo = Alg1(kEpsilon);
    solo.engine = &one;
    auto a = RunAlgorithm1(*im_, Alg1(kEpsilon));
    auto b = RunAlgorithm1(*im_, solo);
    run_.report.CountOps(2);
    if (!a.ok() || !b.ok()) {
      return (void)Failed("RunAlgorithm1", a.ok() ? b.status() : a.status());
    }
    run_.report.Expect("alg1: default engine == 1-thread engine",
                       SameResult(*a, *b),
                       "rho=" + std::to_string(a->density) +
                           " |S|=" + std::to_string(a->nodes.size()) +
                           " passes=" + std::to_string(a->passes));

    // Every fused sweep entry == a solo RunAlgorithm1 at that eps.
    UndirectedGraphStream stream(*im_);
    const std::vector<double> eps = SweepEpsilons();
    auto sweep = RunAlgorithm1EpsilonSweep(stream, Alg1(0), eps, &multi_);
    run_.report.CountOps(1);
    if (!sweep.ok()) return (void)Failed("RunAlgorithm1EpsilonSweep", sweep.status());
    size_t mismatches = 0;
    for (size_t i = 0; i < eps.size(); ++i) {
      auto s = RunAlgorithm1(*im_, Alg1(eps[i]));
      run_.report.CountOps(1);
      if (!s.ok()) return (void)Failed("RunAlgorithm1", s.status());
      if (!SameResult((*sweep)[i], *s)) ++mismatches;
    }
    run_.report.Expect("sweep: every entry == solo RunAlgorithm1",
                       mismatches == 0,
                       std::to_string(mismatches) + " of " +
                           std::to_string(eps.size()) + " differ");

    // Fused c-search best == run-by-run best.
    auto fused = RunCSearch(*twitter_, CSearch(&multi_));
    CSearchOptions unfused_opt = CSearch(nullptr);
    unfused_opt.fused = false;
    auto unfused = RunCSearch(*twitter_, unfused_opt);
    run_.report.CountOps(2);
    if (!fused.ok() || !unfused.ok()) {
      return (void)Failed("RunCSearch",
                          fused.ok() ? unfused.status() : fused.status());
    }
    run_.report.Expect("c-search: fused best == unfused best",
                       SameResult(fused->best, unfused->best),
                       "rho=" + std::to_string(fused->best.density) +
                           " c=" + std::to_string(fused->best.c));
  }

  void ReportRounds(const Rounds& r) {
    run_.report.Timing("alg1_s", r.alg1_s, "s",
                       "RunAlgorithm1 eps=0.5 on CSR im-sim, default engine");
    run_.report.Value("alg1_rho", r.alg1.density, "rho");
    run_.report.Timing("job_s", r.job_s, "s",
                       "fused eps-sweep + fused c-search, one round");
    run_.report.Timing("sweep_s", r.sweep_s, "s");
    run_.report.Timing("csearch_s", r.csearch_s, "s");
  }

  /// Layer metrics of the fusion engine, plus its 1-thread form.
  void ProbeMultiRun(const Rounds& r) {
    run_.report.Value("multi_run.sweep_physical_scans",
                      static_cast<double>(sweep_physical_), "count");
    run_.report.Value("multi_run.sweep_logical_passes",
                      static_cast<double>(sweep_logical_), "count");
    run_.report.Value("multi_run.csearch_physical_scans",
                      static_cast<double>(csearch_scans_), "count");
    run_.report.Value("multi_run.edges_scanned",
                      static_cast<double>(sweep_edges_), "count",
                      "edges delivered across the sweep's scans");
    run_.report.Value(
        "multi_run.s_per_scan",
        Median(r.sweep_s) / static_cast<double>(std::max<uint64_t>(1, sweep_physical_)),
        "s", "sweep seconds per physical scan");

    MultiRunOptions one_thread;
    one_thread.num_threads = 1;
    MultiRunEngine serial(one_thread);
    WallTimer t;
    {
      UndirectedGraphStream stream(*im_);
      SpanLog::Scope span(run_.spans, "core/multi_run",
                          "RunAlgorithm1EpsilonSweep 1t");
      auto s = RunAlgorithm1EpsilonSweep(stream, Alg1(0), SweepEpsilons(), &serial);
      run_.report.CountOps(1);
      if (!s.ok()) return (void)Failed("RunAlgorithm1EpsilonSweep 1t", s.status());
    }
    {
      SpanLog::Scope span(run_.spans, "core/multi_run", "RunCSearch (fused) 1t");
      auto c = RunCSearch(*twitter_, CSearch(&serial));
      run_.report.CountOps(1);
      if (!c.ok()) return (void)Failed("RunCSearch 1t", c.status());
    }
    const double serial_s = t.ElapsedSeconds();
    run_.report.Value("multi_run.thread_speedup",
                      serial_s / (Median(r.sweep_s) + Median(r.csearch_s)), "x",
                      "1-thread sweep+c-search / nproc medians");
  }

  /// Directed pass layer: RunDirected on twitter-sim at 1 and nproc threads.
  void ProbeDirected() {
    DirectedGraphStream stream(*twitter_);
    const NodeId n = twitter_->num_nodes();
    const NodeSet all(n, /*full=*/true);
    std::vector<double> out(n), in(n);
    PassEngine one(PassEngineOptions{1});
    PassEngine many(PassEngineOptions{0});
    auto time_passes = [&](PassEngine& engine, const char* name) {
      std::vector<double> samples = RepeatTimed(0.2, 5, [&] {
        SpanLog::Scope span(run_.spans, "core/pass_engine", name);
        (void)engine.RunDirected(stream, all, all, out, in);
        return true;
      });
      run_.report.CountOps(samples.size());
      return samples;
    };
    run_.report.Timing("pass.directed_1t_s",
                       time_passes(one, "PassEngine::RunDirected 1t"), "s");
    run_.report.Timing("pass.directed_nt_s",
                       time_passes(many, "PassEngine::RunDirected nt"), "s");
  }

  const UndirectedGraph& im() const { return *im_; }

 private:
  bool Failed(const std::string& what, const Status& s) {
    run_.report.Fail(what, s);
    return false;
  }

  Run& run_;
  std::unique_ptr<UndirectedGraph> im_;
  std::unique_ptr<DirectedGraph> twitter_;
  MultiRunEngine multi_;  // default options: nproc threads, reused
  uint64_t sweep_physical_ = 0;
  uint64_t sweep_logical_ = 0;
  uint64_t sweep_edges_ = 0;
  uint64_t csearch_scans_ = 0;
};

}  // namespace

int RunPeelMem(Run& run) {
  PeelMem w(run);
  if (!TimedSetup(run, [&] { return w.Setup(); })) {
    run.report.Expect("setup", false, "empty stand-in graph");
    return 1;
  }

  if (!run.config.trace) {
    Rounds rounds;
    if (!w.Measure(run.config.seconds, rounds)) return 1;
    w.ReportRounds(rounds);
    w.Checks();
    return 0;
  }

  // Traced run: an untraced half for the overhead baseline, then the same
  // rounds and the layer probes under the benchmark's spans.
  run.spans.set_enabled(false);
  Rounds untraced;
  if (!w.Measure(run.config.seconds / 2, untraced)) return 1;
  run.spans.set_enabled(true);
  Rounds traced;
  uint64_t root_id = 0;
  {
    SpanLog::Scope root(run.spans, "bench", "peel-mem traced phase");
    root_id = root.id();
    if (!w.Measure(run.config.seconds / 2, traced)) return 1;
    UndirectedGraphStream stream(w.im());
    ProbeStream(run, stream, [] { return uint64_t{0}; });
    ProbePasses(run, stream, kEpsilon, traced.alg1, Median(traced.alg1_s));
    w.ProbeDirected();
    w.ProbeMultiRun(traced);
  }
  w.ReportRounds(traced);
  ReportTrace(run, root_id, "peel-mem traced phase", Median(traced.round_s),
              Median(untraced.round_s));
  w.Checks();
  return 0;
}

}  // namespace perfbench
