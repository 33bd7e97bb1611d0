// Shared workload plumbing and the per-layer probes of the stream and
// pass layers.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/pass_engine.h"
#include "graph/subgraph.h"
#include "workloads.h"

namespace perfbench {

using densest::EdgeStream;
using densest::NodeId;
using densest::NodeSet;
using densest::PassEngine;
using densest::PassEngineOptions;
using densest::UndirectedDensestResult;
using densest::UndirectedPassResult;
using densest::WallTimer;

bool TimedSetup(Run& run, const std::function<bool()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    WallTimer timer;
    if (!setup()) return false;
    seconds.push_back(timer.ElapsedSeconds());
  }
  run.report.Timing("setup_s", seconds, "s",
                    "median of " + std::to_string(kSetups) + " setups");
  ResetPeakRss();
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

bool SameResult(const UndirectedDensestResult& a,
                const UndirectedDensestResult& b) {
  return SameBits(a.density, b.density) && a.nodes == b.nodes &&
         a.passes == b.passes;
}

bool SameResult(const densest::DirectedDensestResult& a,
                const densest::DirectedDensestResult& b) {
  return SameBits(a.density, b.density) && SameBits(a.c, b.c) &&
         a.s_nodes == b.s_nodes && a.t_nodes == b.t_nodes &&
         a.passes == b.passes;
}

std::vector<double> RepeatTimed(double min_seconds, size_t min_calls,
                                const std::function<bool()>& fn) {
  std::vector<double> samples;
  WallTimer total;
  while (samples.size() < min_calls ||
         (total.ElapsedSeconds() < min_seconds &&
          samples.size() < kMaxTimedCalls)) {
    WallTimer timer;
    const bool ok = fn();
    samples.push_back(timer.ElapsedSeconds());
    if (!ok) break;
  }
  return samples;
}

void ProbeStream(Run& run, EdgeStream& stream,
                 const std::function<uint64_t()>& bytes_read) {
  std::vector<densest::Edge> scratch(PassEngine::kShardEdges);
  uint64_t edges = 0;
  const uint64_t bytes_before = bytes_read();
  const std::vector<double> scans = RepeatTimed(0.3, 5, [&] {
    SpanLog::Scope span(run.spans, "stream", "EdgeStream::Reset+NextView drain");
    stream.Reset();
    uint64_t n = 0;
    for (;;) {
      auto view = stream.NextView(scratch.data(), scratch.size());
      if (view.empty()) break;
      n += view.size();
    }
    edges = n;
    return stream.status().ok();
  });
  run.report.CountOps(scans.size());
  run.report.Expect("stream drain status OK", stream.status().ok(),
                    stream.status().ToString());
  run.report.Expect("stream drain yields every edge",
                    stream.SizeHint() == 0 || edges == stream.SizeHint(),
                    std::to_string(edges) + " of " +
                        std::to_string(stream.SizeHint()));
  run.report.Timing("stream.scan_s", scans, "s", "one full drain");
  run.report.Value("stream.medges_per_s",
                   static_cast<double>(edges) / Median(scans) / 1e6, "Medges/s");
  run.report.Value("stream.bytes_read",
                   static_cast<double>(bytes_read() - bytes_before) /
                       static_cast<double>(scans.size()),
                   "bytes", "per drain");
  run.report.Value("stream.io_retries",
                   static_cast<double>(stream.io_retry_stats().retries),
                   "count");
}

namespace {

/// Nodes of `alive` left after one Algorithm 1 step at `epsilon`.
NodeSet PeelOnce(const NodeSet& alive, const std::vector<double>& degrees,
                 double weight, double epsilon) {
  NodeSet next = alive;
  const double rho = weight / static_cast<double>(alive.size());
  const double threshold = 2.0 * (1.0 + epsilon) * rho;
  for (NodeId u = 0; u < alive.universe_size(); ++u) {
    if (alive.Contains(u) && degrees[u] <= threshold) next.Remove(u);
  }
  return next;
}

}  // namespace

void ProbePasses(Run& run, EdgeStream& stream, double epsilon,
                 const UndirectedDensestResult& alg1, double alg1_s) {
  const NodeId n = stream.num_nodes();
  PassEngine one(PassEngineOptions{1});
  PassEngine many(PassEngineOptions{0});
  std::vector<double> degrees(n);
  const NodeSet full(n, /*full=*/true);

  UndirectedPassResult first{};
  auto time_passes = [&](PassEngine& engine, const NodeSet& alive,
                         const char* name) {
    std::vector<double> samples = RepeatTimed(0.2, 5, [&] {
      SpanLog::Scope span(run.spans, "core/pass_engine", name);
      first = engine.RunUndirected(stream, alive, degrees);
      return stream.status().ok();
    });
    run.report.CountOps(samples.size());
    return samples;
  };

  const std::vector<double> full_1t =
      time_passes(one, full, "PassEngine::RunUndirected 1t full");
  const UndirectedPassResult one_result = first;
  const std::vector<double> full_nt =
      time_passes(many, full, "PassEngine::RunUndirected nt full");
  run.report.Expect("pass result identical at 1 and nproc threads",
                    one_result.edges == first.edges &&
                        SameBits(one_result.weight, first.weight));
  const NodeSet peeled = PeelOnce(full, degrees, first.weight, epsilon);
  const std::vector<double> step_1t =
      time_passes(one, peeled, "PassEngine::RunUndirected 1t after one step");
  const std::vector<double> step_nt =
      time_passes(many, peeled, "PassEngine::RunUndirected nt after one step");

  run.report.Timing("pass.undirected_1t_s", full_1t, "s", "full alive set");
  run.report.Timing("pass.undirected_nt_s", full_nt, "s", "full alive set");
  run.report.Timing("pass.undirected_1t_step_s", step_1t, "s",
                    "alive set after one peel step");
  run.report.Timing("pass.undirected_nt_step_s", step_nt, "s",
                    "alive set after one peel step");
  run.report.Value("pass.thread_speedup", Median(full_1t) / Median(full_nt), "x",
                   "1t / nproc-thread pass time, full set; < 1 means threads "
                   "lose");

  // Algorithm 1, pass by pass, on the nproc engine: the pass layer's share
  // of a RunAlgorithm1 call, and a check that the replica peels the same.
  double pass_seconds = 0;
  uint64_t passes = 0;
  double best = -1;
  NodeSet alive = full;
  {
    SpanLog::Scope replica(run.spans, "core/peel", "Algorithm 1 pass replica");
    while (!alive.empty()) {
      WallTimer timer;
      UndirectedPassResult r{};
      {
        SpanLog::Scope span(run.spans, "core/pass_engine",
                            "PassEngine::RunUndirected replica pass");
        r = many.RunUndirected(stream, alive, degrees);
      }
      pass_seconds += timer.ElapsedSeconds();
      ++passes;
      best = std::max(best, r.weight / static_cast<double>(alive.size()));
      alive = PeelOnce(alive, degrees, r.weight, epsilon);
    }
  }
  run.report.CountOps(passes);
  run.report.Expect("pass replica peels like RunAlgorithm1",
                    passes == alg1.passes && SameBits(best, alg1.density),
                    std::to_string(passes) + " vs " +
                        std::to_string(alg1.passes) + " passes");
  run.report.Value("pass.share_of_alg1", pass_seconds / alg1_s, "ratio",
                   "replica pass seconds / median RunAlgorithm1 seconds");
  run.report.Value("peel.passes", static_cast<double>(alg1.passes), "count");
  run.report.Value("peel.io_passes", static_cast<double>(alg1.io_passes),
                   "count");
  run.report.Value("peel.s_per_pass",
                   alg1_s / static_cast<double>(std::max<uint64_t>(1, alg1.passes)),
                   "s");
}

void ReportTrace(Run& run, uint64_t root_id, const char* title,
                 double traced_round_s, double untraced_round_s) {
  const WallAccount account = AccountWall(run.spans.spans(), root_id);
  run.report.SetAccount(title, account);
  run.report.Value("trace.wall_s", account.wall_s, "s",
                   "wall time of the traced phase");
  run.report.Value("trace.unattributed_s", account.unattributed_s, "s",
                   "traced wall not inside any layer span");
  run.report.Value("trace.overhead_s", traced_round_s - untraced_round_s, "s",
                   "median traced round minus median untraced round");
  double attributed = 0;
  for (const LayerTime& lt : account.layers) attributed += lt.self_s;
  run.report.Expect(
      "layer self times + unattributed == traced wall",
      std::abs(attributed + account.unattributed_s - account.wall_s) < 1e-6,
      std::to_string(attributed + account.unattributed_s) + " vs " +
          std::to_string(account.wall_s));
}

}  // namespace perfbench
