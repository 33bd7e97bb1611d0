// The three workloads and what they share: run configuration, the report
// and span log a run fills, setup timing, and the per-layer probes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/density.h"
#include "report.h"
#include "spans.h"
#include "stream/edge_stream.h"

namespace perfbench {

/// \brief Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the trace timeline is written
};

/// Peak resident set (VmHWM) of this process since the last
/// ResetPeakRss(), in MiB.
double PeakRssMb();

/// Returns freed heap memory to the OS and restarts the peak-RSS mark at
/// the current resident set, so the next PeakRssMb() measures the work
/// that follows rather than the set-up's transient peak.
void ResetPeakRss();

/// \brief One run in progress: its configuration, report and span log.
struct Run {
  explicit Run(const RunConfig& c) : config(c), spans(c.trace) {}

  /// Call after every measured round: the first call records the peak
  /// resident set of the first round, inputs loaded (TimedSetup resets
  /// the mark), as peak_rss_mb. Later rounds are left out on purpose:
  /// threads created per round may land in fresh malloc arenas, which
  /// would make the peak depend on the round count.
  void RoundDone() {
    if (!rss_recorded_) {
      report.Value("peak_rss_mb", PeakRssMb(), "MiB",
                   "first measured round, inputs loaded");
    }
    rss_recorded_ = true;
  }

  RunConfig config;
  Report report;
  SpanLog spans;

 private:
  bool rss_recorded_ = false;
};

/// Setups per run; setup_s is their median, so one slow setup cannot move
/// it.
inline constexpr int kSetups = 3;

/// Runs `setup` kSetups times (each builds the workload's inputs from the
/// seed afresh), reports setup_s, resets the peak-RSS mark, and returns
/// false if any attempt failed.
bool TimedSetup(Run& run, const std::function<bool()>& setup);

/// Bit-exact double comparison (the repo's oracle convention).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Same subgraph, density bits and pass count.
bool SameResult(const densest::UndirectedDensestResult& a,
                const densest::UndirectedDensestResult& b);
bool SameResult(const densest::DirectedDensestResult& a,
                const densest::DirectedDensestResult& b);

/// Times repeated calls of `fn` (each one op) for at least `min_seconds`
/// and at least `min_calls` calls, but at most kMaxTimedCalls; returns the
/// per-call seconds. Stops at the first failing call (fn returns false).
std::vector<double> RepeatTimed(double min_seconds, size_t min_calls,
                                const std::function<bool()>& fn);
inline constexpr size_t kMaxTimedCalls = 1000;

/// \brief Per-layer probes on an undirected edge stream, shared by every
/// workload's traced run. Each reports its metrics into run.report and
/// opens its spans under whatever span is open.
///
/// Stream layer: bare Reset + NextView drains (stream.scan_s,
/// stream.medges_per_s, stream.bytes_read via `bytes_read`, io retries).
void ProbeStream(Run& run, densest::EdgeStream& stream,
                 const std::function<uint64_t()>& bytes_read);

/// Pass layer and peel driver: PassEngine::RunUndirected at 1 thread and
/// at nproc threads on the full alive set and on the set left after one
/// Algorithm 1 step (eps), then a pass-by-pass replica of Algorithm 1 on
/// the nproc engine to measure pass.share_of_alg1 against `alg1_s`
/// (median seconds of one RunAlgorithm1 call) and check it peels exactly
/// like `alg1` did.
void ProbePasses(Run& run, densest::EdgeStream& stream, double epsilon,
                 const densest::UndirectedDensestResult& alg1, double alg1_s);

/// Records the trace-run summary metrics: traced wall, unattributed
/// remainder, tracing overhead (median traced round minus median untraced
/// round), and prints the self-time table.
void ReportTrace(Run& run, uint64_t root_id, const char* title,
                 double traced_round_s, double untraced_round_s);

int RunPeelMem(Run& run);
int RunPeelDisk(Run& run);
int RunDynamicServe(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
