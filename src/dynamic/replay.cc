#include "dynamic/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/failpoint.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "dynamic/snapshot.h"
#include "flow/goldberg.h"
#include "graph/undirected_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/memory_stream.h"

namespace densest {

namespace {

/// Relative slack for the band comparisons: the maintained aggregates are
/// integer edge/node counts, but the reference densities come through
/// floating-point division.
constexpr double kRelTol = 1e-9;

bool LeqWithTol(double a, double b) { return a <= b * (1.0 + kRelTol) + 1e-12; }

/// Recomputes the reference density of the engine's live edge set and
/// checks the certified sandwich around it.
Status TakeCheckpoint(DynamicDensest& engine, const ReplayOptions& options,
                      uint64_t update_index, ReplayReport& report) {
  DENSEST_TRACE_SPAN("dynamic.checkpoint");
  ReplayCheckpoint cp;
  cp.update_index = update_index;
  const DynamicDensest::Answer answer = engine.Query();
  cp.maintained = answer.density;
  cp.upper_bound = answer.upper_bound;

  EdgeList edges = engine.CurrentEdges();
  if (edges.empty()) {
    cp.reference = 0;
    cp.in_band = answer.certified && answer.density == 0;
  } else if (options.checkpoint_mode == CheckpointMode::kExactFlow) {
    UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);
    StatusOr<ExactDensestResult> exact = ExactDensestSubgraph(g);
    if (!exact.ok()) return exact.status();
    cp.reference = exact->density;
    // The maintained density is a real induced density (<= rho*) and the
    // certificate promises rho* < upper_bound.
    cp.in_band = answer.certified &&
                 LeqWithTol(cp.maintained, cp.reference) &&
                 LeqWithTol(cp.reference, cp.upper_bound);
  } else {
    EdgeListStream stream(edges);
    Algorithm1Options opt;
    opt.epsilon = 0.0;
    opt.record_trace = false;
    StatusOr<UndirectedDensestResult> batch = RunAlgorithm1(stream, opt);
    if (!batch.ok()) return batch.status();
    cp.reference = batch->density;
    // rho_b <= rho* <= 2 rho_b widens both sides of the sandwich.
    cp.in_band = answer.certified &&
                 LeqWithTol(cp.maintained, 2.0 * cp.reference) &&
                 LeqWithTol(cp.reference, answer.upper_bound);
  }

  if (cp.maintained > 0 && cp.reference > 0) {
    report.max_observed_error = std::max(report.max_observed_error,
                                         cp.reference / cp.maintained);
  }
  if (!cp.in_band) report.band_ok = false;
  report.checkpoints.push_back(cp);
  return Status::OK();
}

void TimedQuery(DynamicDensest& engine, obs::Histogram& latency_us,
                ReplayReport& report) {
  WallTimer timer;
  const DynamicDensest::Answer answer = engine.Query();
  const double us = timer.ElapsedSeconds() * 1e6;
  latency_us.Observe(us);
  DENSEST_METRIC_HISTOGRAM("dynamic.query_latency_us").Observe(us);
  ++report.queries;
  // The answer itself is intentionally unused: the cadence exists to
  // measure serving latency under load, not to sample densities.
  (void)answer;
}

}  // namespace

StatusOr<ReplayReport> ReplayUpdates(UpdateStream& updates,
                                     DynamicDensest& engine,
                                     const ReplayOptions& options) {
  ReplayReport report;
  obs::Histogram query_latency_us;
  const size_t batch_cap = std::max<size_t>(1, options.batch_size);
  std::vector<EdgeUpdate> batch(batch_cap);
  updates.Reset();
  if (options.skip_updates > 0) {
    // Resume from a snapshot cursor: fast-forward the stream to it.
    const uint64_t skipped = updates.Skip(options.skip_updates);
    if (Status s = updates.status(); !s.ok()) return s;
    if (skipped != options.skip_updates) {
      return Status::IOError("update stream shorter than resume cursor");
    }
  }

  // Throttling cadence: re-check the pace every ~1k updates.
  constexpr uint64_t kPaceEvery = 1024;
  WallTimer wall;
  double apply_seconds = 0;
  uint64_t count = 0;

  auto until_boundary = [&](uint64_t every) -> uint64_t {
    if (every == 0) return UINT64_MAX;
    return every - (count % every);
  };
  // Serving-plane publication, always from this (writer) thread. The
  // position is absolute (resume cursor + applied count), so answers
  // published across a crash/resume name prefixes of the same stream.
  auto publish_answer = [&]() {
    if (options.publish == nullptr) return;
    DENSEST_TRACE_SPAN("dynamic.publish");
    const DynamicDensest::Answer answer = engine.Query();
    DENSEST_METRIC_GAUGE("dynamic.density").Set(answer.density);
    options.publish->Publish(answer, engine.DensestNodes(),
                             options.skip_updates + count);
  };
  // Publish the pre-replay state too: a restored engine starts serving
  // its snapshot answer before the first new update lands.
  publish_answer();

  while (true) {
    const size_t got = updates.NextBatch(batch.data(), batch_cap);
    if (got == 0) break;
    size_t i = 0;
    while (i < got) {
      // Apply in uninterrupted runs up to the next query / checkpoint /
      // pacing boundary, so apply throughput is timed without the cost of
      // serving mixed in.
      uint64_t run = std::min<uint64_t>(got - i, until_boundary(kPaceEvery));
      run = std::min(run, until_boundary(options.query_every));
      run = std::min(run, until_boundary(options.checkpoint_every));
      run = std::min(run, until_boundary(options.snapshot_every));
      run = std::min(run, until_boundary(options.stats_every));
      if (options.publish != nullptr) {
        run = std::min(run, until_boundary(options.publish_every));
      }
      WallTimer apply_timer;
      engine.ApplyBatch(
          std::span<const EdgeUpdate>(batch.data() + i, run));
      apply_seconds += apply_timer.ElapsedSeconds();
      i += run;
      count += run;
      // Publish the settled state for concurrent readers before anything
      // else observes it (queries and checkpoints below then agree with
      // what the plane serves).
      if (options.publish != nullptr &&
          (options.publish_every == 0 ||
           count % options.publish_every == 0)) {
        publish_answer();
      }
      // One poll per apply run (the engine settles every update before
      // returning, so the abort leaves it consistent and queryable).
      if (Status c = CheckCancel(options.cancel); !c.ok()) return c;
      if (options.query_every != 0 && count % options.query_every == 0) {
        TimedQuery(engine, query_latency_us, report);
      }
      if (options.checkpoint_every != 0 &&
          count % options.checkpoint_every == 0) {
        if (options.check_invariants) {
          if (Status s = engine.CheckInvariants(); !s.ok()) return s;
        }
        if (Status s = TakeCheckpoint(engine, options, count, report);
            !s.ok()) {
          return s;
        }
      }
      if (options.snapshot_every != 0 && count % options.snapshot_every == 0 &&
          !options.snapshot_path.empty()) {
        WallTimer snap_timer;
        const Status s = WriteSnapshot(options.snapshot_path, engine,
                                       options.skip_updates + count);
        report.snapshot_seconds += snap_timer.ElapsedSeconds();
        if (s.ok()) {
          ++report.snapshots_written;
        } else {
          // Graceful degradation: a lost checkpoint only makes a future
          // restart more expensive; the replay itself stays correct.
          ++report.snapshots_failed;
          report.last_snapshot_error = s.ToString();
        }
      }
      if (options.stats_every != 0 && options.stats_hook &&
          count % options.stats_every == 0) {
        options.stats_hook(count);
      }
      // Crash-injection hook for the recovery tests: fired, it aborts the
      // replay mid-stream exactly like a process death would (everything
      // since the last snapshot is lost).
      if (DENSEST_FAILPOINT("replay.crash") != FailpointAction::kNone) {
        return Status::IOError("replay crashed (injected)");
      }
      if (options.target_updates_per_sec > 0 && count % kPaceEvery == 0) {
        const double expected =
            static_cast<double>(count) / options.target_updates_per_sec;
        const double ahead = expected - wall.ElapsedSeconds();
        if (ahead > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
        }
      }
    }
  }
  // A disk-backed stream signals mid-replay failure by ending early;
  // reporting a density maintained over a truncated update sequence would
  // be the dynamic version of the truncated-pass bug.
  if (Status s = updates.status(); !s.ok()) return s;

  report.updates = count;
  report.wall_seconds = wall.ElapsedSeconds();
  report.updates_per_sec =
      apply_seconds > 0 ? static_cast<double>(count) / apply_seconds : 0;

  // Final publication: the plane's last epoch always carries the fully
  // settled end-of-replay answer, whatever cadence the loop used.
  publish_answer();

  TimedQuery(engine, query_latency_us, report);
  report.query_latency_us = query_latency_us.Sample();
  const DynamicDensest::Answer final_answer = engine.Query();
  report.final_density = final_answer.density;
  report.final_upper_bound = final_answer.upper_bound;
  report.final_certified = final_answer.certified;
  report.final_edges = engine.num_edges();
  report.engine_stats = engine.stats();
  return report;
}

}  // namespace densest
