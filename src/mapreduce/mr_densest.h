// Copyright 2026 The densest Authors.
// Full MapReduce realizations of Algorithm 1 (undirected) and Algorithm 3
// (directed): the drivers orchestrate the §5.2 jobs pass by pass and drive
// the streaming algorithms' own peeling runs (Algorithm1Run, Algorithm3Run
// in core/peel_runs.h) with the jobs' outputs, so every peel decision is
// made in one place; they also collect the simulated per-pass cluster time
// (Figure 6.7).
//
// The drivers read EdgeStreams: the first pass's jobs each scan the input
// through a StreamRecordSource (binary file, generator, or in-memory
// stream — the same inputs the streaming engines run on, counted by the
// same PassCursor accounting), and the removal job's in-memory survivor
// set feeds every later pass (§6.3: the graph shrinks by orders of
// magnitude in the first passes). Shuffle memory inside each job is
// bounded by the spill budget, not by |E|.

#ifndef DENSEST_MAPREDUCE_MR_DENSEST_H_
#define DENSEST_MAPREDUCE_MR_DENSEST_H_

#include <vector>

#include "common/status.h"
#include "core/density.h"
#include "graph/edge_list.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "stream/edge_stream.h"

namespace densest {

/// \brief Knobs for the undirected MapReduce driver.
struct MrDensestOptions {
  double epsilon = 1.0;
  bool record_trace = true;
  /// Shuffle spill budget per job in bytes (see
  /// JobOptions::spill_budget_bytes). 0 keeps every shuffle in memory.
  uint64_t spill_budget_bytes = 0;
  /// Directory for spill files ("" = the system temp directory).
  std::string spill_dir;
};

/// \brief Result plus cluster accounting.
struct [[nodiscard]] MrDensestResult {
  UndirectedDensestResult result;
  /// Simulated cluster seconds per pass (sums the pass's jobs) —
  /// the series of Figure 6.7.
  std::vector<double> pass_seconds;
  /// Aggregated job counters per pass (parallel to pass_seconds); the
  /// combiner/spill gates read these.
  std::vector<JobStats> pass_stats;
  /// Aggregate counters over all jobs.
  JobStats totals;
  /// Physical scans of the input stream (each first-pass job re-scans it;
  /// once the removal job has materialized the survivors, later passes run
  /// in memory and scan nothing).
  uint64_t input_scans = 0;
};

/// Runs the MapReduce version of Algorithm 1 over an edge stream: the
/// density and degree jobs feed an Algorithm1Run, and the removal jobs
/// delete what its peel step removed (on every pass but the one that ends
/// the run, whose survivors nothing reads). Produces exactly RunAlgorithm1's
/// result with the same epsilon (subgraph, density, passes, trace and
/// band); only the execution substrate differs. The §5.2 records carry no
/// weight, so every edge must have weight 1.0: the first job fails with
/// InvalidArgument on any other weight. Also InvalidArgument for an
/// invalid epsilon or an empty node set.
StatusOr<MrDensestResult> RunMrDensestUndirected(MapReduceEnv& env,
                                                 EdgeStream& stream,
                                                 const MrDensestOptions& options);

/// Convenience overload over an in-memory edge list.
StatusOr<MrDensestResult> RunMrDensestUndirected(MapReduceEnv& env,
                                                 const EdgeList& graph,
                                                 const MrDensestOptions& options);

/// \brief Knobs for the directed MapReduce driver (one ratio c).
struct MrDirectedOptions {
  /// Assumed ratio |S*|/|T*| (finite, > 0).
  double c = 1.0;
  double epsilon = 1.0;
  bool record_trace = true;
  /// See MrDensestOptions.
  uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
};

/// \brief Directed result plus cluster accounting.
struct [[nodiscard]] MrDirectedResult {
  DirectedDensestResult result;
  std::vector<double> pass_seconds;
  std::vector<JobStats> pass_stats;
  JobStats totals;
  uint64_t input_scans = 0;
};

/// Runs the MapReduce version of Algorithm 3 over an arc stream by
/// driving an Algorithm3Run (size-ratio rule) with the jobs' outputs.
/// Matches RunAlgorithm3 with the same c and epsilon. Unit weights only,
/// as for RunMrDensestUndirected. Fails with InvalidArgument for an arc
/// whose weight is not 1.0, an invalid epsilon, a c that is not finite
/// and > 0, or an empty node set.
StatusOr<MrDirectedResult> RunMrDensestDirected(MapReduceEnv& env,
                                                EdgeStream& stream,
                                                const MrDirectedOptions& options);

/// Convenience overload over an in-memory arc list.
StatusOr<MrDirectedResult> RunMrDensestDirected(MapReduceEnv& env,
                                                const EdgeList& arcs,
                                                const MrDirectedOptions& options);

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_MR_DENSEST_H_
