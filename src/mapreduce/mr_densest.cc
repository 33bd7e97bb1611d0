#include "mapreduce/mr_densest.h"

#include <bit>
#include <cmath>
#include <memory>
#include <optional>

#include "core/peel_runs.h"
#include "graph/subgraph.h"
#include "mapreduce/stream_source.h"
#include "stream/memory_stream.h"
#include "stream/pass_cursor.h"

namespace densest {

namespace {

/// The per-pass input of a driver: the input stream until the first
/// removal job materializes its survivors, an in-memory vector after.
/// Jobs pull whichever is current through the RecordSource interface.
class DriverInput {
 public:
  explicit DriverInput(PassCursor& cursor) : stream_source_(cursor) {}

  MrEdgeSource& source() {
    if (on_stream_) return stream_source_;
    vector_source_.emplace(edges_);
    return *vector_source_;
  }

  /// Installs the removal job's survivors; later passes run in memory.
  void ReplaceWithSurvivors(MrEdges&& survivors) {
    edges_ = std::move(survivors);
    on_stream_ = false;
  }

  bool on_stream() const { return on_stream_; }
  bool in_memory_empty() const { return !on_stream_ && edges_.empty(); }

 private:
  StreamRecordSource stream_source_;
  MrEdges edges_;
  // Rebuilt per source() call: VectorRecordSource carries a cursor, and a
  // fresh one guarantees every job starts at record zero.
  std::optional<VectorRecordSource<NodeId, NodeId>> vector_source_;
  bool on_stream_ = true;
};

JobOptions DriverJobOptions(uint64_t spill_budget_bytes,
                            const std::string& spill_dir) {
  JobOptions opts;
  opts.spill_budget_bytes = spill_budget_bytes;
  opts.spill_dir = spill_dir;
  return opts;
}

/// The nodes a run's peel step removed, for the removal job to mark: the
/// set before ApplyPass minus the (shrunken) set after it.
NodeSet Peeled(const NodeSet& before, const NodeSet& after) {
  NodeSet peeled(before.universe_size());
  const std::vector<uint64_t>& b = before.words();
  const std::vector<uint64_t>& a = after.words();
  for (size_t w = 0; w < b.size(); ++w) {
    for (uint64_t bits = b[w] & ~a[w]; bits != 0; bits &= bits - 1) {
      peeled.Insert(static_cast<NodeId>(64 * w + std::countr_zero(bits)));
    }
  }
  return peeled;
}

}  // namespace

StatusOr<MrDensestResult> RunMrDensestUndirected(
    MapReduceEnv& env, EdgeStream& stream, const MrDensestOptions& options) {
  if (Status s = CheckEpsilon(options.epsilon); !s.ok()) return s;
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  Algorithm1Options run_options;
  run_options.epsilon = options.epsilon;
  run_options.record_trace = options.record_trace;
  Algorithm1Run run(n, run_options);
  MrDensestResult out;
  PassCursor cursor(stream);
  DriverInput input(cursor);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  std::vector<double> degrees(n, 0.0);
  while (!run.done()) {
    JobStats pass_stats;

    // Job 1 (§5.2 "density"): count the surviving edges.
    JobStats density_stats;
    StatusOr<EdgeId> m =
        MrCountEdgesJob(env, input.source(), base_opts, &density_stats);
    if (!m.ok()) return m.status();
    pass_stats.Accumulate(density_stats);

    // Job 2 (§5.2 "degrees"): per-node induced degrees, combined map-side
    // so the shuffle carries O(|V_alive|) records per chunk, not O(|E|).
    JobStats degree_stats;
    JobOptions degree_opts = base_opts;
    degree_opts.reduce_output_hint = run.alive().size();
    StatusOr<std::vector<KV<NodeId, EdgeId>>> counts =
        MrDegreeJobCombined(env, input.source(), degree_opts, &degree_stats);
    if (!counts.ok()) return counts.status();
    pass_stats.Accumulate(degree_stats);

    // Algorithm 1's peel step on the jobs' outputs. (Nodes with no
    // surviving edge have no degree record and read 0.)
    std::fill(degrees.begin(), degrees.end(), 0.0);
    for (const auto& kv : *counts) {
      degrees[kv.key] = static_cast<double>(kv.value);
    }
    const NodeSet before = run.alive();
    run.ApplyPass({*m, static_cast<double>(*m)}, degrees);
    const NodeSet marked = Peeled(before, run.alive());

    // Jobs 3+4 (§5.2 "removal"): delete marked nodes and incident edges.
    // The pass that ends the run skips them: no later pass reads survivors.
    if (!run.done() && !marked.empty() && !input.in_memory_empty()) {
      JobStats removal1, removal2;
      JobOptions removal_opts = base_opts;
      removal_opts.reduce_output_hint = *m;
      StatusOr<MrEdges> survivors = MrRemoveNodesJob(
          env, input.source(), marked, removal_opts, &removal1, &removal2);
      if (!survivors.ok()) return survivors.status();
      input.ReplaceWithSurvivors(std::move(*survivors));
      pass_stats.Accumulate(removal1);
      pass_stats.Accumulate(removal2);
    }
    out.pass_seconds.push_back(pass_stats.simulated_seconds);
    out.pass_stats.push_back(pass_stats);
  }

  out.result = run.TakeResult();
  out.totals = env.totals();
  out.input_scans = cursor.passes();
  return out;
}

StatusOr<MrDensestResult> RunMrDensestUndirected(
    MapReduceEnv& env, const EdgeList& graph,
    const MrDensestOptions& options) {
  EdgeListStream stream(graph);
  return RunMrDensestUndirected(env, stream, options);
}

StatusOr<MrDirectedResult> RunMrDensestDirected(
    MapReduceEnv& env, EdgeStream& stream, const MrDirectedOptions& options) {
  if (Status s = CheckEpsilon(options.epsilon); !s.ok()) return s;
  if (!(std::isfinite(options.c) && options.c > 0)) {
    return Status::InvalidArgument("c must be finite and > 0");
  }
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  Algorithm3Options run_options;
  run_options.c = options.c;
  run_options.epsilon = options.epsilon;
  run_options.record_trace = options.record_trace;
  Algorithm3Run run(n, run_options);
  MrDirectedResult out;
  PassCursor cursor(stream);
  DriverInput input(cursor);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  std::vector<double> out_to_t(n, 0.0), in_from_s(n, 0.0);
  while (!run.done()) {
    JobStats pass_stats;

    JobStats density_stats;
    StatusOr<EdgeId> m =
        MrCountEdgesJob(env, input.source(), base_opts, &density_stats);
    if (!m.ok()) return m.status();
    pass_stats.Accumulate(density_stats);

    JobStats degree_stats;
    JobOptions degree_opts = base_opts;
    degree_opts.reduce_output_hint = run.s().size() + run.t().size();
    StatusOr<std::vector<KV<uint64_t, EdgeId>>> counts =
        MrDirectedDegreeJobCombined(env, input.source(), degree_opts,
                                    &degree_stats);
    if (!counts.ok()) return counts.status();
    pass_stats.Accumulate(degree_stats);

    // Algorithm 3's peel step (size-ratio rule) on the jobs' outputs; the
    // side it peels is the side sides() names before the pass.
    std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
    std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
    for (const auto& kv : *counts) {
      std::vector<double>& side = (kv.key & 1) ? in_from_s : out_to_t;
      side[kv.key >> 1] = static_cast<double>(kv.value);
    }
    const bool peel_s = run.sides().out;
    const NodeSet before = peel_s ? run.s() : run.t();
    run.ApplyPass({*m, static_cast<double>(*m)}, out_to_t, in_from_s);
    const NodeSet marked = Peeled(before, peel_s ? run.s() : run.t());

    if (!run.done() && !marked.empty() && !input.in_memory_empty()) {
      JobStats removal_stats;
      JobOptions removal_opts = base_opts;
      removal_opts.reduce_output_hint = *m;
      StatusOr<MrEdges> survivors =
          MrRemoveArcsJob(env, input.source(), marked, /*by_source=*/peel_s,
                          removal_opts, &removal_stats);
      if (!survivors.ok()) return survivors.status();
      input.ReplaceWithSurvivors(std::move(*survivors));
      pass_stats.Accumulate(removal_stats);
    }
    out.pass_seconds.push_back(pass_stats.simulated_seconds);
    out.pass_stats.push_back(pass_stats);
  }

  out.result = run.TakeResult();
  out.totals = env.totals();
  out.input_scans = cursor.passes();
  return out;
}

StatusOr<MrDirectedResult> RunMrDensestDirected(
    MapReduceEnv& env, const EdgeList& arcs_in,
    const MrDirectedOptions& options) {
  EdgeListStream stream(arcs_in);
  return RunMrDensestDirected(env, stream, options);
}

}  // namespace densest
