#include "mapreduce/mr_densest.h"

#include <cmath>
#include <memory>
#include <optional>

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

}  // namespace

StatusOr<MrDensestResult> RunMrDensestUndirected(
    MapReduceEnv& env, EdgeStream& stream, const MrDensestOptions& options) {
  if (Status s = CheckEpsilon(options.epsilon); !s.ok()) return s;
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  MrDensestResult out;
  NodeSet alive(n, /*full=*/true);
  NodeSet best = alive;
  double best_density = -1.0;
  PassCursor cursor(stream);
  DriverInput input(cursor);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  const double factor = 2.0 * (1.0 + options.epsilon);
  std::vector<EdgeId> deg(n, 0);
  uint64_t pass = 0;
  while (!alive.empty() && pass < options.max_passes) {
    ++pass;
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
    degree_opts.reduce_output_hint = alive.size();
    StatusOr<std::vector<KV<NodeId, EdgeId>>> degrees =
        MrDegreeJobCombined(env, input.source(), degree_opts, &degree_stats);
    if (!degrees.ok()) return degrees.status();
    pass_stats.Accumulate(degree_stats);

    const double rho =
        static_cast<double>(*m) / static_cast<double>(alive.size());
    if (rho > best_density) {
      best_density = rho;
      best = alive;
    }

    // Driver decision: mark every node at or below the threshold.
    // (Nodes with no surviving edge have degree 0 and are always marked.)
    std::fill(deg.begin(), deg.end(), 0);
    for (const auto& kv : *degrees) deg[kv.key] = kv.value;
    const double threshold = factor * rho;
    NodeSet marked(n);
    for (NodeId u = 0; u < n; ++u) {
      if (alive.Contains(u) && static_cast<double>(deg[u]) <= threshold) {
        marked.Insert(u);
        alive.Remove(u);
      }
    }

    if (options.record_trace) {
      PassSnapshot snap;
      snap.pass = pass;
      snap.nodes = static_cast<NodeId>(alive.size() + marked.size());
      snap.edges = *m;
      snap.weight = static_cast<double>(*m);
      snap.density = rho;
      snap.threshold = threshold;
      snap.removed = marked.size();
      out.result.trace.push_back(snap);
    }

    // Jobs 3+4 (§5.2 "removal"): delete marked nodes and incident edges.
    if (!marked.empty() && !input.in_memory_empty()) {
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

  out.result.nodes = best.ToVector();
  out.result.density = best_density < 0 ? 0.0 : best_density;
  out.result.passes = pass;
  // Same peeling decisions as RunAlgorithm1, so the same Lemma 1 band.
  out.result.certified_band = 2.0 * (1.0 + options.epsilon);
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

  MrDirectedResult out;
  out.result.c = options.c;
  NodeSet s(n, /*full=*/true), t(n, /*full=*/true);
  NodeSet best_s = s, best_t = t;
  double best_density = -1.0;
  PassCursor cursor(stream);
  DriverInput input(cursor);
  const JobOptions base_opts =
      DriverJobOptions(options.spill_budget_bytes, options.spill_dir);

  std::vector<EdgeId> out_deg(n, 0), in_deg(n, 0);
  uint64_t pass = 0;
  while (!s.empty() && !t.empty() && pass < options.max_passes) {
    ++pass;
    JobStats pass_stats;

    JobStats density_stats;
    StatusOr<EdgeId> m =
        MrCountEdgesJob(env, input.source(), base_opts, &density_stats);
    if (!m.ok()) return m.status();
    pass_stats.Accumulate(density_stats);

    JobStats degree_stats;
    JobOptions degree_opts = base_opts;
    degree_opts.reduce_output_hint = s.size() + t.size();
    StatusOr<std::vector<KV<uint64_t, EdgeId>>> degrees =
        MrDirectedDegreeJobCombined(env, input.source(), degree_opts,
                                    &degree_stats);
    if (!degrees.ok()) return degrees.status();
    pass_stats.Accumulate(degree_stats);

    const double rho = static_cast<double>(*m) /
                       std::sqrt(static_cast<double>(s.size()) *
                                 static_cast<double>(t.size()));
    if (rho > best_density) {
      best_density = rho;
      best_s = s;
      best_t = t;
    }

    std::fill(out_deg.begin(), out_deg.end(), 0);
    std::fill(in_deg.begin(), in_deg.end(), 0);
    for (const auto& kv : *degrees) {
      NodeId node = static_cast<NodeId>(kv.key >> 1);
      if (kv.key & 1) {
        in_deg[node] = kv.value;
      } else {
        out_deg[node] = kv.value;
      }
    }

    const bool peel_s =
        static_cast<double>(s.size()) / static_cast<double>(t.size()) >=
        options.c;
    NodeSet marked(n);
    if (peel_s) {
      const double threshold = (1.0 + options.epsilon) *
                               static_cast<double>(*m) /
                               static_cast<double>(s.size());
      for (NodeId u = 0; u < n; ++u) {
        if (s.Contains(u) && static_cast<double>(out_deg[u]) <= threshold) {
          marked.Insert(u);
          s.Remove(u);
        }
      }
    } else {
      const double threshold = (1.0 + options.epsilon) *
                               static_cast<double>(*m) /
                               static_cast<double>(t.size());
      for (NodeId u = 0; u < n; ++u) {
        if (t.Contains(u) && static_cast<double>(in_deg[u]) <= threshold) {
          marked.Insert(u);
          t.Remove(u);
        }
      }
    }

    if (options.record_trace) {
      DirectedPassSnapshot snap;
      snap.pass = pass;
      snap.s_size = peel_s ? static_cast<NodeId>(s.size() + marked.size())
                           : s.size();
      snap.t_size = peel_s ? t.size()
                           : static_cast<NodeId>(t.size() + marked.size());
      snap.weight = static_cast<double>(*m);
      snap.density = rho;
      snap.removed_from_s = peel_s;
      snap.removed = marked.size();
      out.result.trace.push_back(snap);
    }

    if (!marked.empty() && !input.in_memory_empty()) {
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

  out.result.s_nodes = best_s.ToVector();
  out.result.t_nodes = best_t.ToVector();
  out.result.density = best_density < 0 ? 0.0 : best_density;
  out.result.passes = pass;
  // Same peeling decisions as RunAlgorithm3, so the same Theorem 6 band.
  out.result.certified_band = 2.0 * (1.0 + options.epsilon);
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
