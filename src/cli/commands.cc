#include "cli/commands.h"

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/enumerate.h"
#include "sketch/sketched_algorithm1.h"
#include "flow/goldberg.h"
#include "gen/chung_lu.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "io/edge_list_io.h"
#include "dynamic/chaos.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "dynamic/snapshot.h"
#include "mapreduce/mr_densest.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One-line non-zero metrics summary for the --stats-every hooks.
std::string StatsSummaryLine() {
  return obs::MetricsExporter::SummaryLine(
      obs::MetricsRegistry::Get().Collect());
}

StatusOr<std::string> RequireGraphArg(const Args& args) {
  if (args.positional().empty()) {
    return Status::InvalidArgument("expected a graph file argument");
  }
  return args.positional()[0];
}

/// Loads edges from a text ("u v [w]") or binary (.bin) edge file.
StatusOr<EdgeList> LoadEdges(const std::string& path) {
  if (!EndsWith(path, ".bin")) return ReadEdgeListText(path);
  auto stream = BinaryFileEdgeStream::Open(path);
  if (!stream.ok()) return stream.status();
  return ReadAllEdges(**stream);
}

/// Loads a graph file as an undirected CSR graph; duplicate edges merge
/// into one edge carrying their summed weight.
StatusOr<UndirectedGraph> LoadUndirectedGraph(const std::string& path) {
  StatusOr<EdgeList> edges = LoadEdges(path);
  if (!edges.ok()) return edges.status();
  GraphBuilder builder;
  builder.ReserveNodes(edges->num_nodes());
  for (const Edge& e : edges->edges()) builder.Add(e.u, e.v, e.w);
  return builder.BuildUndirected();
}

/// An EdgeListStream that owns the edges it streams.
class OwningEdgeListStream : public EdgeListStream {
 public:
  explicit OwningEdgeListStream(std::unique_ptr<EdgeList> edges)
      : EdgeListStream(*edges), edges_(std::move(edges)) {}

 private:
  std::unique_ptr<EdgeList> edges_;
};

/// Opens a graph file as a stream: a .bin file is read from disk on every
/// pass, its reads retrying transient faults under `retry`; a text file is
/// loaded and streamed from memory.
StatusOr<std::unique_ptr<EdgeStream>> OpenGraphStream(
    const std::string& path, const RetryPolicy& retry) {
  if (!EndsWith(path, ".bin")) {
    StatusOr<EdgeList> edges = ReadEdgeListText(path);
    if (!edges.ok()) return edges.status();
    return std::unique_ptr<EdgeStream>(std::make_unique<OwningEdgeListStream>(
        std::make_unique<EdgeList>(std::move(*edges))));
  }
  StatusOr<std::unique_ptr<BinaryFileEdgeStream>> file =
      BinaryFileEdgeStream::Open(path);
  if (!file.ok()) return file.status();
  (*file)->set_retry_policy(retry);
  return std::unique_ptr<EdgeStream>(std::move(*file));
}

/// The update stream `dynamic` and `serve` replay: every edge of `edges`
/// as an insertion, and with a positive `window` a sliding-window deleter
/// that evicts `evict_batch` edges at a time.
std::unique_ptr<UpdateStream> ReplayStream(EdgeStream& edges, uint64_t window,
                                           uint64_t evict_batch) {
  if (window == 0) return std::make_unique<InsertReplayUpdateStream>(edges);
  return std::make_unique<SlidingWindowUpdateStream>(edges, window,
                                                     evict_batch);
}

/// --evict-batch of `dynamic` and `serve`: read only with a positive
/// `window`, the only replay that evicts.
uint64_t EvictBatchFlag(const Args& args, uint64_t window) {
  return window > 0 ? args.GetInt<uint64_t>("evict-batch", 1, 1) : 1;
}

/// How `dynamic` and `serve` name the replay in their headline.
std::string ReplayLabel(uint64_t window) {
  return window > 0 ? ", sliding window " + std::to_string(window)
                    : std::string(", insert-only");
}

/// The replay's io-retry line, printed only when a read was retried or
/// gave up.
void PrintIoRetries(const IoRetryStats& retry, std::ostream& out) {
  if (retry.retries == 0 && retry.exhausted == 0) return;
  out << "io retries: " << retry.retries << " (" << retry.healed
      << " healed, " << retry.exhausted << " exhausted)\n";
}

Status WriteNodes(const std::string& path, const std::vector<NodeId>& nodes) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (NodeId u : nodes) out << u << '\n';
  return Status::OK();
}

void PrintUndirectedTrace(const UndirectedDensestResult& r,
                          std::ostream& out) {
  out << "pass  nodes  edges  rho  threshold  removed\n";
  for (const PassSnapshot& s : r.trace) {
    out << s.pass << "  " << s.nodes << "  " << s.edges << "  " << s.density
        << "  " << s.threshold << "  " << s.removed << "\n";
  }
}

// Every command reads all its flags, calls args.Check() once, and only then
// opens its input, so a flag error fails with nothing run.

Status CmdStats(const Args& args, std::ostream& out) {
  const bool directed = args.GetBool("directed", false);
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();

  if (directed) {
    DirectedGraph g = DirectedGraph::FromEdgeList(*edges);
    out << FormatStats(ComputeStats(g)) << "\n";
  } else {
    UndirectedGraph g = UndirectedGraph::FromEdgeList(*edges);
    GraphStats s = ComputeStats(g);
    out << FormatStats(s) << "\n";
    out << "power-law exponent estimate: " << EstimatePowerLawExponent(g)
        << "\n";
  }
  return Status::OK();
}

Status CmdUndirected(const Args& args, std::ostream& out) {
  const double eps = args.GetDouble("eps", 0.5);
  const NodeId min_size = args.GetInt<NodeId>("min-size", 0, 0);
  const bool trace = args.GetBool("trace", false);
  const std::string output = args.GetString("output", "");
  // Each path reads only its own flags, so a flag given off its path stays
  // unread and Check() rejects it as unknown instead of ignoring it.
  const int sketch_buckets =
      min_size > 0 ? 0 : args.GetInt<int>("sketch-buckets", 0, 0);
  const int sketch_tables =
      sketch_buckets > 0 ? args.GetInt<int>("sketch-tables", 5, 1) : 0;
  const EdgeId compact_below =
      min_size == 0 && sketch_buckets == 0
          ? args.GetInt<EdgeId>("compact-below", 0, 0)
          : 0;
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(*path);
  if (!graph.ok()) return graph.status();

  UndirectedDensestResult result;
  if (min_size > 0) {
    Algorithm2Options opt;
    opt.epsilon = eps;
    opt.min_size = min_size;
    opt.record_trace = trace;
    StatusOr<UndirectedDensestResult> r = RunAlgorithm2(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 2 (min size " << min_size << "): ";
  } else if (sketch_buckets > 0) {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = trace;
    UndirectedGraphStream stream(*graph);
    CountSketchOptions sk;
    sk.buckets = sketch_buckets;
    sk.tables = sketch_tables;
    StatusOr<SketchedResult> r =
        RunSketchedAlgorithm1(stream, sk, /*sketch_seed=*/0x5eed, opt);
    if (!r.ok()) return r.status();
    out << "sketched algorithm 1 (memory ratio " << r->memory_ratio
        << "): ";
    result = std::move(r->result);
  } else {
    Algorithm1Options opt;
    opt.epsilon = eps;
    opt.record_trace = trace;
    opt.compact_below_edges = compact_below;
    StatusOr<UndirectedDensestResult> r = RunAlgorithm1(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 1: ";
  }
  out << Summarize(result) << "\n";
  if (trace) PrintUndirectedTrace(result, out);
  if (!output.empty()) return WriteNodes(output, result.nodes);
  return Status::OK();
}

Status CmdDirected(const Args& args, std::ostream& out) {
  const double eps = args.GetDouble("eps", 0.5);
  // An explicit --c runs Algorithm 3, which rejects a c that is not finite
  // and > 0; without one the ratio is searched. Each path reads only its
  // own flags (--trace with --c, --delta without), so Check() rejects an
  // off-path one as unknown.
  const bool single_c = args.Has("c");
  const double c = single_c ? args.GetDouble("c", 0.0) : 0.0;
  const bool trace = single_c && args.GetBool("trace", false);
  const double delta = single_c ? 0.0 : args.GetDouble("delta", 2.0);
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();
  DirectedGraph graph = DirectedGraph::FromEdgeList(*edges);

  if (single_c) {
    Algorithm3Options opt;
    opt.c = c;
    opt.epsilon = eps;
    opt.record_trace = trace;
    StatusOr<DirectedDensestResult> r = RunAlgorithm3(graph, opt);
    if (!r.ok()) return r.status();
    out << "algorithm 3 (c=" << c << "): " << Summarize(*r) << "\n";
    if (trace) {
      out << "pass  |S|  |T|  |E(S,T)|  rho  peel\n";
      for (const DirectedPassSnapshot& s : r->trace) {
        out << s.pass << "  " << s.s_size << "  " << s.t_size << "  "
            << s.weight << "  " << s.density << "  "
            << (s.removed_from_s ? "S" : "T") << "\n";
      }
    }
    return Status::OK();
  }

  CSearchOptions opt;
  opt.delta = delta;
  opt.epsilon = eps;
  StatusOr<CSearchResult> r = RunCSearch(graph, opt);
  if (!r.ok()) return r.status();
  out << "c-search over " << r->sweep.size() << " ratios (delta=" << delta
      << "): best " << Summarize(r->best) << "\n";
  return Status::OK();
}

Status CmdMapReduce(const Args& args, std::ostream& out) {
  const double eps = args.GetDouble("eps", 1.0);
  const bool directed = args.GetBool("directed", false);
  const uint64_t spill = args.GetInt<uint64_t>("spill-budget", 0, 0);
  CostModel model;
  model.num_mappers = args.GetInt<int>("mappers", 2000, 1);
  model.num_reducers = args.GetInt<int>("reducers", 2000, 1);
  const bool trace = args.GetBool("trace", false);
  // --c is read only with --directed, so an undirected run rejects it as
  // unknown.
  const double c = directed ? args.GetDouble("c", 1.0) : 0.0;
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  // A .bin input streams straight from disk — the MR jobs scan it through
  // the stream substrate without ever materializing the edge set.
  StatusOr<std::unique_ptr<EdgeStream>> stream =
      OpenGraphStream(*path, RetryPolicy{});
  if (!stream.ok()) return stream.status();
  MapReduceEnv env(model);

  if (directed) {
    MrDirectedOptions opt;
    opt.c = c;
    opt.epsilon = eps;
    opt.record_trace = trace;
    opt.spill_budget_bytes = spill;
    StatusOr<MrDirectedResult> r = RunMrDensestDirected(env, **stream, opt);
    if (!r.ok()) return r.status();
    out << "mapreduce algorithm 3 (c=" << c << "): " << Summarize(r->result)
        << "\n";
    out << "input scans: " << r->input_scans
        << "  cluster totals: " << r->totals.ToString() << "\n";
    if (trace) {
      out << "pass  |S|  |T|  |E(S,T)|  rho  sim_sec\n";
      for (size_t i = 0; i < r->result.trace.size(); ++i) {
        const DirectedPassSnapshot& s = r->result.trace[i];
        out << s.pass << "  " << s.s_size << "  " << s.t_size << "  "
            << s.weight << "  " << s.density << "  " << r->pass_seconds[i]
            << "\n";
      }
    }
    return Status::OK();
  }

  MrDensestOptions opt;
  opt.epsilon = eps;
  opt.record_trace = trace;
  opt.spill_budget_bytes = spill;
  StatusOr<MrDensestResult> r = RunMrDensestUndirected(env, **stream, opt);
  if (!r.ok()) return r.status();
  out << "mapreduce algorithm 1: " << Summarize(r->result) << "\n";
  out << "input scans: " << r->input_scans
      << "  cluster totals: " << r->totals.ToString() << "\n";
  if (trace) {
    out << "pass  nodes  edges  rho  sim_sec\n";
    for (size_t i = 0; i < r->result.trace.size(); ++i) {
      const PassSnapshot& s = r->result.trace[i];
      out << s.pass << "  " << s.nodes << "  " << s.edges << "  "
          << s.density << "  " << r->pass_seconds[i] << "\n";
    }
  }
  return Status::OK();
}

Status CmdDynamic(const Args& args, std::ostream& out) {
  const uint64_t window = args.GetInt<uint64_t>("window", 0, 0);
  const uint64_t evict_batch = EvictBatchFlag(args, window);
  const std::string checkpoints = args.GetString("checkpoints", "exact");
  const std::string fallback = args.GetString("fallback", "recompute");
  const bool resume = args.GetBool("resume", false);
  // Only a .bin input is read from disk, with reads to retry.
  RetryPolicy retry;
  if (!args.positional().empty() && EndsWith(args.positional()[0], ".bin")) {
    retry.max_attempts = args.GetInt<int>("retry-attempts", 4, 1);
    retry.base_delay_ms = args.GetDouble("retry-base-ms", 0.1);
  }
  DynamicDensestOptions opt;
  opt.epsilon = args.GetDouble("eps", 0.75);
  opt.window_radius = args.GetInt<uint32_t>("radius", 2, 0);
  opt.trim_hysteresis = args.GetInt<uint32_t>("trim-hysteresis", 64, 1);
  opt.recompute_deadline_ms = args.GetDouble("deadline-ms", 0.0);
  opt.recompute_rearm_updates =
      args.GetInt<uint32_t>("rearm-updates", 4096, 1);
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = args.GetDouble("rate", 0.0);
  replay_opt.query_every = args.GetInt<uint64_t>("query-every", 1024, 0);
  replay_opt.checkpoint_every =
      args.GetInt<uint64_t>("checkpoint-every", 0, 0);
  replay_opt.snapshot_every = args.GetInt<uint64_t>("snapshot-every", 0, 0);
  replay_opt.snapshot_path = args.GetString("snapshot", "");
  replay_opt.check_invariants = args.GetBool("check-invariants", false);
  replay_opt.stats_every = args.GetInt<uint64_t>("stats-every", 0, 0);
  if (Status s = args.Check(); !s.ok()) return s;
  // The double floors; !(x >= 0) also rejects NaN.
  if (!(opt.recompute_deadline_ms >= 0)) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  if (!(retry.base_delay_ms >= 0)) {
    return Status::InvalidArgument("--retry-base-ms must be >= 0");
  }
  if (replay_opt.check_invariants && replay_opt.checkpoint_every == 0) {
    return Status::InvalidArgument(
        "--check-invariants needs --checkpoint-every=N");
  }
  if (replay_opt.snapshot_every > 0 && replay_opt.snapshot_path.empty()) {
    return Status::InvalidArgument("--snapshot-every needs --snapshot=PATH");
  }
  if (resume && replay_opt.snapshot_path.empty()) {
    return Status::InvalidArgument("--resume needs --snapshot=PATH");
  }
  if (fallback == "recompute") {
    opt.fallback = DynamicFallback::kRecompute;
  } else if (fallback == "rebuild") {
    opt.fallback = DynamicFallback::kRebuildOnly;
  } else if (fallback == "never") {
    opt.fallback = DynamicFallback::kNever;
  } else {
    return Status::InvalidArgument("unknown --fallback: " + fallback);
  }
  if (checkpoints == "exact") {
    replay_opt.checkpoint_mode = CheckpointMode::kExactFlow;
  } else if (checkpoints == "batch") {
    replay_opt.checkpoint_mode = CheckpointMode::kBatchAlgorithm1;
  } else {
    return Status::InvalidArgument("unknown --checkpoints: " + checkpoints);
  }
  if (replay_opt.stats_every > 0) {
    replay_opt.stats_hook = [&out](uint64_t count) {
      out << "[stats @" << count << "] " << StatsSummaryLine() << "\n";
    };
  }
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<std::unique_ptr<EdgeStream>> stream = OpenGraphStream(*path, retry);
  if (!stream.ok()) return stream.status();

  // --resume: restore the engine and stream position from the snapshot. A
  // missing/torn/corrupted snapshot degrades to a full replay from scratch
  // — logged, never silently served — so restart is always safe.
  std::unique_ptr<DynamicDensest> engine;
  if (resume) {
    StatusOr<RestoredEngine> restored =
        ReadSnapshot(replay_opt.snapshot_path, opt);
    if (restored.ok()) {
      engine = std::move(restored->engine);
      replay_opt.skip_updates = restored->cursor;
      out << "resumed from " << replay_opt.snapshot_path << " at update "
          << restored->cursor << "\n";
    } else {
      out << "snapshot unusable (" << restored.status().ToString()
          << "); degrading to full replay from scratch\n";
    }
  }
  if (engine == nullptr) {
    StatusOr<std::unique_ptr<DynamicDensest>> created =
        DynamicDensest::Create((*stream)->num_nodes(), opt);
    if (!created.ok()) return created.status();
    engine = std::move(*created);
  }

  const std::unique_ptr<UpdateStream> updates =
      ReplayStream(**stream, window, evict_batch);
  StatusOr<ReplayReport> report = ReplayUpdates(*updates, *engine, replay_opt);
  if (!report.ok()) return report.status();

  out << "dynamic densest (eps=" << opt.epsilon << ReplayLabel(window)
      << "): rho=" << report->final_density;
  if (report->final_certified) {
    out << " certified rho* < " << report->final_upper_bound << " (band "
        << engine->ApproxBand() << "x)\n";
  } else {
    // Only possible under --fallback=never: the window degraded and the
    // engine is serving best-effort answers without a certificate.
    out << " UNCERTIFIED (window degraded; --fallback=never)\n";
  }
  out << "updates: " << report->updates << " ("
      << report->engine_stats.inserts << " ins, "
      << report->engine_stats.deletes << " del, "
      << report->engine_stats.ignored << " ignored) at "
      << static_cast<uint64_t>(report->updates_per_sec) << "/s\n";
  out << "queries: " << report->queries
      << "  p50=" << report->query_latency_us.Quantile(0.5)
      << "us  p99=" << report->query_latency_us.Quantile(0.99) << "us\n";
  out << "maintenance: " << report->engine_stats.level_moves
      << " level moves, " << report->engine_stats.recomputes
      << " recomputes, " << report->engine_stats.window_moves
      << " window moves, " << report->engine_stats.recomputes_avoided
      << " trims suppressed\n";
  if (report->engine_stats.recomputes_cancelled > 0 ||
      report->engine_stats.stale_answers_served > 0) {
    out << "overload: " << report->engine_stats.recomputes_cancelled
        << " recomputes cancelled by the " << opt.recompute_deadline_ms
        << "ms deadline, " << report->engine_stats.stale_answers_served
        << " queries served the widened stale band\n";
  }
  if (report->snapshots_written > 0 || report->snapshots_failed > 0) {
    out << "snapshots: " << report->snapshots_written << " written in "
        << report->snapshot_seconds << "s";
    if (report->snapshots_failed > 0) {
      out << "  " << report->snapshots_failed << " FAILED (last: "
          << report->last_snapshot_error << ")";
    }
    out << "\n";
  }
  PrintIoRetries(updates->io_retry_stats(), out);
  if (!report->checkpoints.empty()) {
    out << "checkpoints: " << report->checkpoints.size()
        << "  band=" << (report->band_ok ? "OK" : "VIOLATED")
        << "  max error=" << report->max_observed_error << "\n";
  }
  if (!report->band_ok) {
    return Status::Internal("maintained density left the certified band");
  }
  return Status::OK();
}

/// Parses "--query-mix=D,M,S[,T]": non-negative weights (density,
/// membership, snapshot, and optionally stats) summing to something
/// positive. The stats weight defaults to 0 so existing three-field
/// invocations keep their exact workload.
StatusOr<std::array<uint64_t, 4>> ParseQueryMix(const std::string& mix) {
  std::array<uint64_t, 4> w{};
  std::istringstream in(mix);
  std::string field;
  size_t i = 0;
  while (std::getline(in, field, ',')) {
    if (i >= 4 || field.empty() ||
        field.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("bad --query-mix field: '" + field + "'");
    }
    w[i++] = std::stoull(field);
  }
  if ((i != 3 && i != 4) || w[0] + w[1] + w[2] + w[3] == 0) {
    return Status::InvalidArgument(
        "--query-mix needs three or four weights with a positive sum, "
        "e.g. 80,15,5 or 80,14,5,1");
  }
  return w;
}

Status CmdServe(const Args& args, std::ostream& out) {
  const double eps = args.GetDouble("eps", 0.75);
  const uint64_t window = args.GetInt<uint64_t>("window", 0, 0);
  const uint64_t evict_batch = EvictBatchFlag(args, window);
  const double qps = args.GetDouble("qps", 2000.0);
  const std::string mix_flag = args.GetString("query-mix", "80,15,5");
  const size_t batch = args.GetInt<size_t>("batch", 8, 1);
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  const uint64_t seed = args.GetInt<uint64_t>("seed", 1, 0);
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = args.GetDouble("rate", 0.0);
  replay_opt.publish_every = args.GetInt<uint64_t>("publish-every", 1024, 0);
  replay_opt.stats_every = args.GetInt<uint64_t>("stats-every", 0, 0);
  if (Status s = args.Check(); !s.ok()) return s;
  if (!(qps >= 0)) return Status::InvalidArgument("--qps must be >= 0");
  if (!(deadline_ms >= 0)) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  StatusOr<std::array<uint64_t, 4>> mix = ParseQueryMix(mix_flag);
  if (!mix.ok()) return mix.status();
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<std::unique_ptr<EdgeStream>> stream =
      OpenGraphStream(*path, RetryPolicy{});
  if (!stream.ok()) return stream.status();
  const NodeId num_nodes = (*stream)->num_nodes();

  DynamicDensestOptions opt;
  opt.epsilon = eps;
  StatusOr<std::unique_ptr<DynamicDensest>> engine =
      DynamicDensest::Create(num_nodes, opt);
  if (!engine.ok()) return engine.status();
  const std::unique_ptr<UpdateStream> updates =
      ReplayStream(**stream, window, evict_batch);

  // The serving tier: the replay thread is the plane's single writer; the
  // closed-loop client below answers its own batches off the plane without
  // ever touching the writer.
  AnswerPlane plane(num_nodes);
  QueryService service(plane, {});

  CancelToken writer_cancel;
  replay_opt.query_every = 0;  // queries come through the service instead
  replay_opt.publish = &plane;
  replay_opt.cancel = &writer_cancel;
  if (replay_opt.stats_every > 0) {
    // Runs on the writer thread; `out` has no other writer until join.
    replay_opt.stats_hook = [&out](uint64_t count) {
      out << "[stats @" << count << "] " << StatsSummaryLine() << "\n";
    };
  }

  std::atomic<bool> writer_done{false};
  StatusOr<ReplayReport> report = Status::Internal("writer did not run");
  std::thread writer([&] {
    report = ReplayUpdates(*updates, **engine, replay_opt);
    writer_done.store(true, std::memory_order_release);
  });

  // Closed-loop client: submit seeded query batches at --qps until the
  // writer drains the stream. Sheds and expiries are normal serving
  // outcomes and are tallied, not fatal.
  Rng rng(Mix64(seed));
  const std::array<uint64_t, 4>& w = *mix;
  const uint64_t mix_total = w[0] + w[1] + w[2] + w[3];
  std::vector<ServeQuery> queries(batch);
  std::vector<ServeResult> results;
  uint64_t batches_ok = 0, batches_shed = 0, batches_expired = 0;
  uint64_t queries_submitted = 0;
  Status client_status = Status::OK();
  WallTimer client_wall;
  while (!writer_done.load(std::memory_order_acquire)) {
    for (ServeQuery& q : queries) {
      const uint64_t draw = rng.UniformU64(mix_total);
      if (draw < w[0]) {
        q = ServeQuery{ServeQuery::Kind::kDensity, 0};
      } else if (draw < w[0] + w[1]) {
        q = ServeQuery{ServeQuery::Kind::kMembership,
                       static_cast<NodeId>(rng.UniformU64(
                           num_nodes > 0 ? num_nodes : 1))};
      } else if (draw < w[0] + w[1] + w[2]) {
        q = ServeQuery{ServeQuery::Kind::kSnapshot, 0};
      } else {
        q = ServeQuery{ServeQuery::Kind::kStats, 0};
      }
    }
    Status s;
    if (deadline_ms > 0) {
      CancelToken deadline = CancelToken::WithDeadlineAfterMs(deadline_ms);
      s = service.QueryBatch(queries, &results, &deadline);
    } else {
      s = service.QueryBatch(queries, &results);
    }
    queries_submitted += queries.size();
    if (s.ok()) {
      ++batches_ok;
    } else if (s.code() == Status::Code::kUnavailable) {
      ++batches_shed;
    } else if (s.code() == Status::Code::kDeadlineExceeded ||
               s.code() == Status::Code::kCancelled) {
      ++batches_expired;
    } else {
      client_status = s;  // a real serving bug: stop the writer and fail
      writer_cancel.Cancel();
      break;
    }
    if (qps > 0) {
      const double ahead = static_cast<double>(queries_submitted) / qps -
                           client_wall.ElapsedSeconds();
      if (ahead > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
    }
  }
  writer.join();
  service.Stop();
  if (!client_status.ok()) return client_status;
  if (!report.ok()) return report.status();

  const Answer final_answer = plane.ReadAnswer();
  out << "serve (eps=" << eps << ReplayLabel(window)
      << "): rho=" << final_answer.density;
  if (final_answer.certified) {
    out << " certified rho* < " << final_answer.upper_bound;
  } else {
    out << " UNCERTIFIED";
  }
  out << " at epoch " << final_answer.epoch << "\n";
  out << "writer: " << report->updates << " updates at "
      << static_cast<uint64_t>(report->updates_per_sec) << "/s, "
      << plane.epoch() << " publications\n";
  out << "client: " << batches_ok << " batches ok, " << batches_shed
      << " shed, " << batches_expired << " expired ("
      << queries_submitted << " queries submitted)\n";
  const QueryServiceStats sstats = service.stats();
  out << "service: " << sstats.queries_served << " queries served  p50="
      << sstats.latency_p50_us << "us  p99=" << sstats.latency_p99_us
      << "us  mean=" << sstats.latency_mean_us << "us\n";
  PrintIoRetries(updates->io_retry_stats(), out);
  return Status::OK();
}

Status CmdChaos(const Args& args, std::ostream& out) {
  const bool smoke = args.GetBool("smoke", false);
  const bool verbose = args.GetBool("verbose", false);
  ChaosOptions opt;
  opt.schedules = args.GetInt<uint32_t>("schedules", 20, 1);
  opt.seed = args.GetInt<uint64_t>("seed", 1, 0);
  opt.nodes = args.GetInt<NodeId>("nodes", 70, 2);
  opt.edges = args.GetInt<EdgeId>("edges", 1200, 1);
  opt.window = args.GetInt<uint64_t>("window", 150, 1);
  opt.epsilon = args.GetDouble("eps", 0.6);
  opt.checkpoint_every = args.GetInt<uint64_t>("checkpoint-every", 300, 1);
  opt.snapshot_every = args.GetInt<uint64_t>("snapshot-every", 100, 1);
  opt.max_faults = args.GetInt<uint32_t>("max-faults", 6, 0);
  opt.batch_size = args.GetInt<size_t>("batch-size", 64, 1);
  opt.reader_threads = args.GetInt<uint32_t>("readers", 2, 0);
  opt.scratch_dir = args.GetString("scratch", "");
  opt.stats_every = args.GetInt<uint64_t>("stats-every", 0, 0);
  if (Status s = args.Check(); !s.ok()) return s;
  if (verbose) opt.log = &out;
  if (opt.stats_every > 0) {
    opt.stats_hook = [&out](uint32_t done) {
      out << "[stats after " << done << " schedules] " << StatsSummaryLine()
          << "\n";
    };
  }
  if (smoke) {
    // The CI gate: a fixed seed so every run checks the identical fault
    // schedules, and never fewer than the contract's 20.
    opt.seed = 20120817;
    if (opt.schedules < 20) opt.schedules = 20;
  }

  if (!Failpoints::compiled_in()) {
    out << "failpoints compiled out (-DDENSEST_FAILPOINTS=OFF): "
           "running a fault-free soak (snapshots, band checks, audits)\n";
  }
  StatusOr<ChaosReport> report = RunChaos(opt);
  if (!report.ok()) return report.status();
  out << "chaos: " << report->schedules << " schedules survived: "
      << report->total_faults << " faults injected, " << report->total_kills
      << " kills recovered (" << report->total_full_rebuilds
      << " full rebuilds), " << report->total_band_checks << " band checks, "
      << report->total_invariant_audits << " invariant audits; every final "
      << "state bit-identical to its fault-free reference\n";
  if (report->total_reader_snapshots > 0) {
    out << "serving: " << report->total_reader_snapshots
        << " concurrent reader snapshots verified untorn against the "
        << "writer log and re-derived from their workload prefixes\n";
  }
  return Status::OK();
}

Status CmdExact(const Args& args, std::ostream& out) {
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(*path);
  if (!graph.ok()) return graph.status();

  StatusOr<ExactDensestResult> r = ExactDensestSubgraph(*graph);
  if (!r.ok()) return r.status();
  out << "exact: rho*=" << r->density << " |S*|=" << r->nodes.size()
      << " (" << r->flow_iterations << " max-flow solves)\n";
  return Status::OK();
}

Status CmdEnumerate(const Args& args, std::ostream& out) {
  EnumerateOptions opt;
  opt.epsilon = args.GetDouble("eps", 0.5);
  opt.max_subgraphs = args.GetInt<size_t>("count", 10, 0);
  opt.min_density = args.GetDouble("min-density", 1.0);
  if (Status s = args.Check(); !s.ok()) return s;
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<UndirectedGraph> graph = LoadUndirectedGraph(*path);
  if (!graph.ok()) return graph.status();

  StatusOr<std::vector<UndirectedDensestResult>> subs =
      EnumerateDenseSubgraphs(*graph, opt);
  if (!subs.ok()) return subs.status();
  out << subs->size() << " dense subgraphs:\n";
  for (size_t i = 0; i < subs->size(); ++i) {
    out << "  #" << (i + 1) << " " << Summarize((*subs)[i]) << "\n";
  }
  return Status::OK();
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument("usage: generate <dataset> <path>");
  }
  const std::string& name = args.positional()[0];
  const std::string& path = args.positional()[1];
  const uint64_t seed = args.GetInt<uint64_t>("seed", 1, 0);
  const std::string format = args.GetString("format", "txt");
  // Only the two random models take a size, and only Chung-Lu an exponent.
  const bool sized = name == "er" || name == "chung-lu";
  const NodeId nodes = sized ? args.GetInt<NodeId>("nodes", 10000, 1) : 0;
  const EdgeId edge_count =
      sized ? args.GetInt<EdgeId>("edges", 50000, 0) : 0;
  const double exponent =
      name == "chung-lu" ? args.GetDouble("exponent", 2.3) : 0.0;
  if (Status s = args.Check(); !s.ok()) return s;
  if (format != "txt" && format != "bin") {
    return Status::InvalidArgument("unknown format: " + format);
  }
  if (name == "er") {
    const EdgeId pairs = NodePairs(nodes);
    if (edge_count > pairs) {
      return Status::InvalidArgument(
          "--edges=" + std::to_string(edge_count) + " exceeds the " +
          std::to_string(pairs) + " node pairs of --nodes=" +
          std::to_string(nodes));
    }
  }

  EdgeList edges;
  if (name == "flickr-sim") {
    edges = MakeFlickrSim(seed);
  } else if (name == "im-sim") {
    edges = MakeImSim(seed);
  } else if (name == "livejournal-sim") {
    edges = MakeLiveJournalSim(seed);
  } else if (name == "twitter-sim") {
    edges = MakeTwitterSim(seed);
  } else if (name == "er") {
    edges = ErdosRenyiGnm(nodes, edge_count, seed);
  } else if (name == "chung-lu") {
    ChungLuOptions cl;
    cl.num_nodes = nodes;
    cl.num_edges = edge_count;
    cl.exponent = exponent;
    edges = ChungLu(cl, seed);
  } else {
    return Status::InvalidArgument("unknown dataset: " + name);
  }

  const Status written =
      format == "bin" ? WriteBinaryEdgeFile(path, edges, /*weighted=*/false)
                      : WriteEdgeListText(path, edges);
  if (!written.ok()) return written;
  out << "wrote " << name << ": |V|=" << edges.num_nodes()
      << " |E|=" << edges.num_edges() << " to " << path << " (" << format
      << ")\n";
  return Status::OK();
}

}  // namespace

std::string CliUsage() {
  return
      "densest_cli — densest subgraph in streaming and MapReduce (VLDB'12)\n"
      "\n"
      "usage: densest_cli <command> [args] [--flags]\n"
      "\n"
      "Every flag is checked before the command runs: a malformed or\n"
      "out-of-range value, or a flag the command would not read, fails\n"
      "with nothing run.\n"
      "\n"
      "commands:\n"
      "  stats <graph> [--directed]\n"
      "      print graph parameters\n"
      "  undirected <graph> [--eps=0.5] [--trace] [--output=F]\n"
      "      [--compact-below=E | --min-size=K |\n"
      "       --sketch-buckets=B [--sketch-tables=5]]\n"
      "      Algorithm 1 (default), Algorithm 2 (--min-size), or the\n"
      "      Count-Sketch variant (--sketch-buckets)\n"
      "  directed <graph> [--eps=0.5] [--c=RATIO [--trace] | --delta=2]\n"
      "      Algorithm 3 for one ratio c, or a c-search in powers of delta\n"
      "  mapreduce <graph> [--eps=1] [--directed --c=1] [--spill-budget=B]\n"
      "      [--mappers=2000 --reducers=2000] [--trace]\n"
      "      simulated-cluster MapReduce drivers; .bin graphs stream\n"
      "      out-of-core, shuffles spill to disk under --spill-budget\n"
      "  dynamic <graph> [--eps=0.75] [--window=W [--evict-batch=1]]\n"
      "      [--rate=R] [--query-every=1024] [--checkpoint-every=N]\n"
      "      [--checkpoints=exact|batch] [--radius=2]\n"
      "      [--fallback=recompute|rebuild|never]\n"
      "      [--snapshot=F --snapshot-every=N] [--resume]\n"
      "      [--trim-hysteresis=64] [--stats-every=N]\n"
      "      [--retry-attempts=4 --retry-base-ms=0.1] (.bin graphs)\n"
      "      [--deadline-ms=0 --rearm-updates=4096] [--check-invariants]\n"
      "      incremental maintenance service: replays the graph as a\n"
      "      timestamped insert stream (--window adds a sliding-window\n"
      "      deleter, --evict-batch amortizes its deletions) and reports\n"
      "      throughput, query latency percentiles and the certified\n"
      "      approximation band. --snapshot-every writes crash-recovery\n"
      "      checkpoints; --resume restores from one (a torn or corrupt\n"
      "      snapshot degrades to a full replay, never a wrong density).\n"
      "      --deadline-ms bounds each background recompute: a recompute\n"
      "      that overruns is cancelled and queries serve the last\n"
      "      certified answer with a widened stale bound until a retried\n"
      "      recompute (doubled budget, after --rearm-updates more\n"
      "      updates) completes. --check-invariants audits the level\n"
      "      structures at every checkpoint\n"
      "  serve <graph> [--eps=0.75] [--window=W [--evict-batch=1]]\n"
      "      [--rate=R] [--publish-every=1024] [--qps=2000]\n"
      "      [--query-mix=80,15,5[,T]] [--batch=8]\n"
      "      [--deadline-ms=0] [--seed=1] [--stats-every=N]\n"
      "      multi-tenant serving: one writer thread replays the graph's\n"
      "      update stream and publishes each settled answer into an\n"
      "      epoch-based snapshot-isolated plane, while one client thread\n"
      "      answers a closed-loop workload of batched\n"
      "      density/membership/snapshot/stats queries (--query-mix\n"
      "      weights; the optional 4th weight draws live-metrics stats\n"
      "      queries) off the plane at --qps. Reports writer throughput,\n"
      "      publication count, and serving latency percentiles;\n"
      "      --deadline-ms bounds each batch, which stops serving when\n"
      "      its deadline passes\n"
      "  chaos [--smoke] [--schedules=20] [--seed=1] [--verbose]\n"
      "      [--nodes=70 --edges=1200 --window=150 --eps=0.6]\n"
      "      [--checkpoint-every=300 --snapshot-every=100]\n"
      "      [--max-faults=6] [--batch-size=64] [--readers=2]\n"
      "      [--scratch=DIR] [--stats-every=N]\n"
      "      randomized chaos/soak harness: replays seeded workloads under\n"
      "      random fault injection (crashes, dead disks, torn files,\n"
      "      failed snapshots) with kill/snapshot-resume cycles, and fails\n"
      "      unless every surviving engine is bit-identical to a\n"
      "      fault-free reference run, and every snapshot observed by\n"
      "      --readers concurrent serving readers matches the writer's\n"
      "      publication log bit-for-bit. --smoke is the fixed-seed CI gate\n"
      "  exact <graph>\n"
      "      exact rho* via Goldberg's max-flow reduction\n"
      "  enumerate <graph> [--eps=0.5] [--count=10] [--min-density=1]\n"
      "      node-disjoint dense subgraphs\n"
      "  generate <dataset> <path> [--seed=1] [--format=txt|bin]\n"
      "      datasets: flickr-sim im-sim livejournal-sim twitter-sim\n"
      "                er [--nodes=10000 --edges=50000]\n"
      "                (--edges at most nodes*(nodes-1)/2)\n"
      "                chung-lu [--nodes=10000 --edges=50000\n"
      "                          --exponent=2.3]\n"
      "\n"
      "graphs: text edge lists (\"u v [w]\" lines, # comments) or .bin files\n"
      "        written by `generate --format=bin`.\n"
      "\n"
      "global flags:\n"
      "  --failpoint=\"name:spec[;name:spec]\"\n"
      "      arm fault-injection points (builds with -DDENSEST_FAILPOINTS=ON\n"
      "      only); see src/common/failpoint.h for names and the spec grammar\n"
      "  --metrics-out=PATH\n"
      "      write the final metrics exposition on exit (Prometheus text,\n"
      "      or the JSON mirror when PATH ends in .json)\n"
      "  --trace-out=PATH\n"
      "      record trace spans for the whole command and write a\n"
      "      chrome://tracing-loadable JSON timeline on exit (builds with\n"
      "      -DDENSEST_TRACING=ON; the default)\n"
      "  --stats-every=N (dynamic / serve / chaos)\n"
      "      print a one-line metrics summary every N applied updates\n"
      "      (chaos: every N schedules)\n";
}

Status RunCliCommand(const std::string& command, const Args& args,
                     std::ostream& out) {
  using Command = Status (*)(const Args&, std::ostream&);
  const std::pair<const char*, Command> kCommands[] = {
      {"stats", CmdStats},         {"undirected", CmdUndirected},
      {"directed", CmdDirected},   {"mapreduce", CmdMapReduce},
      {"dynamic", CmdDynamic},     {"serve", CmdServe},
      {"chaos", CmdChaos},         {"exact", CmdExact},
      {"enumerate", CmdEnumerate}, {"generate", CmdGenerate}};
  Command run = nullptr;
  for (const auto& [name, cmd] : kCommands) {
    if (command == name) run = cmd;
  }
  if (run == nullptr) {
    return Status::InvalidArgument("unknown command: " + command);
  }
  // Global fault-injection flag, valid for every command:
  // --failpoint="name:spec[;name:spec]" (see common/failpoint.h for the
  // spec grammar). Fails loudly when the build compiled failpoints out.
  if (const std::string failpoints = args.GetString("failpoint", "");
      !failpoints.empty()) {
    if (Status s = Failpoints::Instance().SetFromFlag(failpoints); !s.ok()) {
      return s;
    }
  }
  // Global observability flags, valid for every command:
  //   --metrics-out=PATH  write the final metrics exposition (".json" gets
  //                       the JSON mirror, anything else Prometheus text)
  //   --trace-out=PATH    record DENSEST_TRACE_SPAN spans for the whole
  //                       command and write chrome://tracing JSON
  const std::string metrics_out = args.GetString("metrics-out", "");
  const std::string trace_out = args.GetString("trace-out", "");
  if (!trace_out.empty()) {
    if (!obs::TraceRecorder::compiled_in()) {
      out << "note: tracing compiled out (-DDENSEST_TRACING=OFF); "
          << trace_out << " will hold an empty timeline\n";
    }
    obs::TraceRecorder::Get().Start();
  }
  const Status status = run(args, out);
  // Write the artifacts even when the command failed — a chaos or serve
  // failure is exactly when the timeline and counters are wanted — but
  // never let an artifact-write error mask the command's own status.
  if (!trace_out.empty()) {
    obs::TraceRecorder::Get().Stop();
    Status w = obs::TraceRecorder::Get().DrainToJsonFile(trace_out);
    if (status.ok() && !w.ok()) return w;
    if (w.ok()) out << "trace written to " << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    Status w = obs::WriteMetricsFile(metrics_out);
    if (status.ok() && !w.ok()) return w;
    if (w.ok()) out << "metrics written to " << metrics_out << "\n";
  }
  return status;
}

}  // namespace densest
