#include "cli/commands.h"

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

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

/// Loads edges from a text ("u v [w]") or binary (.bin) edge file.
StatusOr<EdgeList> LoadEdges(const std::string& path) {
  if (!EndsWith(path, ".bin")) return ReadEdgeListText(path);
  auto stream = BinaryFileEdgeStream::Open(path);
  if (!stream.ok()) return stream.status();
  return ReadAllEdges(**stream);
}

StatusOr<std::string> RequireGraphArg(const Args& args) {
  if (args.positional().empty()) {
    return Status::InvalidArgument("expected a graph file argument");
  }
  return args.positional()[0];
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

}  // namespace

Status CmdStats(const Args& args, std::ostream& out) {
  StatusOr<bool> directed = args.GetBool("directed", false);
  if (!directed.ok()) return directed.status();
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();

  if (*directed) {
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
  StatusOr<double> eps = args.GetDouble("eps", 0.5);
  StatusOr<int64_t> min_size = args.GetInt("min-size", 0);
  StatusOr<bool> trace = args.GetBool("trace", false);
  std::string output = args.GetString("output", "");
  for (const Status& s :
       {eps.ok() ? Status::OK() : eps.status(),
        min_size.ok() ? Status::OK() : min_size.status(),
        trace.ok() ? Status::OK() : trace.status()}) {
    if (!s.ok()) return s;
  }
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();

  GraphBuilder builder;
  builder.ReserveNodes(edges->num_nodes());
  for (const Edge& e : edges->edges()) builder.Add(e.u, e.v, e.w);
  StatusOr<UndirectedGraph> graph = builder.BuildUndirected();
  if (!graph.ok()) return graph.status();

  // Each path reads only its own flags, so a flag given off its path stays
  // unread and RunCliCommand rejects it as unknown instead of ignoring it.
  UndirectedDensestResult result;
  StatusOr<int64_t> sketch_buckets =
      *min_size > 0 ? int64_t{0} : args.GetInt("sketch-buckets", 0);
  if (!sketch_buckets.ok()) return sketch_buckets.status();
  if (*min_size > 0) {
    Algorithm2Options opt;
    opt.epsilon = *eps;
    opt.min_size = static_cast<NodeId>(*min_size);
    opt.record_trace = *trace;
    StatusOr<UndirectedDensestResult> r = RunAlgorithm2(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 2 (min size " << *min_size << "): ";
  } else if (*sketch_buckets > 0) {
    StatusOr<int64_t> sketch_tables = args.GetInt("sketch-tables", 5);
    if (!sketch_tables.ok()) return sketch_tables.status();
    Algorithm1Options opt;
    opt.epsilon = *eps;
    opt.record_trace = *trace;
    UndirectedGraphStream stream(*graph);
    CountSketchOptions sk;
    sk.buckets = static_cast<int>(*sketch_buckets);
    sk.tables = static_cast<int>(*sketch_tables);
    StatusOr<SketchedResult> r =
        RunSketchedAlgorithm1(stream, sk, /*sketch_seed=*/0x5eed, opt);
    if (!r.ok()) return r.status();
    out << "sketched algorithm 1 (memory ratio " << r->memory_ratio
        << "): ";
    result = std::move(r->result);
  } else {
    StatusOr<int64_t> compact = args.GetInt("compact-below", 0);
    if (!compact.ok()) return compact.status();
    Algorithm1Options opt;
    opt.epsilon = *eps;
    opt.record_trace = *trace;
    opt.compact_below_edges = static_cast<EdgeId>(*compact);
    StatusOr<UndirectedDensestResult> r = RunAlgorithm1(*graph, opt);
    if (!r.ok()) return r.status();
    result = std::move(*r);
    out << "algorithm 1: ";
  }
  out << Summarize(result) << "\n";
  if (*trace) PrintUndirectedTrace(result, out);
  if (!output.empty()) return WriteNodes(output, result.nodes);
  return Status::OK();
}

Status CmdDirected(const Args& args, std::ostream& out) {
  StatusOr<double> eps = args.GetDouble("eps", 0.5);
  if (!eps.ok()) return eps.status();
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();
  DirectedGraph graph = DirectedGraph::FromEdgeList(*edges);

  // An explicit --c runs Algorithm 3, which rejects a c that is not finite
  // and > 0; without one the ratio is searched. Each path reads only its
  // own flags (--trace with --c, --delta without), so RunCliCommand
  // rejects an off-path one as unknown.
  if (args.Has("c")) {
    StatusOr<double> c = args.GetDouble("c", 0.0);
    StatusOr<bool> trace = args.GetBool("trace", false);
    if (!c.ok()) return c.status();
    if (!trace.ok()) return trace.status();
    Algorithm3Options opt;
    opt.c = *c;
    opt.epsilon = *eps;
    opt.record_trace = *trace;
    StatusOr<DirectedDensestResult> r = RunAlgorithm3(graph, opt);
    if (!r.ok()) return r.status();
    out << "algorithm 3 (c=" << *c << "): " << Summarize(*r) << "\n";
    if (*trace) {
      out << "pass  |S|  |T|  |E(S,T)|  rho  peel\n";
      for (const DirectedPassSnapshot& s : r->trace) {
        out << s.pass << "  " << s.s_size << "  " << s.t_size << "  "
            << s.weight << "  " << s.density << "  "
            << (s.removed_from_s ? "S" : "T") << "\n";
      }
    }
    return Status::OK();
  }

  StatusOr<double> delta = args.GetDouble("delta", 2.0);
  if (!delta.ok()) return delta.status();
  CSearchOptions opt;
  opt.delta = *delta;
  opt.epsilon = *eps;
  StatusOr<CSearchResult> r = RunCSearch(graph, opt);
  if (!r.ok()) return r.status();
  out << "c-search over " << r->sweep.size() << " ratios (delta=" << *delta
      << "): best " << Summarize(r->best) << "\n";
  return Status::OK();
}

Status CmdMapReduce(const Args& args, std::ostream& out) {
  StatusOr<double> eps = args.GetDouble("eps", 1.0);
  StatusOr<bool> directed = args.GetBool("directed", false);
  StatusOr<int64_t> spill = args.GetInt("spill-budget", 0);
  StatusOr<int64_t> mappers = args.GetInt("mappers", 2000);
  StatusOr<int64_t> reducers = args.GetInt("reducers", 2000);
  StatusOr<bool> trace = args.GetBool("trace", false);
  for (const Status& s :
       {eps.ok() ? Status::OK() : eps.status(),
        directed.ok() ? Status::OK() : directed.status(),
        spill.ok() ? Status::OK() : spill.status(),
        mappers.ok() ? Status::OK() : mappers.status(),
        reducers.ok() ? Status::OK() : reducers.status(),
        trace.ok() ? Status::OK() : trace.status()}) {
    if (!s.ok()) return s;
  }
  if (*spill < 0) {
    return Status::InvalidArgument("--spill-budget must be >= 0");
  }
  if (*mappers <= 0 || *reducers <= 0) {
    return Status::InvalidArgument("--mappers/--reducers must be > 0");
  }
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();

  // A .bin input streams straight from disk — the MR jobs scan it through
  // the stream substrate without ever materializing the edge set; text
  // inputs are loaded and streamed from memory.
  std::unique_ptr<BinaryFileEdgeStream> file_stream;
  EdgeList edges;
  std::unique_ptr<EdgeListStream> memory_stream;
  EdgeStream* stream = nullptr;
  if (EndsWith(*path, ".bin")) {
    auto opened = BinaryFileEdgeStream::Open(*path);
    if (!opened.ok()) return opened.status();
    file_stream = std::move(*opened);
    stream = file_stream.get();
  } else {
    StatusOr<EdgeList> loaded = ReadEdgeListText(*path);
    if (!loaded.ok()) return loaded.status();
    edges = std::move(*loaded);
    memory_stream = std::make_unique<EdgeListStream>(edges);
    stream = memory_stream.get();
  }

  CostModel model;
  model.num_mappers = static_cast<int>(*mappers);
  model.num_reducers = static_cast<int>(*reducers);
  MapReduceEnv env(model);

  if (*directed) {
    // --c is read only here, so an undirected run rejects it as unknown.
    StatusOr<double> c = args.GetDouble("c", 1.0);
    if (!c.ok()) return c.status();
    MrDirectedOptions opt;
    opt.c = *c;
    opt.epsilon = *eps;
    opt.record_trace = *trace;
    opt.spill_budget_bytes = static_cast<uint64_t>(*spill);
    StatusOr<MrDirectedResult> r = RunMrDensestDirected(env, *stream, opt);
    if (!r.ok()) return r.status();
    out << "mapreduce algorithm 3 (c=" << *c << "): " << Summarize(r->result)
        << "\n";
    out << "input scans: " << r->input_scans
        << "  cluster totals: " << r->totals.ToString() << "\n";
    if (*trace) {
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
  opt.epsilon = *eps;
  opt.record_trace = *trace;
  opt.spill_budget_bytes = static_cast<uint64_t>(*spill);
  StatusOr<MrDensestResult> r = RunMrDensestUndirected(env, *stream, opt);
  if (!r.ok()) return r.status();
  out << "mapreduce algorithm 1: " << Summarize(r->result) << "\n";
  out << "input scans: " << r->input_scans
      << "  cluster totals: " << r->totals.ToString() << "\n";
  if (*trace) {
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
  StatusOr<double> eps = args.GetDouble("eps", 0.75);
  StatusOr<int64_t> window = args.GetInt("window", 0);
  StatusOr<double> rate = args.GetDouble("rate", 0.0);
  StatusOr<int64_t> query_every = args.GetInt("query-every", 1024);
  StatusOr<int64_t> checkpoint_every = args.GetInt("checkpoint-every", 0);
  std::string checkpoints = args.GetString("checkpoints", "exact");
  StatusOr<int64_t> radius = args.GetInt("radius", 2);
  std::string fallback = args.GetString("fallback", "recompute");
  std::string snapshot_path = args.GetString("snapshot", "");
  StatusOr<int64_t> snapshot_every = args.GetInt("snapshot-every", 0);
  StatusOr<bool> resume = args.GetBool("resume", false);
  StatusOr<int64_t> evict_batch = args.GetInt("evict-batch", 1);
  StatusOr<int64_t> trim_hysteresis = args.GetInt("trim-hysteresis", 64);
  StatusOr<int64_t> retry_attempts = args.GetInt("retry-attempts", 4);
  StatusOr<double> retry_base_ms = args.GetDouble("retry-base-ms", 0.1);
  StatusOr<double> deadline_ms = args.GetDouble("deadline-ms", 0.0);
  StatusOr<int64_t> rearm_updates = args.GetInt("rearm-updates", 4096);
  StatusOr<bool> check_invariants = args.GetBool("check-invariants", false);
  StatusOr<int64_t> stats_every = args.GetInt("stats-every", 0);
  for (const Status& s :
       {eps.ok() ? Status::OK() : eps.status(),
        window.ok() ? Status::OK() : window.status(),
        rate.ok() ? Status::OK() : rate.status(),
        query_every.ok() ? Status::OK() : query_every.status(),
        checkpoint_every.ok() ? Status::OK() : checkpoint_every.status(),
        radius.ok() ? Status::OK() : radius.status(),
        snapshot_every.ok() ? Status::OK() : snapshot_every.status(),
        resume.ok() ? Status::OK() : resume.status(),
        evict_batch.ok() ? Status::OK() : evict_batch.status(),
        trim_hysteresis.ok() ? Status::OK() : trim_hysteresis.status(),
        retry_attempts.ok() ? Status::OK() : retry_attempts.status(),
        retry_base_ms.ok() ? Status::OK() : retry_base_ms.status(),
        deadline_ms.ok() ? Status::OK() : deadline_ms.status(),
        rearm_updates.ok() ? Status::OK() : rearm_updates.status(),
        check_invariants.ok() ? Status::OK() : check_invariants.status(),
        stats_every.ok() ? Status::OK() : stats_every.status()}) {
    if (!s.ok()) return s;
  }
  if (*deadline_ms < 0 || *rearm_updates < 1) {
    return Status::InvalidArgument(
        "--deadline-ms must be >= 0 and --rearm-updates >= 1");
  }
  if (*check_invariants && *checkpoint_every == 0) {
    return Status::InvalidArgument(
        "--check-invariants needs --checkpoint-every=N");
  }
  if (*window < 0 || *radius < 0 || *query_every < 0 ||
      *checkpoint_every < 0 || *snapshot_every < 0 || *stats_every < 0) {
    return Status::InvalidArgument("flag values must be >= 0");
  }
  if (*evict_batch < 1 || *trim_hysteresis < 1 || *retry_attempts < 1 ||
      *retry_base_ms < 0) {
    return Status::InvalidArgument(
        "--evict-batch/--trim-hysteresis/--retry-attempts must be >= 1");
  }
  if (*snapshot_every > 0 && snapshot_path.empty()) {
    return Status::InvalidArgument("--snapshot-every needs --snapshot=PATH");
  }
  if (*resume && snapshot_path.empty()) {
    return Status::InvalidArgument("--resume needs --snapshot=PATH");
  }
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();

  // A .bin input replays straight from disk; text inputs are loaded and
  // replayed from memory.
  std::unique_ptr<BinaryFileEdgeStream> file_stream;
  EdgeList edges;
  std::unique_ptr<EdgeListStream> memory_stream;
  EdgeStream* stream = nullptr;
  if (EndsWith(*path, ".bin")) {
    auto opened = BinaryFileEdgeStream::Open(*path);
    if (!opened.ok()) return opened.status();
    file_stream = std::move(*opened);
    RetryPolicy retry;
    retry.max_attempts = static_cast<int>(*retry_attempts);
    retry.base_delay_ms = *retry_base_ms;
    file_stream->set_retry_policy(retry);
    stream = file_stream.get();
  } else {
    StatusOr<EdgeList> loaded = ReadEdgeListText(*path);
    if (!loaded.ok()) return loaded.status();
    edges = std::move(*loaded);
    memory_stream = std::make_unique<EdgeListStream>(edges);
    stream = memory_stream.get();
  }

  DynamicDensestOptions opt;
  opt.epsilon = *eps;
  opt.window_radius = static_cast<uint32_t>(*radius);
  opt.trim_hysteresis = static_cast<uint32_t>(*trim_hysteresis);
  opt.recompute_deadline_ms = *deadline_ms;
  opt.recompute_rearm_updates = static_cast<uint32_t>(*rearm_updates);
  if (fallback == "recompute") {
    opt.fallback = DynamicFallback::kRecompute;
  } else if (fallback == "rebuild") {
    opt.fallback = DynamicFallback::kRebuildOnly;
  } else if (fallback == "never") {
    opt.fallback = DynamicFallback::kNever;
  } else {
    return Status::InvalidArgument("unknown --fallback: " + fallback);
  }
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = *rate;
  replay_opt.query_every = static_cast<uint64_t>(*query_every);
  replay_opt.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  replay_opt.snapshot_every = static_cast<uint64_t>(*snapshot_every);
  replay_opt.snapshot_path = snapshot_path;
  replay_opt.check_invariants = *check_invariants;
  replay_opt.stats_every = static_cast<uint64_t>(*stats_every);
  if (*stats_every > 0) {
    replay_opt.stats_hook = [&out](uint64_t count) {
      out << "[stats @" << count << "] " << StatsSummaryLine() << "\n";
    };
  }
  if (checkpoints == "exact") {
    replay_opt.checkpoint_mode = CheckpointMode::kExactFlow;
  } else if (checkpoints == "batch") {
    replay_opt.checkpoint_mode = CheckpointMode::kBatchAlgorithm1;
  } else {
    return Status::InvalidArgument("unknown --checkpoints: " + checkpoints);
  }

  // --resume: restore the engine and stream position from the snapshot. A
  // missing/torn/corrupted snapshot degrades to a full replay from scratch
  // — logged, never silently served — so restart is always safe.
  std::unique_ptr<DynamicDensest> engine;
  if (*resume) {
    StatusOr<RestoredEngine> restored = ReadSnapshot(snapshot_path, opt);
    if (restored.ok()) {
      engine = std::move(restored->engine);
      replay_opt.skip_updates = restored->cursor;
      out << "resumed from " << snapshot_path << " at update "
          << restored->cursor << "\n";
    } else {
      out << "snapshot unusable (" << restored.status().ToString()
          << "); degrading to full replay from scratch\n";
    }
  }
  if (engine == nullptr) {
    StatusOr<std::unique_ptr<DynamicDensest>> created =
        DynamicDensest::Create(stream->num_nodes(), opt);
    if (!created.ok()) return created.status();
    engine = std::move(*created);
  }

  InsertReplayUpdateStream inserts(*stream);
  std::unique_ptr<SlidingWindowUpdateStream> windowed;
  UpdateStream* updates = &inserts;
  if (*window > 0) {
    windowed = std::make_unique<SlidingWindowUpdateStream>(
        *stream, static_cast<uint64_t>(*window),
        static_cast<uint64_t>(*evict_batch));
    updates = windowed.get();
  }

  StatusOr<ReplayReport> report = ReplayUpdates(*updates, *engine, replay_opt);
  if (!report.ok()) return report.status();

  out << "dynamic densest (eps=" << *eps
      << (*window > 0 ? ", sliding window " + std::to_string(*window)
                      : std::string(", insert-only"))
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
        << " recomputes cancelled by the " << *deadline_ms
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
  if (const IoRetryStats retry = updates->io_retry_stats();
      retry.retries > 0 || retry.exhausted > 0) {
    out << "io retries: " << retry.retries << " (" << retry.healed
        << " healed, " << retry.exhausted << " exhausted)\n";
  }
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

namespace {

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

}  // namespace

Status CmdServe(const Args& args, std::ostream& out) {
  StatusOr<double> eps = args.GetDouble("eps", 0.75);
  StatusOr<int64_t> window = args.GetInt("window", 0);
  StatusOr<double> rate = args.GetDouble("rate", 0.0);
  StatusOr<int64_t> publish_every = args.GetInt("publish-every", 1024);
  StatusOr<double> qps = args.GetDouble("qps", 2000.0);
  std::string mix_flag = args.GetString("query-mix", "80,15,5");
  StatusOr<int64_t> batch = args.GetInt("batch", 8);
  StatusOr<double> deadline_ms = args.GetDouble("deadline-ms", 0.0);
  StatusOr<int64_t> seed = args.GetInt("seed", 1);
  StatusOr<int64_t> evict_batch = args.GetInt("evict-batch", 1);
  StatusOr<int64_t> stats_every = args.GetInt("stats-every", 0);
  for (const Status& s :
       {eps.ok() ? Status::OK() : eps.status(),
        window.ok() ? Status::OK() : window.status(),
        rate.ok() ? Status::OK() : rate.status(),
        publish_every.ok() ? Status::OK() : publish_every.status(),
        qps.ok() ? Status::OK() : qps.status(),
        batch.ok() ? Status::OK() : batch.status(),
        deadline_ms.ok() ? Status::OK() : deadline_ms.status(),
        seed.ok() ? Status::OK() : seed.status(),
        evict_batch.ok() ? Status::OK() : evict_batch.status(),
        stats_every.ok() ? Status::OK() : stats_every.status()}) {
    if (!s.ok()) return s;
  }
  if (*batch < 1) {
    return Status::InvalidArgument("--batch must be >= 1");
  }
  if (*window < 0 || *publish_every < 0 || *qps < 0 || *deadline_ms < 0 ||
      *evict_batch < 1 || *stats_every < 0) {
    return Status::InvalidArgument("flag values out of range");
  }
  StatusOr<std::array<uint64_t, 4>> mix = ParseQueryMix(mix_flag);
  if (!mix.ok()) return mix.status();
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();

  // Same input handling as `dynamic`: a .bin input replays straight from
  // disk, text inputs from memory.
  std::unique_ptr<BinaryFileEdgeStream> file_stream;
  EdgeList edges;
  std::unique_ptr<EdgeListStream> memory_stream;
  EdgeStream* stream = nullptr;
  if (EndsWith(*path, ".bin")) {
    auto opened = BinaryFileEdgeStream::Open(*path);
    if (!opened.ok()) return opened.status();
    file_stream = std::move(*opened);
    stream = file_stream.get();
  } else {
    StatusOr<EdgeList> loaded = ReadEdgeListText(*path);
    if (!loaded.ok()) return loaded.status();
    edges = std::move(*loaded);
    memory_stream = std::make_unique<EdgeListStream>(edges);
    stream = memory_stream.get();
  }
  const NodeId num_nodes = stream->num_nodes();

  DynamicDensestOptions opt;
  opt.epsilon = *eps;
  StatusOr<std::unique_ptr<DynamicDensest>> engine =
      DynamicDensest::Create(num_nodes, opt);
  if (!engine.ok()) return engine.status();

  InsertReplayUpdateStream inserts(*stream);
  std::unique_ptr<SlidingWindowUpdateStream> windowed;
  UpdateStream* updates = &inserts;
  if (*window > 0) {
    windowed = std::make_unique<SlidingWindowUpdateStream>(
        *stream, static_cast<uint64_t>(*window),
        static_cast<uint64_t>(*evict_batch));
    updates = windowed.get();
  }

  // The serving tier: the replay thread is the plane's single writer; the
  // closed-loop client below answers its own batches off the plane without
  // ever touching the writer.
  AnswerPlane plane(num_nodes);
  QueryService service(plane, {});

  CancelToken writer_cancel;
  ReplayOptions replay_opt;
  replay_opt.target_updates_per_sec = *rate;
  replay_opt.query_every = 0;  // queries come through the service instead
  replay_opt.publish = &plane;
  replay_opt.publish_every = static_cast<uint64_t>(*publish_every);
  replay_opt.cancel = &writer_cancel;
  replay_opt.stats_every = static_cast<uint64_t>(*stats_every);
  if (*stats_every > 0) {
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
  Rng rng(Mix64(static_cast<uint64_t>(*seed)));
  const std::array<uint64_t, 4>& w = *mix;
  const uint64_t mix_total = w[0] + w[1] + w[2] + w[3];
  std::vector<ServeQuery> queries(static_cast<size_t>(*batch));
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
    if (*deadline_ms > 0) {
      CancelToken deadline = CancelToken::WithDeadlineAfterMs(*deadline_ms);
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
    if (*qps > 0) {
      const double ahead =
          static_cast<double>(queries_submitted) / *qps -
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
  out << "serve (eps=" << *eps
      << (*window > 0 ? ", sliding window " + std::to_string(*window)
                      : std::string(", insert-only"))
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
  // Writer-side IO-retry summary, read back from the metrics registry the
  // retry loops feed (`dynamic` prints the same story from its report;
  // before the registry the serve path simply dropped it).
  const uint64_t io_retries = DENSEST_METRIC_COUNTER("io.retries").Value();
  const uint64_t io_exhausted =
      DENSEST_METRIC_COUNTER("io.retries_exhausted").Value();
  if (io_retries > 0 || io_exhausted > 0) {
    out << "io retries: " << io_retries << " ("
        << DENSEST_METRIC_COUNTER("io.retries_healed").Value() << " healed, "
        << io_exhausted << " exhausted)\n";
  }
  return Status::OK();
}

Status CmdChaos(const Args& args, std::ostream& out) {
  StatusOr<bool> smoke = args.GetBool("smoke", false);
  StatusOr<bool> verbose = args.GetBool("verbose", false);
  StatusOr<int64_t> schedules = args.GetInt("schedules", 20);
  StatusOr<int64_t> seed = args.GetInt("seed", 1);
  StatusOr<int64_t> nodes = args.GetInt("nodes", 70);
  StatusOr<int64_t> edges = args.GetInt("edges", 1200);
  StatusOr<int64_t> window = args.GetInt("window", 150);
  StatusOr<double> eps = args.GetDouble("eps", 0.6);
  StatusOr<int64_t> checkpoint_every = args.GetInt("checkpoint-every", 300);
  StatusOr<int64_t> snapshot_every = args.GetInt("snapshot-every", 100);
  StatusOr<int64_t> max_faults = args.GetInt("max-faults", 6);
  StatusOr<int64_t> batch_size = args.GetInt("batch-size", 64);
  StatusOr<int64_t> readers = args.GetInt("readers", 2);
  std::string scratch = args.GetString("scratch", "");
  StatusOr<int64_t> stats_every = args.GetInt("stats-every", 0);
  for (const Status& s :
       {smoke.ok() ? Status::OK() : smoke.status(),
        verbose.ok() ? Status::OK() : verbose.status(),
        schedules.ok() ? Status::OK() : schedules.status(),
        seed.ok() ? Status::OK() : seed.status(),
        nodes.ok() ? Status::OK() : nodes.status(),
        edges.ok() ? Status::OK() : edges.status(),
        window.ok() ? Status::OK() : window.status(),
        eps.ok() ? Status::OK() : eps.status(),
        checkpoint_every.ok() ? Status::OK() : checkpoint_every.status(),
        snapshot_every.ok() ? Status::OK() : snapshot_every.status(),
        max_faults.ok() ? Status::OK() : max_faults.status(),
        batch_size.ok() ? Status::OK() : batch_size.status(),
        readers.ok() ? Status::OK() : readers.status(),
        stats_every.ok() ? Status::OK() : stats_every.status()}) {
    if (!s.ok()) return s;
  }
  if (*schedules < 1 || *nodes < 2 || *edges < 1 || *window < 1 ||
      *checkpoint_every < 1 || *snapshot_every < 1 || *max_faults < 0 ||
      *batch_size < 1 || *readers < 0 || *stats_every < 0) {
    return Status::InvalidArgument("chaos: flag value out of range");
  }

  ChaosOptions opt;
  opt.schedules = static_cast<uint32_t>(*schedules);
  opt.seed = static_cast<uint64_t>(*seed);
  opt.nodes = static_cast<NodeId>(*nodes);
  opt.edges = static_cast<EdgeId>(*edges);
  opt.window = static_cast<uint64_t>(*window);
  opt.epsilon = *eps;
  opt.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  opt.snapshot_every = static_cast<uint64_t>(*snapshot_every);
  opt.max_faults = static_cast<uint32_t>(*max_faults);
  opt.batch_size = static_cast<size_t>(*batch_size);
  opt.reader_threads = static_cast<uint32_t>(*readers);
  opt.scratch_dir = scratch;
  if (*verbose) opt.log = &out;
  opt.stats_every = static_cast<uint64_t>(*stats_every);
  if (*stats_every > 0) {
    opt.stats_hook = [&out](uint32_t done) {
      out << "[stats after " << done << " schedules] " << StatsSummaryLine()
          << "\n";
    };
  }
  if (*smoke) {
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
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();
  GraphBuilder builder;
  builder.ReserveNodes(edges->num_nodes());
  for (const Edge& e : edges->edges()) builder.Add(e.u, e.v, e.w);
  StatusOr<UndirectedGraph> graph = builder.BuildUndirected();
  if (!graph.ok()) return graph.status();

  StatusOr<ExactDensestResult> r = ExactDensestSubgraph(*graph);
  if (!r.ok()) return r.status();
  out << "exact: rho*=" << r->density << " |S*|=" << r->nodes.size()
      << " (" << r->flow_iterations << " max-flow solves)\n";
  return Status::OK();
}

Status CmdEnumerate(const Args& args, std::ostream& out) {
  StatusOr<double> eps = args.GetDouble("eps", 0.5);
  StatusOr<int64_t> count = args.GetInt("count", 10);
  StatusOr<double> min_density = args.GetDouble("min-density", 1.0);
  for (const Status& s :
       {eps.ok() ? Status::OK() : eps.status(),
        count.ok() ? Status::OK() : count.status(),
        min_density.ok() ? Status::OK() : min_density.status()}) {
    if (!s.ok()) return s;
  }
  StatusOr<std::string> path = RequireGraphArg(args);
  if (!path.ok()) return path.status();
  StatusOr<EdgeList> edges = LoadEdges(*path);
  if (!edges.ok()) return edges.status();
  GraphBuilder builder;
  builder.ReserveNodes(edges->num_nodes());
  for (const Edge& e : edges->edges()) builder.Add(e.u, e.v, e.w);
  StatusOr<UndirectedGraph> graph = builder.BuildUndirected();
  if (!graph.ok()) return graph.status();

  EnumerateOptions opt;
  opt.epsilon = *eps;
  opt.max_subgraphs = static_cast<size_t>(*count);
  opt.min_density = *min_density;
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
  StatusOr<int64_t> seed = args.GetInt("seed", 1);
  std::string format = args.GetString("format", "txt");
  StatusOr<int64_t> nodes = args.GetInt("nodes", 10000);
  StatusOr<int64_t> edge_count = args.GetInt("edges", 50000);
  StatusOr<double> exponent = args.GetDouble("exponent", 2.3);
  for (const Status& s :
       {seed.ok() ? Status::OK() : seed.status(),
        nodes.ok() ? Status::OK() : nodes.status(),
        edge_count.ok() ? Status::OK() : edge_count.status(),
        exponent.ok() ? Status::OK() : exponent.status()}) {
    if (!s.ok()) return s;
  }
  if (args.positional().size() < 2) {
    return Status::InvalidArgument("usage: generate <dataset> <path>");
  }
  const std::string& name = args.positional()[0];
  const std::string& path = args.positional()[1];
  uint64_t s = static_cast<uint64_t>(*seed);

  EdgeList edges;
  if (name == "flickr-sim") {
    edges = MakeFlickrSim(s);
  } else if (name == "im-sim") {
    edges = MakeImSim(s);
  } else if (name == "livejournal-sim") {
    edges = MakeLiveJournalSim(s);
  } else if (name == "twitter-sim") {
    edges = MakeTwitterSim(s);
  } else if (name == "er") {
    edges = ErdosRenyiGnm(static_cast<NodeId>(*nodes),
                          static_cast<EdgeId>(*edge_count), s);
  } else if (name == "chung-lu") {
    ChungLuOptions cl;
    cl.num_nodes = static_cast<NodeId>(*nodes);
    cl.num_edges = static_cast<EdgeId>(*edge_count);
    cl.exponent = *exponent;
    edges = ChungLu(cl, s);
  } else {
    return Status::InvalidArgument("unknown dataset: " + name);
  }

  Status write_status;
  if (format == "bin") {
    write_status = WriteBinaryEdgeFile(path, edges, /*weighted=*/false);
  } else if (format == "txt") {
    write_status = WriteEdgeListText(path, edges);
  } else {
    return Status::InvalidArgument("unknown format: " + format);
  }
  if (!write_status.ok()) return write_status;
  out << "wrote " << name << ": |V|=" << edges.num_nodes()
      << " |E|=" << edges.num_edges() << " to " << path << " (" << format
      << ")\n";
  return Status::OK();
}

std::string CliUsage() {
  return
      "densest_cli — densest subgraph in streaming and MapReduce (VLDB'12)\n"
      "\n"
      "usage: densest_cli <command> [args] [--flags]\n"
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
      "  dynamic <graph> [--eps=0.75] [--window=W] [--rate=R]\n"
      "      [--query-every=1024] [--checkpoint-every=N]\n"
      "      [--checkpoints=exact|batch] [--radius=2]\n"
      "      [--fallback=recompute|rebuild|never]\n"
      "      [--snapshot=F --snapshot-every=N] [--resume]\n"
      "      [--evict-batch=1] [--trim-hysteresis=64]\n"
      "      [--retry-attempts=4 --retry-base-ms=0.1]\n"
      "      [--deadline-ms=0 --rearm-updates=4096] [--check-invariants]\n"
      "      [--stats-every=N]\n"
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
      "  serve <graph> [--eps=0.75] [--window=W] [--rate=R]\n"
      "      [--publish-every=1024] [--qps=2000]\n"
      "      [--query-mix=80,15,5[,T]] [--batch=8]\n"
      "      [--deadline-ms=0] [--seed=1] [--evict-batch=1]\n"
      "      [--stats-every=N]\n"
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
      "                er chung-lu [--nodes --edges --exponent]\n"
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
  Status status;
  if (command == "stats") {
    status = CmdStats(args, out);
  } else if (command == "undirected") {
    status = CmdUndirected(args, out);
  } else if (command == "directed") {
    status = CmdDirected(args, out);
  } else if (command == "mapreduce") {
    status = CmdMapReduce(args, out);
  } else if (command == "dynamic") {
    status = CmdDynamic(args, out);
  } else if (command == "serve") {
    status = CmdServe(args, out);
  } else if (command == "chaos") {
    status = CmdChaos(args, out);
  } else if (command == "exact") {
    status = CmdExact(args, out);
  } else if (command == "enumerate") {
    status = CmdEnumerate(args, out);
  } else if (command == "generate") {
    status = CmdGenerate(args, out);
  } else {
    return Status::InvalidArgument("unknown command: " + command);
  }
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
  if (!status.ok()) return status;
  std::vector<std::string> unused = args.UnusedFlags();
  if (!unused.empty()) {
    std::string msg = "unknown flag(s):";
    for (const std::string& f : unused) msg += " --" + f;
    return Status::InvalidArgument(msg);
  }
  return status;
}

}  // namespace densest
