// Workload dynamic-serve: im-sim replayed as a sliding window of the
// newest 100000 edges (every edge inserted once, then deleted once 100000
// newer ones arrived). One writer thread drives DynamicDensest at
// eps = 0.5 through ReplayUpdates and publishes to an AnswerPlane every
// 1024 updates; a QueryService with 2 reader threads serves one open-loop
// client sending 4000 batches/s of 8 queries (70% density, 20% membership,
// 10% snapshot). Writer + 2 readers + client = 4 threads. Latency is
// timed from each batch's due time, so a stall also charges the batches
// queued behind it.
//
// The traced run replays a second time through the benchmark's own
// NextBatch -> ApplyBatch -> publish loop (the same batching ReplayUpdates
// uses), timing each call; its final answer must equal the untraced
// ReplayUpdates run's bit for bit, or the replica measured a different
// program.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "gen/datasets.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"
#include "workloads.h"

namespace perfbench {

using namespace densest;

namespace {

constexpr double kEpsilon = 0.5;
constexpr uint64_t kWindow = 100000;
constexpr uint64_t kPublishEvery = 1024;
constexpr size_t kReaders = 2;
constexpr double kBatchesPerSecond = 4000;
constexpr size_t kQueriesPerBatch = 8;
/// ReplayUpdates' NextBatch size and apply-run cadence, mirrored by the
/// traced replica so both publish at the same positions.
constexpr size_t kReadBatch = 4096;
constexpr uint64_t kApplyRun = 1024;
/// The traced client samples direct plane reads every this many batches.
constexpr uint64_t kPlaneSampleEvery = 16;

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return SameBits(a.density, b.density) &&
         SameBits(a.upper_bound, b.upper_bound) && a.size == b.size &&
         a.certified == b.certified && a.stale == b.stale &&
         a.epoch == b.epoch;
}

uint64_t HashNodes(const std::vector<NodeId>& nodes) {
  uint64_t h = Mix64(nodes.size());
  for (NodeId v : nodes) h = Mix64(h ^ v);
  return h;
}

/// One query result a traced client observed, kept compact (the snapshot
/// node set as a hash) for the torn-read audit against the writer log.
struct Observation {
  ServeQuery query;
  Answer answer;
  bool member = false;
  uint64_t prefix_updates = 0;
  uint64_t nodes_hash = 0;
};

/// What the open-loop client measured during one serving replay.
struct ClientLog {
  std::vector<double> latency_us;    ///< completion - due, per batch
  std::vector<double> late_us;       ///< send - due, per batch
  std::vector<double> staleness_ms;  ///< plane age at each completion
  std::vector<double> read_density_ns, read_membership_ns, read_snapshot_ns;
  std::vector<Observation> observations;  ///< traced client only
  uint64_t batches = 0;
  uint64_t failed_batches = 0;
  std::string first_failure;
};

/// One serving replay's writer-side outcome.
struct ServingRound {
  double wall_s = 0;
  double updates_per_s = 0;
  uint64_t updates = 0;
  uint64_t publications = 0;
  Answer final_answer;
  DynamicDensestStats engine_stats;
  QueryServiceStats service;
  ClientLog client;
  EdgeList final_edges;
  // Traced replica only.
  std::vector<double> apply_us, publish_us, read_s;
  double recompute_batch_s = 0;
  uint64_t torn = 0;
};

class DynamicServe {
 public:
  explicit DynamicServe(Run& run) : run_(run) {}

  bool Setup() {
    edges_ = EdgeList();  // a repeated setup starts from nothing
    updates_ = {};
    edges_ = MakeImSim(run_.config.seed);
    EdgeListStream base(edges_);
    SlidingWindowUpdateStream window(base, kWindow);
    updates_.reserve(window.SizeHint());
    std::vector<EdgeUpdate> buf(kReadBatch);
    window.Reset();
    for (size_t got; (got = window.NextBatch(buf.data(), buf.size())) > 0;) {
      updates_.insert(updates_.end(), buf.begin(), buf.begin() + got);
    }
    return window.status().ok() && !updates_.empty();
  }

  /// One replay with serving attached. `traced` selects the benchmark's
  /// own span-timed replica loop instead of ReplayUpdates.
  bool Serve(bool traced, ServingRound& out) {
    auto engine = DynamicDensest::Create(edges_.num_nodes(), EngineOptions());
    if (!engine.ok()) return Failed("DynamicDensest::Create", engine.status());
    AnswerPlane plane(edges_.num_nodes());
    if (traced) plane.EnableWriterLog();
    QueryServiceOptions qopt;
    qopt.num_readers = kReaders;
    QueryService service(plane, qopt);

    std::atomic<bool> done{false};
    Status writer_status = Status::OK();
    std::thread writer([&] {
      writer_status = traced ? Replica(**engine, plane, out)
                             : Replay(**engine, plane, out);
      done.store(true, std::memory_order_release);
    });
    RunClient(plane, service, done, traced, out.client);
    writer.join();
    service.Stop();
    run_.report.CountOps(1 + out.client.batches, out.client.failed_batches);
    if (!writer_status.ok()) return Failed("serving replay", writer_status);

    out.publications = plane.epoch();
    out.final_answer = plane.ReadAnswer();
    out.engine_stats = (*engine)->stats();
    out.service = service.stats();
    out.final_edges = (*engine)->CurrentEdges();
    if (traced) out.torn = CountTorn(out.client.observations, plane.writer_log());
    return true;
  }

  /// The same replay with nothing attached: the writer's standalone
  /// updates/s.
  bool Standalone(double& updates_per_s) {
    auto engine = DynamicDensest::Create(edges_.num_nodes(), EngineOptions());
    if (!engine.ok()) return Failed("DynamicDensest::Create", engine.status());
    MemoryUpdateStream stream(updates_, edges_.num_nodes());
    ReplayOptions opt;
    opt.query_every = 0;
    SpanLog::Scope span(run_.spans, "dynamic", "ReplayUpdates (standalone)");
    auto report = ReplayUpdates(stream, **engine, opt);
    run_.report.CountOps(1);
    if (!report.ok()) return Failed("ReplayUpdates (standalone)", report.status());
    updates_per_s = report->updates_per_sec;
    return true;
  }

  const EdgeList& edges() const { return edges_; }
  size_t num_updates() const { return updates_.size(); }
  /// Root span of the last traced replica (0 before one ran).
  uint64_t replica_root() const { return replica_root_; }

 private:
  static DynamicDensestOptions EngineOptions() {
    DynamicDensestOptions opt;
    opt.epsilon = kEpsilon;
    return opt;
  }

  Status Replay(DynamicDensest& engine, AnswerPlane& plane,
                ServingRound& out) {
    MemoryUpdateStream stream(updates_, edges_.num_nodes());
    ReplayOptions opt;
    opt.query_every = 0;
    opt.publish = &plane;
    opt.publish_every = kPublishEvery;
    opt.batch_size = kReadBatch;
    auto report = ReplayUpdates(stream, engine, opt);
    if (!report.ok()) return report.status();
    out.wall_s = report->wall_seconds;
    out.updates_per_s = report->updates_per_sec;
    out.updates = report->updates;
    return Status::OK();
  }

  /// ReplayUpdates' loop (no queries, checkpoints, snapshots or pacing),
  /// with every layer call in a span and timed.
  Status Replica(DynamicDensest& engine, AnswerPlane& plane,
                 ServingRound& out) {
    MemoryUpdateStream stream(updates_, edges_.num_nodes());
    std::vector<EdgeUpdate> batch(kReadBatch);
    uint64_t count = 0;
    double apply_s = 0;
    auto publish = [&] {
      SpanLog::Scope span(run_.spans, "serve",
                          "Query+DensestNodes+AnswerPlane::Publish");
      const auto t0 = Clock::now();
      plane.Publish(engine.Query(), engine.DensestNodes(), count);
      out.publish_us.push_back(MicrosBetween(t0, Clock::now()));
    };
    SpanLog::Scope root(run_.spans, "bench", "dynamic-serve traced phase");
    replica_root_ = root.id();
    WallTimer wall;
    stream.Reset();
    publish();
    for (;;) {
      size_t got = 0;
      {
        SpanLog::Scope span(run_.spans, "stream", "UpdateStream::NextBatch");
        const auto t0 = Clock::now();
        got = stream.NextBatch(batch.data(), batch.size());
        out.read_s.push_back(MicrosBetween(t0, Clock::now()) * 1e-6);
      }
      if (got == 0) break;
      for (size_t i = 0; i < got;) {
        const size_t run = static_cast<size_t>(
            std::min<uint64_t>(got - i, kApplyRun - count % kApplyRun));
        const uint64_t recomputes = engine.stats().recomputes;
        {
          SpanLog::Scope span(run_.spans, "dynamic",
                              "DynamicDensest::ApplyBatch");
          const auto t0 = Clock::now();
          engine.ApplyBatch(std::span<const EdgeUpdate>(batch.data() + i, run));
          const double us = MicrosBetween(t0, Clock::now());
          out.apply_us.push_back(us);
          apply_s += us * 1e-6;
          if (engine.stats().recomputes != recomputes) {
            out.recompute_batch_s += us * 1e-6;
          }
        }
        i += run;
        count += run;
        if (count % kPublishEvery == 0) publish();
      }
    }
    publish();
    out.wall_s = wall.ElapsedSeconds();
    out.updates = count;
    out.updates_per_s = apply_s > 0 ? static_cast<double>(count) / apply_s : 0;
    return stream.status();
  }

  /// The open-loop client: batch i is due at start + i / rate and is sent
  /// then (or at once, when the client is already behind).
  void RunClient(const AnswerPlane& plane, QueryService& service,
                 const std::atomic<bool>& done, bool traced, ClientLog& log) {
    Rng rng(Mix64(run_.config.seed));
    const NodeId n = plane.num_nodes();
    std::vector<ServeQuery> queries(kQueriesPerBatch);
    std::vector<ServeResult> results;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kBatchesPerSecond));
    SpanLog::Scope root(run_.spans, "client", "open-loop client");
    const auto start = Clock::now();
    for (uint64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      for (ServeQuery& q : queries) {
        const uint64_t draw = rng.UniformU64(10);
        if (draw < 7) {
          q = ServeQuery{ServeQuery::Kind::kDensity, 0};
        } else if (draw < 9) {
          q = ServeQuery{ServeQuery::Kind::kMembership,
                         static_cast<NodeId>(rng.UniformU64(n))};
        } else {
          q = ServeQuery{ServeQuery::Kind::kSnapshot, 0};
        }
      }
      const auto due = start + period * static_cast<int64_t>(i);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      Status s = Status::OK();
      {
        SpanLog::Scope span(run_.spans, "serve", "QueryService::QueryBatch");
        s = service.QueryBatch(queries, &results);
      }
      const auto completed = Clock::now();
      ++log.batches;
      log.latency_us.push_back(MicrosBetween(due, completed));
      log.late_us.push_back(MicrosBetween(due, sent));
      log.staleness_ms.push_back(plane.AgeMicros() / 1000.0);
      if (!s.ok()) {
        if (log.failed_batches++ == 0) log.first_failure = s.ToString();
        continue;
      }
      if (traced) {
        for (size_t k = 0; k < queries.size(); ++k) {
          const ServeResult& r = results[k];
          log.observations.push_back({queries[k], r.answer, r.member,
                                      r.prefix_updates, HashNodes(r.nodes)});
        }
        if (i % kPlaneSampleEvery == 0) SamplePlaneReads(plane, rng, log);
      }
    }
  }

  /// Direct AnswerPlane reads, timed one by one.
  void SamplePlaneReads(const AnswerPlane& plane, Rng& rng, ClientLog& log) {
    SpanLog::Scope span(run_.spans, "serve", "AnswerPlane::Read* sample");
    auto ns_since = [](Clock::time_point t0) {
      return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    };
    auto t0 = Clock::now();
    const Answer a = plane.ReadAnswer();
    log.read_density_ns.push_back(ns_since(t0));
    t0 = Clock::now();
    const auto m = plane.ReadMembership(
        static_cast<NodeId>(rng.UniformU64(plane.num_nodes())));
    log.read_membership_ns.push_back(ns_since(t0));
    t0 = Clock::now();
    const PlaneSnapshot snap = plane.ReadSnapshot();
    log.read_snapshot_ns.push_back(ns_since(t0));
    (void)a;
    (void)m;
    (void)snap;
  }

  /// Observed answers that are not one writer publication verbatim.
  static uint64_t CountTorn(const std::vector<Observation>& observations,
                            const std::vector<PlaneSnapshot>& log) {
    std::vector<uint64_t> hashes;
    hashes.reserve(log.size());
    for (const PlaneSnapshot& p : log) hashes.push_back(HashNodes(p.members));
    const Answer empty;
    uint64_t torn = 0;
    for (const Observation& ob : observations) {
      const uint64_t epoch = ob.answer.epoch;
      if (epoch == 0) {
        torn += SameAnswer(ob.answer, empty) ? 0 : 1;
        continue;
      }
      if (epoch > log.size()) {
        ++torn;
        continue;
      }
      const PlaneSnapshot& want = log[epoch - 1];
      Answer expect = want.answer;
      expect.epoch = epoch;
      bool ok = SameAnswer(ob.answer, expect);
      if (ob.query.kind == ServeQuery::Kind::kMembership) {
        ok = ok && ob.member == std::binary_search(want.members.begin(),
                                                   want.members.end(),
                                                   ob.query.node);
      } else if (ob.query.kind == ServeQuery::Kind::kSnapshot) {
        ok = ok && ob.nodes_hash == hashes[epoch - 1] &&
             ob.prefix_updates == want.prefix_updates;
      }
      torn += ok ? 0 : 1;
    }
    return torn;
  }

  bool Failed(const std::string& what, const Status& s) {
    run_.report.Fail(what, s);
    return false;
  }

  Run& run_;
  EdgeList edges_;
  std::vector<EdgeUpdate> updates_;
  uint64_t replica_root_ = 0;
};

/// End-to-end metrics and checks of the untraced serving rounds.
void ReportServing(Run& run, const std::vector<ServingRound>& rounds,
                   size_t num_updates) {
  std::vector<double> job_s, updates_per_s, latency, late, staleness;
  bool same_final = true;
  for (const ServingRound& r : rounds) {
    job_s.push_back(r.wall_s);
    updates_per_s.push_back(r.updates_per_s);
    latency.insert(latency.end(), r.client.latency_us.begin(),
                   r.client.latency_us.end());
    late.insert(late.end(), r.client.late_us.begin(), r.client.late_us.end());
    staleness.insert(staleness.end(), r.client.staleness_ms.begin(),
                     r.client.staleness_ms.end());
    same_final = same_final && SameAnswer(r.final_answer, rounds[0].final_answer);
    run.report.Expect("every update replayed", r.updates == num_updates,
                      std::to_string(r.updates) + " of " +
                          std::to_string(num_updates));
    run.report.Expect("no failed query batch", r.client.failed_batches == 0,
                      r.client.first_failure);
  }
  run.report.Expect("every round serves the same final answer", same_final);

  const ServingRound& last = rounds.back();
  run.report.Timing("job_s", job_s, "s",
                    "writer wall time of one serving replay");
  run.report.Timing("updates_per_s", updates_per_s, "1/s",
                    "writer apply throughput under serving");
  run.report.FixedPercentile("query_p50_us", latency, 5000, "us",
                             "from each batch's due time");
  run.report.FixedPercentile("query_p99_us", latency, 9900, "us");
  run.report.FixedPercentile("query_p999_us", latency, 9990, "us");
  run.report.FixedPercentile("staleness_p99_ms", staleness, 9900, "ms",
                             "AnswerPlane::AgeMicros at batch completion");
  run.report.FixedPercentile("client.late_p99_us", late, 9900, "us",
                             "send time behind the open-loop schedule");
  run.report.Value("cert_ratio",
                   last.final_answer.upper_bound / last.final_answer.density,
                   "ratio", "final upper bound / served density");
}

}  // namespace

int RunDynamicServe(Run& run) {
  DynamicServe w(run);
  if (!TimedSetup(run, [&] { return w.Setup(); })) {
    run.report.Expect("setup", false, "window stream failed");
    return 1;
  }

  // Serving rounds: the end-to-end measurement, and in the traced run the
  // untraced reference for the replica and the tracing overhead.
  std::vector<ServingRound> rounds;
  run.spans.set_enabled(false);
  WallTimer wall;
  const size_t min_rounds = run.config.trace ? 1 : 2;
  const double seconds = run.config.trace ? 0 : run.config.seconds;
  while (rounds.size() < min_rounds || wall.ElapsedSeconds() < seconds) {
    rounds.emplace_back();
    if (!w.Serve(/*traced=*/false, rounds.back())) return 1;
    run.RoundDone();
  }
  ReportServing(run, rounds, w.num_updates());
  const ServingRound& untraced = rounds.back();

  // Algorithm 1 over the final window, and the batch reference checks.
  const EdgeList& window = untraced.final_edges;
  EdgeListStream window_stream(window);
  Algorithm1Options alg1_opt;
  alg1_opt.epsilon = kEpsilon;
  alg1_opt.record_trace = false;
  UndirectedDensestResult alg1;
  Status alg1_status = Status::OK();
  const std::vector<double> alg1_s = RepeatTimed(2.0, 20, [&] {
    auto r = RunAlgorithm1(window_stream, alg1_opt);
    if (!r.ok()) {
      alg1_status = r.status();
      return false;
    }
    alg1 = std::move(*r);
    return true;
  });
  run.report.CountOps(alg1_s.size());
  if (!alg1_status.ok()) {
    run.report.Fail("RunAlgorithm1 (window)", alg1_status);
    return 1;
  }
  run.report.Timing("alg1_s", alg1_s, "s",
                    "RunAlgorithm1 eps=0.5 over the final window edge list");
  run.report.Value("alg1_rho", alg1.density, "rho");

  const Answer& final_answer = untraced.final_answer;
  run.report.Expect("final answer certified, density <= upper bound",
                    final_answer.certified &&
                        final_answer.density <= final_answer.upper_bound,
                    "density=" + std::to_string(final_answer.density) +
                        " upper=" + std::to_string(final_answer.upper_bound));
  Algorithm1Options ref_opt;
  ref_opt.epsilon = 0;
  ref_opt.record_trace = false;
  auto ref = RunAlgorithm1(window_stream, ref_opt);
  run.report.CountOps(1);
  if (!ref.ok()) {
    run.report.Fail("RunAlgorithm1 (window, eps=0)", ref.status());
    return 1;
  }
  constexpr double kTol = 1e-9;
  run.report.Expect(
      "served density <= 2 rho_b and upper bound >= rho_b (batch eps=0)",
      final_answer.density <= 2 * ref->density * (1 + kTol) &&
          final_answer.upper_bound >= ref->density * (1 - kTol),
      "rho_b=" + std::to_string(ref->density));
  if (!run.config.trace) return 0;

  // Traced run.
  double standalone = 0;
  if (!w.Standalone(standalone)) return 1;
  run.spans.set_enabled(true);
  ServingRound traced;
  if (!w.Serve(/*traced=*/true, traced)) return 1;
  run.report.Expect("traced replica final answer == ReplayUpdates answer",
                    SameAnswer(traced.final_answer, untraced.final_answer));
  run.report.Expect("zero torn reads against the writer log", traced.torn == 0,
                    std::to_string(traced.torn) + " of " +
                        std::to_string(traced.client.observations.size()) +
                        " observations");

  // Probes run after the replica, outside its accounted wall.
  {
    SpanLog::Scope probes(run.spans, "bench", "dynamic-serve probes");
    EdgeListStream base(w.edges());
    ProbeStream(run, base, [] { return uint64_t{0}; });
    ProbePasses(run, window_stream, kEpsilon, alg1, Median(alg1_s));
  }

  const DynamicDensestStats& st = traced.engine_stats;
  const double applied = static_cast<double>(std::max<uint64_t>(
      1, st.inserts + st.deletes));
  run.report.Value("stream.update_read_s",
                   [&] {
                     double s = 0;
                     for (double x : traced.read_s) s += x;
                     return s;
                   }(),
                   "s", "UpdateStream::NextBatch total in the replica");
  run.report.FixedPercentile("dynamic.apply_batch_us_p50", traced.apply_us,
                             5000, "us",
                             "per DynamicDensest::ApplyBatch call (<= 1024 "
                             "updates)");
  run.report.FixedPercentile("dynamic.apply_batch_us_p99", traced.apply_us,
                             9900, "us");
  run.report.Value("dynamic.recompute_batch_s", traced.recompute_batch_s, "s",
                   "ApplyBatch calls during which a recompute ran");
  run.report.Value("dynamic.level_moves_per_update",
                   static_cast<double>(st.level_moves) / applied, "ratio");
  run.report.Value("dynamic.recomputes", static_cast<double>(st.recomputes),
                   "count");
  run.report.Value("dynamic.window_moves", static_cast<double>(st.window_moves),
                   "count");
  run.report.Value("dynamic.structures_rebuilt",
                   static_cast<double>(st.structures_rebuilt), "count");
  run.report.Value("dynamic.ignored", static_cast<double>(st.ignored), "count");
  run.report.Value("dynamic.standalone_updates_per_s", standalone, "1/s",
                   "the same replay with no serving attached");

  run.report.FixedPercentile("serve.publish_us_p50", traced.publish_us, 5000,
                             "us");
  run.report.FixedPercentile("serve.publish_us_p99", traced.publish_us, 9900,
                             "us");
  run.report.Value("serve.publications", static_cast<double>(traced.publications),
                   "count");
  run.report.Value("serve.writer_ratio", untraced.updates_per_s / standalone,
                   "ratio", "serving updates/s / standalone updates/s");
  run.report.Timing("serve.plane_read_ns.density",
                    traced.client.read_density_ns, "ns");
  run.report.Timing("serve.plane_read_ns.membership",
                    traced.client.read_membership_ns, "ns");
  run.report.Timing("serve.plane_read_ns.snapshot",
                    traced.client.read_snapshot_ns, "ns");
  run.report.Value("serve.service_p50_us", untraced.service.latency_p50_us,
                   "us", "QueryService::stats(), enqueue to completion");
  run.report.Value("serve.service_p99_us", untraced.service.latency_p99_us,
                   "us");
  if (const Metric* p99 = run.report.Find("query_p99_us");
      p99 != nullptr && !p99->insufficient) {
    run.report.Value("serve.handoff_p99_us",
                     p99->value - untraced.service.latency_p99_us, "us",
                     "client p99 minus service p99 (a quantile difference, "
                     "not a per-batch quantity)");
  }
  run.report.Value("serve.shed", static_cast<double>(untraced.service.shed),
                   "count");
  run.report.Value("serve.expired",
                   static_cast<double>(untraced.service.expired), "count");
  run.report.Value("serve.failed", static_cast<double>(untraced.service.failed),
                   "count");

  ReportTrace(run, w.replica_root(), "dynamic-serve traced writer",
              traced.wall_s, untraced.wall_s);
  return 0;
}

}  // namespace perfbench
