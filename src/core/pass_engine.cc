#include "core/pass_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <thread>
#include <type_traits>

#include "core/peel_runs.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/pass_cursor.h"

namespace densest {

namespace {

constexpr size_t kRowShardEntries = 2 * PassEngine::kShardEdges;

/// Splits [0, n) into row ranges of at least kRowShardEntries adjacency
/// entries each, the last possibly fewer (rows are never split), where
/// prefix(j) counts the entries of rows [0, j). Each cut is a binary
/// search over that nondecreasing prefix, O(shards * log n) in all.
/// Depends only on the graph shape, so shard boundaries are identical for
/// every thread count.
template <typename PrefixFn>
std::vector<RowShard> ShardRows(NodeId n, const PrefixFn& prefix) {
  std::vector<RowShard> shards;
  for (NodeId begin = 0; begin < n;) {
    // The first row end j > begin whose shard [begin, j) is full.
    const EdgeId full = prefix(begin) + kRowShardEntries;
    NodeId lo = begin + 1, hi = n;
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo) / 2;
      if (prefix(mid) < full) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    shards.push_back({begin, lo});
    begin = lo;
  }
  return shards;
}

/// Sum of w(row, v) over the entries v of one row with keep(v), in row
/// order; adds the number of such entries to `count`. A self-loop entry
/// (v == self) counts twice, as in a record stream. Unit weights (`ws`
/// empty) count in an integer register: exact, and free of the FP add
/// latency chain.
template <typename KeepFn>
double PullRow(std::span<const NodeId> nbrs, std::span<const Weight> ws,
               NodeId self, const KeepFn& keep, EdgeId& count) {
  EdgeId kept = 0;
  if (ws.empty()) {
    for (NodeId v : nbrs) kept += EdgeId{keep(v)} << (v == self);
    count += kept;
    return static_cast<double>(kept);
  }
  double sum = 0.0;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const EdgeId times = EdgeId{keep(nbrs[i])} << (nbrs[i] == self);
    kept += times;
    sum += static_cast<double>(times) * ws[i];
  }
  count += kept;
  return sum;
}

/// Zeroes deg[u] for every member u of `set`: the rows a record pass adds
/// into. Every other row keeps its stale value.
void ZeroLiveRows(const NodeSet& set, std::vector<double>& deg) {
  ForEachMember(set, 0, set.universe_size(),
                [d = deg.data()](NodeId u) { d[u] = 0.0; });
}

/// Appends every edge of `g` with both endpoints in `alive` to `out`, in
/// the order a scan of the graph delivers them: row u, then its entries
/// v >= u in row order (a self-loop once).
void AppendLiveEdges(const UndirectedGraph& g, const NodeSet& alive,
                     std::vector<Edge>& out) {
  ForEachMember(alive, 0, alive.universe_size(), [&](NodeId u) {
    const std::span<const NodeId> nbrs = g.Neighbors(u);
    const std::span<const Weight> ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= u && alive.Contains(nbrs[i])) {
        out.push_back({u, nbrs[i], ws.empty() ? 1.0 : ws[i]});
      }
    }
  });
}

/// Peel logic of a bare one-pass drive (RunUndirected): one pass over a
/// fixed alive set, keeping its totals.
class UndirectedPass {
 public:
  explicit UndirectedPass(const NodeSet& alive) : alive_(alive) {}

  bool done() const { return done_; }
  const NodeSet& alive() const { return alive_; }
  void ApplyPass(const UndirectedPassResult& stats,
                 const std::vector<double>&) {
    stats_ = stats;
    done_ = true;
  }
  const UndirectedPassResult& stats() const { return stats_; }

 private:
  const NodeSet& alive_;
  UndirectedPassResult stats_;
  bool done_ = false;
};

/// Peel logic of a bare one-pass drive (RunDirected).
class DirectedPass {
 public:
  DirectedPass(const NodeSet& s, const NodeSet& t) : s_(s), t_(t) {}

  bool done() const { return done_; }
  const NodeSet& s() const { return s_; }
  const NodeSet& t() const { return t_; }
  /// The bare pass promises the caller both arrays.
  DirectedSides sides() const { return {}; }
  void ApplyPass(const DirectedPassResult& stats, const std::vector<double>&,
                 const std::vector<double>&) {
    stats_ = stats;
    done_ = true;
  }
  const DirectedPassResult& stats() const { return stats_; }

 private:
  const NodeSet& s_;
  const NodeSet& t_;
  DirectedPassResult stats_;
  bool done_ = false;
};

/// An undirected run (Algorithm 1 or 2, or a bare pass): peel logic plus
/// its degree accumulation on either schedule. Algorithm 1 also owns its
/// §6.3 compaction: its collect pass buffers the surviving edges, and that
/// pass's FinishPass runs every remaining pass over the buffer.
template <typename Logic>
class UndirectedRun final : public PassEngine::FusedRun {
  static constexpr bool kCompacts = std::is_same_v<Logic, Algorithm1Run>;
  // A bare pass (RunUndirected) writes into the caller's array, which
  // arrives zero-filled.
  static constexpr bool kBare = std::is_same_v<Logic, UndirectedPass>;

 public:
  /// A peeling run over n nodes; owns its degree array.
  template <typename Options>
  UndirectedRun(NodeId n, const Options& options)
      : logic_(n, options), own_(n), cancel_(options.cancel) {}
  /// A bare pass accumulating into the caller's `degrees`.
  UndirectedRun(const NodeSet& alive, std::vector<double>& degrees)
      : logic_(alive), deg_(&degrees) {}
  UndirectedRun(const UndirectedRun&) = delete;
  UndirectedRun& operator=(const UndirectedRun&) = delete;

  bool done() const override { return logic_.done(); }
  bool CanPull(const CsrView& view) const override {
    return view.undirected != nullptr;
  }
  void BeginPass(const CsrView* view) override {
    view_ = view;
    collect_ = nullptr;
    if (view != nullptr) {
      pull_.Begin(view->shards.size());
      return;
    }
    if constexpr (!kBare) ZeroLiveRows(logic_.alive(), *deg_);
    if constexpr (kCompacts) {
      if (logic_.mode() == Algorithm1Run::PassMode::kCollectPass) {
        collect_ = &logic_.buffer();
      }
    }
    totals_ = {};
  }
  void PullShard(const CsrView& view, size_t shard) override {
    pull_.Undirected(view, shard, logic_.alive(), degrees());
  }
  void AccumulateShard(std::span<const Edge> shard) override {
    const NodeSet& alive = logic_.alive();
    double* acc = deg_->data();
    // The running totals, carried in registers across the shard.
    double weight = totals_.weight;
    EdgeId edges = totals_.edges;
    for (const Edge& e : shard) {
      if (alive.ContainsBoth(e.u, e.v)) {
        acc[e.u] += e.w;
        acc[e.v] += e.w;
        weight += e.w;
        ++edges;
        if (collect_ != nullptr) collect_->push_back(e);
      }
    }
    totals_ = {edges, weight};
  }
  void FinishPass() override {
    logic_.ApplyPass(view_ != nullptr ? pull_.FinishUndirected() : totals_,
                     degrees());
    if constexpr (kCompacts) {
      // Only the collect pass ends in buffer mode: the run never returns
      // to the stream.
      if (logic_.mode() == Algorithm1Run::PassMode::kBuffer &&
          !logic_.done()) {
        RunBufferPasses();
      }
    }
  }
  Logic& logic() { return logic_; }

 private:
  std::vector<double>& degrees() { return *deg_; }

  /// §6.3: every pass after the collect pass, each a record pass over the
  /// buffer in buffer order, so it sums what the stream pass it replaces
  /// would. A record collect pass appended its survivors in stream order;
  /// a pulled one fills the buffer here from the surviving rows. Dead
  /// edges leave the buffer after every peel step. Polls cancel_ between
  /// rounds of kRoundShards * kShardEdges edges, on the calling thread
  /// (never a nested ParallelFor); a cancelled pass returns with the
  /// buffer as it was and the run not done.
  void RunBufferPasses() {
    constexpr size_t kRound =
        PassEngine::kRoundShards * PassEngine::kShardEdges;
    std::vector<Edge>& buffer = logic_.buffer();
    const NodeSet& alive = logic_.alive();
    if (view_ != nullptr) AppendLiveEdges(*view_->undirected, alive, buffer);
    while (!logic_.done()) {
      std::erase_if(buffer, [&alive](const Edge& e) {
        return !alive.ContainsBoth(e.u, e.v);
      });
      DENSEST_TRACE_SPAN("core.pass_undirected");
      DENSEST_METRIC_COUNTER("core.passes").Inc();
      BeginPass(nullptr);
      for (size_t start = 0; start < buffer.size(); start += kRound) {
        if (ShouldStop(cancel_)) return;
        DENSEST_TRACE_SPAN("core.pass_round");
        DENSEST_METRIC_COUNTER("core.pass_rounds").Inc();
        DENSEST_METRIC_COUNTER("core.pass_shards").Inc();
        AccumulateShard(std::span<const Edge>(buffer).subspan(
            start, std::min(kRound, buffer.size() - start)));
      }
      logic_.ApplyPass(totals_, degrees());
    }
  }

  Logic logic_;
  std::vector<double> own_;           // the degree array of a peeling run,
  std::vector<double>* deg_ = &own_;  // or the caller's, for a bare pass
  const CancelToken* cancel_ = nullptr;  // polled by buffer passes
  UndirectedPassResult totals_;       // record passes: stream-order sums
  RowPull pull_;
  const CsrView* view_ = nullptr;     // the view this pass pulls, if any
  std::vector<Edge>* collect_ = nullptr;  // set for a record collect pass
};

/// A directed run (Algorithm 3, or a bare pass): peel logic plus its two
/// degree arrays. Each pass fills only the arrays logic_.sides() names, so
/// a size-ratio run leaves the array it does not peel on unwritten.
template <typename Logic>
class DirectedRun final : public PassEngine::FusedRun {
  // A bare pass (RunDirected) writes into the caller's arrays, which
  // arrive zero-filled.
  static constexpr bool kBare = std::is_same_v<Logic, DirectedPass>;

 public:
  /// A peeling run over n nodes; owns its degree arrays.
  DirectedRun(NodeId n, const Algorithm3Options& options)
      : logic_(n, options), own_out_(n), own_in_(n) {}
  /// A bare pass accumulating into the caller's arrays.
  DirectedRun(const NodeSet& s, const NodeSet& t,
              std::vector<double>& out_to_t, std::vector<double>& in_from_s)
      : logic_(s, t), out_(&out_to_t), in_(&in_from_s) {}
  DirectedRun(const DirectedRun&) = delete;
  DirectedRun& operator=(const DirectedRun&) = delete;

  bool done() const override { return logic_.done(); }
  bool CanPull(const CsrView& view) const override {
    return view.directed != nullptr;
  }
  void BeginPass(const CsrView* view) override {
    pulled_ = view != nullptr;
    sides_ = logic_.sides();
    if (pulled_) {
      pull_.Begin(view->shards.size());
    } else {
      // Records add into the out-rows of S and the in-rows of T.
      if constexpr (!kBare) {
        if (sides_.out) ZeroLiveRows(logic_.s(), *out_);
        if (sides_.in) ZeroLiveRows(logic_.t(), *in_);
      }
      totals_ = {};
    }
  }
  void PullShard(const CsrView& view, size_t shard) override {
    pull_.Directed(view, shard, logic_.s(), logic_.t(), sides_, *out_, *in_);
  }
  void AccumulateShard(std::span<const Edge> shard) override {
    const NodeSet& s_set = logic_.s();
    const NodeSet& t_set = logic_.t();
    double* out_acc = sides_.out ? out_->data() : nullptr;
    double* in_acc = sides_.in ? in_->data() : nullptr;
    double weight = totals_.weight;
    EdgeId arcs = totals_.arcs;
    for (const Edge& e : shard) {
      if (s_set.Contains(e.u) && t_set.Contains(e.v)) {
        if (out_acc != nullptr) out_acc[e.u] += e.w;
        if (in_acc != nullptr) in_acc[e.v] += e.w;
        weight += e.w;
        ++arcs;
      }
    }
    totals_ = {arcs, weight};
  }
  void FinishPass() override {
    logic_.ApplyPass(pulled_ ? pull_.FinishDirected() : totals_, *out_, *in_);
  }
  Logic& logic() { return logic_; }

 private:
  Logic logic_;
  std::vector<double> own_out_, own_in_;  // a peeling run's arrays, or
  std::vector<double>* out_ = &own_out_;  // the caller's for a bare pass
  std::vector<double>* in_ = &own_in_;
  DirectedPassResult totals_;  // record passes: stream-order sums
  RowPull pull_;
  bool pulled_ = false;
  DirectedSides sides_;  // the arrays this pass fills
};

/// Stream passes a run consumed: its run-by-run scan cost.
uint64_t StreamPasses(const UndirectedDensestResult& r) { return r.io_passes; }
uint64_t StreamPasses(const DirectedDensestResult& r) { return r.passes; }

}  // namespace

CsrView CsrView::Of(const EdgeStream& stream) {
  CsrView view;
  if ((view.undirected = stream.UndirectedCsrView()) != nullptr) {
    const UndirectedGraph& g = *view.undirected;
    view.edges = g.num_edges();
    view.shards = ShardRows(g.num_nodes(), [offsets = g.offsets()](NodeId j) {
      return offsets[j];
    });
  } else if ((view.directed = stream.DirectedCsrView()) != nullptr) {
    const DirectedGraph& g = *view.directed;
    view.edges = g.num_edges();
    view.shards = ShardRows(g.num_nodes(), [out = g.out_offsets(),
                                            in = g.in_offsets()](NodeId j) {
      return out[j] + in[j];
    });
  }
  return view;
}

void RowPull::Begin(size_t shards) {
  weight_.assign(shards, 0.0);
  count_.assign(shards, 0);
}

void RowPull::Undirected(const CsrView& view, size_t shard,
                         const NodeSet& alive, std::vector<double>& degrees) {
  const UndirectedGraph& g = *view.undirected;
  const auto keep = [&alive](NodeId v) { return alive.Contains(v); };
  double weight = 0.0;
  EdgeId count = 0;
  const RowShard rows = view.shards[shard];
  ForEachMember(alive, rows.begin, rows.end, [&](NodeId u) {
    degrees[u] = PullRow(g.Neighbors(u), g.NeighborWeights(u), u, keep, count);
    weight += degrees[u];
  });
  weight_[shard] = weight;
  count_[shard] = count;
}

void RowPull::Directed(const CsrView& view, size_t shard, const NodeSet& s,
                       const NodeSet& t, DirectedSides sides,
                       std::vector<double>& out_to_t,
                       std::vector<double>& in_from_s) {
  const DirectedGraph& g = *view.directed;
  const auto in_s = [&s](NodeId v) { return s.Contains(v); };
  const auto in_t = [&t](NodeId v) { return t.Contains(v); };
  // An arc is one entry of each of its two rows, never a doubled self
  // entry: pass an owner id no neighbor carries.
  constexpr NodeId kNoSelf = static_cast<NodeId>(-1);
  // Every arc of E(S,T) is one out-entry and one in-entry, so either
  // side's rows sum the shard's totals; the out-rows do when pulled.
  double out_weight = 0.0, in_weight = 0.0;
  EdgeId out_count = 0, in_count = 0;
  const RowShard rows = view.shards[shard];
  if (sides.out) {
    ForEachMember(s, rows.begin, rows.end, [&](NodeId u) {
      out_to_t[u] = PullRow(g.OutNeighbors(u), g.OutNeighborWeights(u),
                            kNoSelf, in_t, out_count);
      out_weight += out_to_t[u];
    });
  }
  if (sides.in) {
    ForEachMember(t, rows.begin, rows.end, [&](NodeId u) {
      in_from_s[u] = PullRow(g.InNeighbors(u), g.InNeighborWeights(u),
                             kNoSelf, in_s, in_count);
      in_weight += in_from_s[u];
    });
  }
  weight_[shard] = sides.out ? out_weight : in_weight;
  count_[shard] = sides.out ? out_count : in_count;
}

UndirectedPassResult RowPull::FinishUndirected() const {
  double twice_weight = 0.0;
  EdgeId twice_edges = 0;
  for (size_t i = 0; i < weight_.size(); ++i) {
    twice_weight += weight_[i];
    twice_edges += count_[i];
  }
  UndirectedPassResult out;
  out.weight = twice_weight / 2.0;
  out.edges = twice_edges / 2;
  return out;
}

DirectedPassResult RowPull::FinishDirected() const {
  DirectedPassResult out;
  for (size_t i = 0; i < weight_.size(); ++i) {
    out.weight += weight_[i];
    out.arcs += count_[i];
  }
  return out;
}

PassEngine::PassEngine(const PassEngineOptions& options) {
  num_threads_ = options.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

PassEngine::~PassEngine() = default;

void PassEngine::EnsureBatchBuffer() {
  batch_.resize(kRoundShards * kShardEdges);
}

void PassEngine::Dispatch(size_t tasks,
                          const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr && tasks > 1) {
    pool_->ParallelFor(tasks, fn);
  } else {
    for (size_t i = 0; i < tasks; ++i) fn(i);
  }
}

void PassEngine::DispatchRound(size_t tasks, size_t runs,
                               const std::function<void(size_t)>& fn) {
  DENSEST_METRIC_COUNTER("core.pass_rounds").Inc();
  DENSEST_METRIC_COUNTER("core.pass_shards").Inc(tasks);
  if (runs > 1) {
    DENSEST_TRACE_SPAN("core.fused_round");
    DENSEST_METRIC_COUNTER("core.fused_rounds").Inc();
    Dispatch(tasks, fn);
  } else {
    DENSEST_TRACE_SPAN("core.pass_round");
    Dispatch(tasks, fn);
  }
}

void PassEngine::ScanRounds(PassCursor& cursor,
                            std::span<FusedRun* const> active,
                            const CancelToken* cancel) {
  EnsureBatchBuffer();
  std::array<std::span<const Edge>, kRoundShards> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    // Pulled through the cursor so physical-scan accounting stays in one
    // place.
    size_t count = 0;
    while (count < kRoundShards) {
      std::span<const Edge> view =
          cursor.NextChunk(batch_.data() + count * kShardEdges, kShardEdges);
      if (view.empty()) break;
      shards[count++] = view;
    }
    if (count == 0) break;
    // One task per run, walking the round's shards in stream order into
    // the run's own arrays: threads share nothing mutable, and a solo run
    // never leaves the caller (Dispatch of one task runs inline).
    DispatchRound(active.size(), active.size(), [&](size_t i) {
      for (size_t s = 0; s < count; ++s) active[i]->AccumulateShard(shards[s]);
    });
    if (count < kRoundShards) break;
  }
}

Status PassEngine::Drive(EdgeStream& stream, std::span<FusedRun* const> runs,
                         const CancelToken* cancel) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  PassCursor cursor(stream);
  auto finish = [&](Status status) {
    last_physical_passes_ = cursor.passes();
    last_edges_scanned_ = cursor.edges_scanned();
    return status;
  };

  // Pull rows when the stream has a CSR view every run can take.
  CsrView view = CsrView::Of(stream);
  for (FusedRun* run : runs) {
    if (!run->CanPull(view)) {
      view = CsrView{};
      break;
    }
  }
  const CsrView* pulled =
      view.undirected != nullptr || view.directed != nullptr ? &view
                                                             : nullptr;

  const auto finished = [](const FusedRun* run) { return run->done(); };
  std::vector<FusedRun*> active(runs.begin(), runs.end());
  std::erase_if(active, finished);
  while (!active.empty()) {
    DENSEST_METRIC_COUNTER("core.passes").Inc();
    for (FusedRun* run : active) run->BeginPass(pulled);
    cursor.BeginPass();
    if (pulled == nullptr) {
      ScanRounds(cursor, active, cancel);
    } else if (!ShouldStop(cancel)) {
      // One shard-major round: each task pulls its row shard into every
      // active run.
      DispatchRound(view.shards.size(), active.size(), [&](size_t i) {
        if (ShouldStop(cancel)) return;
        for (FusedRun* run : active) run->PullShard(view, i);
      });
      cursor.CountViewPass(view.edges);
    }
    // A failing stream ends the pass early and silently, and a cancelled
    // pass is cut short: either way the accumulated statistics describe a
    // truncated edge set. Abort before peeling on them — partial results
    // are worse than no results. The pool is already drained (Dispatch
    // returns only after every task finished), so no thread is left
    // running against freed state.
    Status status = stream.status();
    if (status.ok()) status = CheckCancel(cancel);
    if (!status.ok()) return finish(status);
    // Combine + peel, one task per run: only run-private state mutates.
    // A run that takes passes of its own there polls the token and stops
    // short of done when it trips.
    Dispatch(active.size(), [&](size_t i) { active[i]->FinishPass(); });
    if (Status c = CheckCancel(cancel); !c.ok()) return finish(c);
    std::erase_if(active, finished);
  }
  return finish(Status::OK());
}

template <typename RunT, typename ResultT, typename OptionsT,
          typename CheckFn>
StatusOr<std::vector<ResultT>> PassEngine::RunFused(
    EdgeStream& stream, const std::vector<OptionsT>& runs,
    const CheckFn& check) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  if (runs.empty()) return std::vector<ResultT>{};
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const OptionsT& options : runs) {
    if (Status s = CheckEpsilon(options.epsilon); !s.ok()) return s;
    if (Status s = check(options, n); !s.ok()) return s;
  }

  // One token governs the shared scan: the first non-null per-run token.
  // The scan is physically shared, so one run cannot be cancelled without
  // stopping the whole sweep; every run polls that token too.
  const CancelToken* cancel = nullptr;
  for (const OptionsT& options : runs) {
    if (cancel == nullptr) cancel = options.cancel;
  }
  std::deque<RunT> states;  // stable addresses: runs are not movable
  std::vector<FusedRun*> fused;
  fused.reserve(runs.size());
  for (OptionsT options : runs) {
    options.cancel = cancel;
    fused.push_back(&states.emplace_back(n, options));
  }
  if (Status s = Drive(stream, fused, cancel); !s.ok()) return s;

  std::vector<ResultT> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (RunT& run : states) {
    results.push_back(run.logic().TakeResult());
    logical += StreamPasses(results.back());
  }
  RecordLogicalPasses(logical);
  return results;
}

StatusOr<std::vector<DirectedDensestResult>> PassEngine::RunDirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm3Options>& runs) {
  return RunFused<DirectedRun<Algorithm3Run>, DirectedDensestResult>(
      stream, runs, [](const Algorithm3Options& options, NodeId) {
        return std::isfinite(options.c) && options.c > 0
                   ? Status::OK()
                   : Status::InvalidArgument("c must be finite and > 0");
      });
}

StatusOr<std::vector<UndirectedDensestResult>> PassEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm1Options>& runs) {
  return RunFused<UndirectedRun<Algorithm1Run>, UndirectedDensestResult>(
      stream, runs,
      [](const Algorithm1Options&, NodeId) { return Status::OK(); });
}

StatusOr<std::vector<UndirectedDensestResult>> PassEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm2Options>& runs) {
  return RunFused<UndirectedRun<Algorithm2Run>, UndirectedDensestResult>(
      stream, runs, [](const Algorithm2Options& options, NodeId n) {
        return options.min_size <= n
                   ? Status::OK()
                   : Status::InvalidArgument("min_size exceeds the node count");
      });
}

UndirectedPassResult PassEngine::RunUndirected(EdgeStream& stream,
                                               const NodeSet& alive,
                                               std::vector<double>& degrees,
                                               const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_undirected");
  // A pass writes alive rows only; the caller is promised every row.
  std::fill(degrees.begin(), degrees.end(), 0.0);
  UndirectedRun<UndirectedPass> run(alive, degrees);
  FusedRun* runs[] = {&run};
  // A failed pass leaves zero stats; the caller checks the stream status
  // and the token itself.
  (void)Drive(stream, runs, cancel);
  return run.logic().stats();
}

DirectedPassResult PassEngine::RunDirected(EdgeStream& stream,
                                           const NodeSet& s_set,
                                           const NodeSet& t_set,
                                           std::vector<double>& out_to_t,
                                           std::vector<double>& in_from_s,
                                           const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_directed");
  std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
  std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
  DirectedRun<DirectedPass> run(s_set, t_set, out_to_t, in_from_s);
  FusedRun* runs[] = {&run};
  (void)Drive(stream, runs, cancel);
  return run.logic().stats();
}

PassEngine& DefaultPassEngine() {
  // Leaked singleton: worker threads must not be joined during static
  // destruction, where other statics they might touch are already gone.
  // lint:allow(naked-new) — leaked singleton
  static PassEngine* engine = new PassEngine(PassEngineOptions{});
  return *engine;
}

}  // namespace densest
