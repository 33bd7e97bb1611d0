#include "core/multi_run.h"

#include <algorithm>
#include <array>
#include <limits>
#include <thread>
#include <type_traits>

#include "core/peel_runs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/pass_cursor.h"

namespace densest {

namespace {

constexpr size_t kSlots = MultiRunEngine::kShardSlots;
/// Sentinel shard index: the task walks the whole round sequentially.
constexpr uint32_t kWholeRound = std::numeric_limits<uint32_t>::max();

/// One degree plane of a fused run. Pulled passes write `values` directly.
/// Record rounds accumulate either into `values` too (direct mode:
/// unit-weight streams driven run-major — integer-exact sums make every
/// accumulation order the same bits) or into PassEngine's slot vectors,
/// reduced in index order and allocated by the first record pass. In
/// direct mode every slot aliases `values`, so the accumulation loop is
/// identical either way — but aliased slots must never be written
/// concurrently, which is what parallel_shards() guards.
struct AccumPlane {
  std::vector<double> values;              // the reduced per-node result
  std::vector<std::vector<double>> slots;  // empty in direct mode
  bool direct = true;

  void Init(size_t n, bool direct_mode) {
    values.assign(n, 0.0);
    direct = direct_mode;
  }
  void BeginRecordPass() {
    if (direct) {
      std::fill(values.begin(), values.end(), 0.0);
    } else if (slots.empty()) {
      // Slot vectors are zero by invariant afterwards (Reduce re-zeroes).
      slots.assign(kSlots, std::vector<double>(values.size(), 0.0));
    }
  }
  double* Slot(size_t s) { return direct ? values.data() : slots[s].data(); }
  // Mirrors PassEngine::ReduceAndClear: slots summed in index order per
  // node, re-zeroed for the next pass. Keep the two in sync — the summation
  // order is part of the fused/sequential bit-identity contract.
  void Reduce() {
    if (direct) return;
    const size_t n = values.size();
    for (size_t u = 0; u < n; ++u) {
      double total = 0.0;
      for (std::vector<double>& slot : slots) {
        total += slot[u];
        slot[u] = 0.0;
      }
      values[u] = total;
    }
  }
};

/// Per-slot weight/count totals of record rounds, mirroring PassEngine's
/// slot_weight_ / slot_edges_ (summed in slot order at end of pass).
/// Distinct shards write distinct slots, so work-major tasks never share
/// an entry.
struct SlotTotals {
  std::array<double, kSlots> weight{};
  std::array<EdgeId, kSlots> count{};

  void BeginPass() {
    weight.fill(0.0);
    count.fill(0);
  }
  double TotalWeight() const {
    double w = 0.0;
    for (double s : weight) w += s;
    return w;
  }
  EdgeId TotalCount() const {
    EdgeId c = 0;
    for (EdgeId s : count) c += s;
    return c;
  }
};

/// Fused Algorithm 1 or 2 run: peel logic plus its private degree
/// accumulation on either schedule. Algorithm 1 honors §6.3 compaction: in
/// kCollectPass mode the pass also collects survivors in stream order —
/// directly in record rounds, which then stay sequential within the round,
/// or shard by shard through the pull's finish — after which the run
/// finishes over its buffer via FinishOffStream, costing no further
/// physical scans.
template <typename Logic>
class FusedUndirectedRun final : public MultiRunEngine::FusedRun {
  static constexpr bool kCompacts = std::is_same_v<Logic, Algorithm1Run>;

 public:
  template <typename Options>
  FusedUndirectedRun(NodeId n, const Options& options, bool direct)
      : logic_(n, options), cancel_(options.cancel) {
    deg_.Init(n, direct);
  }

  bool done() const override { return logic_.done(); }
  bool wants_stream() const override {
    if constexpr (kCompacts) {
      return !done() && logic_.mode() != Algorithm1Run::PassMode::kBuffer;
    }
    return !done();
  }
  bool CanPull(const CsrView& view) const override {
    return view.undirected != nullptr;
  }
  void BeginPass(const CsrView* view) override {
    pulled_ = view != nullptr;
    collect_ = nullptr;
    if constexpr (kCompacts) {
      if (logic_.mode() == Algorithm1Run::PassMode::kCollectPass) {
        collect_ = &logic_.buffer();
      }
    }
    if (pulled_) {
      pull_.Begin(view->shards.size(), collect_ != nullptr);
    } else {
      deg_.BeginRecordPass();
      totals_.BeginPass();
    }
  }
  void PullShard(const CsrView& view, size_t shard) override {
    pull_.Undirected(view, shard, logic_.alive(), deg_.values);
  }
  bool parallel_shards() const override {
    return !deg_.direct && collect_ == nullptr;
  }
  void AccumulateShard(std::span<const Edge> shard, size_t slot) override {
    const NodeSet& alive = logic_.alive();
    double* acc = deg_.Slot(slot);
    double weight = 0.0;
    EdgeId edges = 0;
    for (const Edge& e : shard) {
      if (alive.ContainsBoth(e.u, e.v)) {
        acc[e.u] += e.w;
        acc[e.v] += e.w;
        weight += e.w;
        ++edges;
        if (collect_ != nullptr) collect_->push_back(e);
      }
    }
    totals_.weight[slot] += weight;
    totals_.count[slot] += edges;
  }
  void FinishPass() override {
    UndirectedPassResult stats;
    if (pulled_) {
      stats = pull_.FinishUndirected(collect_);
    } else {
      deg_.Reduce();
      stats.weight = totals_.TotalWeight();
      stats.edges = totals_.TotalCount();
    }
    logic_.ApplyPass(stats, deg_.values);
  }
  void FinishOffStream(PassEngine& engine) override {
    if constexpr (kCompacts) {
      while (!logic_.done()) {
        // A cancelled run stops peeling mid-buffer; Drive's own poll then
        // aborts the sweep before any partial result escapes.
        if (ShouldStop(cancel_)) break;
        UndirectedPassResult stats = engine.RunUndirectedBuffer(
            logic_.buffer(), logic_.alive(), deg_.values, /*compact=*/true,
            cancel_);
        if (ShouldStop(cancel_)) break;
        logic_.ApplyPass(stats, deg_.values);
      }
    }
  }
  UndirectedDensestResult TakeResult() { return logic_.TakeResult(); }

 private:
  Logic logic_;
  const CancelToken* cancel_;
  AccumPlane deg_;
  SlotTotals totals_;
  RowPull pull_;
  bool pulled_ = false;
  std::vector<Edge>* collect_ = nullptr;  // set for the collect pass
};

/// Fused Algorithm 3 run: peel logic + its private accumulators.
class FusedDirectedRun final : public MultiRunEngine::FusedRun {
 public:
  FusedDirectedRun(NodeId n, const Algorithm3Options& options, bool direct)
      : logic_(n, options) {
    out_.Init(n, direct);
    in_.Init(n, direct);
  }

  bool done() const override { return logic_.done(); }
  bool CanPull(const CsrView& view) const override {
    return view.directed != nullptr;
  }
  void BeginPass(const CsrView* view) override {
    pulled_ = view != nullptr;
    if (pulled_) {
      pull_.Begin(view->shards.size());
    } else {
      out_.BeginRecordPass();
      in_.BeginRecordPass();
      totals_.BeginPass();
    }
  }
  void PullShard(const CsrView& view, size_t shard) override {
    pull_.Directed(view, shard, logic_.s(), logic_.t(), out_.values,
                   in_.values);
  }
  bool parallel_shards() const override { return !out_.direct; }
  void AccumulateShard(std::span<const Edge> shard, size_t slot) override {
    const NodeSet& s_set = logic_.s();
    const NodeSet& t_set = logic_.t();
    double* out_acc = out_.Slot(slot);
    double* in_acc = in_.Slot(slot);
    double weight = 0.0;
    EdgeId arcs = 0;
    for (const Edge& e : shard) {
      if (s_set.Contains(e.u) && t_set.Contains(e.v)) {
        out_acc[e.u] += e.w;
        in_acc[e.v] += e.w;
        weight += e.w;
        ++arcs;
      }
    }
    totals_.weight[slot] += weight;
    totals_.count[slot] += arcs;
  }
  void FinishPass() override {
    DirectedPassResult stats;
    if (pulled_) {
      stats = pull_.FinishDirected();
    } else {
      out_.Reduce();
      in_.Reduce();
      stats.weight = totals_.TotalWeight();
      stats.arcs = totals_.TotalCount();
    }
    logic_.ApplyPass(stats, out_.values, in_.values);
  }
  DirectedDensestResult TakeResult() { return logic_.TakeResult(); }

 private:
  Algorithm3Run logic_;
  AccumPlane out_, in_;
  SlotTotals totals_;
  RowPull pull_;
  bool pulled_ = false;
};

/// Stream passes a run consumed: its run-by-run scan cost.
uint64_t StreamPasses(const UndirectedDensestResult& r) { return r.io_passes; }
uint64_t StreamPasses(const DirectedDensestResult& r) { return r.passes; }

}  // namespace

MultiRunEngine::MultiRunEngine(const MultiRunOptions& options) {
  num_threads_ = options.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

MultiRunEngine::~MultiRunEngine() = default;

void MultiRunEngine::Dispatch(size_t count,
                              const std::function<void(size_t)>& fn) {
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

void MultiRunEngine::ScanRounds(PassCursor& cursor,
                                std::span<FusedRun* const> active,
                                const CancelToken* cancel) {
  batch_.resize(kShardSlots * kShardEdges);
  std::array<std::span<const Edge>, kShardSlots> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    // PassEngine's own shard-boundary schedule, pulled through the cursor
    // so physical-scan accounting stays in one place.
    const size_t count = PassEngine::FillShardRound(
        [&cursor](Edge* scratch, size_t cap) {
          return cursor.NextChunk(scratch, cap);
        },
        batch_.data(), shards);
    if (count == 0) break;
    DENSEST_TRACE_SPAN("core.fused_round");
    DENSEST_METRIC_COUNTER("core.fused_rounds").Inc();
    if (pool_ != nullptr && active.size() < num_threads_) {
      // Work-major fan-out: each (run, shard) pair is a task — shard s
      // feeds slot s, so same-run tasks write disjoint slot planes. Runs
      // whose round must stay sequential become one whole-round task.
      task_scratch_.clear();
      for (size_t i = 0; i < active.size(); ++i) {
        if (active[i]->parallel_shards()) {
          for (size_t s = 0; s < count; ++s) {
            task_scratch_.emplace_back(static_cast<uint32_t>(i),
                                       static_cast<uint32_t>(s));
          }
        } else {
          task_scratch_.emplace_back(static_cast<uint32_t>(i), kWholeRound);
        }
      }
      Dispatch(task_scratch_.size(), [&](size_t t) {
        const auto [i, s] = task_scratch_[t];
        if (s == kWholeRound) {
          for (size_t k = 0; k < count; ++k) {
            active[i]->AccumulateShard(shards[k], k);
          }
        } else {
          active[i]->AccumulateShard(shards[s], s);
        }
      });
    } else {
      // Run-major fan-out: each task owns one run's accumulators and walks
      // the round's shards in order, so threads share nothing mutable.
      Dispatch(active.size(), [&](size_t i) {
        for (size_t s = 0; s < count; ++s) {
          active[i]->AccumulateShard(shards[s], s);
        }
      });
    }
    if (count < kShardSlots) break;
  }
}

Status MultiRunEngine::Drive(EdgeStream& stream,
                             std::span<FusedRun* const> runs,
                             const CancelToken* cancel) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  PassCursor cursor(stream);

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

  std::vector<FusedRun*> active;
  active.reserve(runs.size());
  auto refresh_active = [&] {
    active.clear();
    for (FusedRun* run : runs) {
      if (run->done()) continue;
      if (!run->wants_stream()) {
        // The run no longer needs the stream (Algorithm 1 compaction):
        // finish it over its private buffer, off the shared scan.
        if (buffer_engine_ == nullptr) {
          buffer_engine_ = std::make_unique<PassEngine>(
              PassEngineOptions{.num_threads = 1});
        }
        run->FinishOffStream(*buffer_engine_);
        continue;
      }
      active.push_back(run);
    }
  };
  refresh_active();

  while (!active.empty()) {
    for (FusedRun* run : active) run->BeginPass(pulled);
    cursor.BeginPass();
    if (pulled == nullptr) {
      ScanRounds(cursor, active, cancel);
    } else if (!ShouldStop(cancel)) {
      // One shard-major round: each task pulls its row shard into every
      // active run.
      DENSEST_TRACE_SPAN("core.fused_round");
      DENSEST_METRIC_COUNTER("core.fused_rounds").Inc();
      Dispatch(view.shards.size(), [&](size_t i) {
        if (ShouldStop(cancel)) return;
        for (FusedRun* run : active) run->PullShard(view, i);
      });
      cursor.CountViewPass(view.edges);
    }
    // A failing stream ends the pass early and silently; the accumulated
    // statistics describe a truncated edge set. Abort before peeling on
    // them — partial sweep results are worse than no results.
    if (Status io = stream.status(); !io.ok()) {
      last_physical_passes_ = cursor.passes();
      last_edges_scanned_ = cursor.edges_scanned();
      return io;
    }
    // A cancelled pass is abandoned exactly like a failing stream: the
    // accumulated statistics describe a truncated edge set, so abort
    // before peeling on them. The pool is already drained (Dispatch
    // returns only after every shard task finished), so no thread is left
    // running against freed state.
    if (Status c = CheckCancel(cancel); !c.ok()) {
      last_physical_passes_ = cursor.passes();
      last_edges_scanned_ = cursor.edges_scanned();
      return c;
    }
    // Combine + peel, run-major: only run-private state mutates.
    Dispatch(active.size(), [&](size_t i) { active[i]->FinishPass(); });
    refresh_active();
  }

  last_physical_passes_ = cursor.passes();
  last_edges_scanned_ = cursor.edges_scanned();
  return Status::OK();
}

template <typename RunT, typename ResultT, typename OptionsT,
          typename CheckFn>
StatusOr<std::vector<ResultT>> MultiRunEngine::RunFused(
    EdgeStream& stream, const std::vector<OptionsT>& runs,
    const CheckFn& check) {
  last_physical_passes_ = last_logical_passes_ = last_edges_scanned_ = 0;
  if (runs.empty()) return std::vector<ResultT>{};
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const OptionsT& options : runs) {
    if (options.epsilon < 0) {
      return Status::InvalidArgument("epsilon must be >= 0");
    }
    if (Status s = check(options, n); !s.ok()) return s;
  }

  const bool direct = UseDirectPlanes(stream, runs.size());
  std::vector<RunT> states;
  states.reserve(runs.size());
  for (const OptionsT& options : runs) states.emplace_back(n, options, direct);
  std::vector<FusedRun*> fused;
  for (RunT& run : states) fused.push_back(&run);
  // One token governs the shared scan: the first non-null per-run token.
  // The scan is physically shared, so one run cannot be cancelled without
  // stopping the whole sweep; sweep builders set one token on every run.
  const CancelToken* cancel = nullptr;
  for (const OptionsT& options : runs) {
    if (cancel == nullptr) cancel = options.cancel;
  }
  if (Status s = Drive(stream, fused, cancel); !s.ok()) return s;

  std::vector<ResultT> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (RunT& run : states) {
    results.push_back(run.TakeResult());
    logical += StreamPasses(results.back());
  }
  RecordLogicalPasses(logical);
  return results;
}

StatusOr<std::vector<DirectedDensestResult>> MultiRunEngine::RunDirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm3Options>& runs) {
  return RunFused<FusedDirectedRun, DirectedDensestResult>(
      stream, runs, [](const Algorithm3Options& options, NodeId) {
        return options.c > 0 ? Status::OK()
                             : Status::InvalidArgument("c must be > 0");
      });
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm1Options>& runs) {
  return RunFused<FusedUndirectedRun<Algorithm1Run>, UndirectedDensestResult>(
      stream, runs, [](const Algorithm1Options&, NodeId) { return Status::OK(); });
}

StatusOr<std::vector<UndirectedDensestResult>> MultiRunEngine::RunUndirectedRuns(
    EdgeStream& stream, const std::vector<Algorithm2Options>& runs) {
  return RunFused<FusedUndirectedRun<Algorithm2Run>, UndirectedDensestResult>(
      stream, runs, [](const Algorithm2Options& options, NodeId n) {
        return options.min_size <= n
                   ? Status::OK()
                   : Status::InvalidArgument("min_size exceeds the node count");
      });
}

StatusOr<UndirectedDensestResult> MultiRunEngine::RecomputeUndirected(
    EdgeStream& stream, const Algorithm1Options& options) {
  StatusOr<std::vector<UndirectedDensestResult>> results =
      RunUndirectedRuns(stream, std::vector<Algorithm1Options>{options});
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, MultiRunEngine* engine) {
  std::vector<Algorithm1Options> runs;
  runs.reserve(epsilons.size());
  for (double eps : epsilons) {
    Algorithm1Options options = base;
    options.epsilon = eps;
    runs.push_back(options);
  }
  if (engine != nullptr) return engine->RunUndirectedRuns(stream, runs);
  MultiRunEngine local{MultiRunOptions{}};
  return local.RunUndirectedRuns(stream, runs);
}

}  // namespace densest
