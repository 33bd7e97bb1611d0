#include "core/pass_engine.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

namespace {

/// Splits [0, n) into row ranges of roughly `entries_per_shard` adjacency
/// entries each (rows are never split). Depends only on the graph shape,
/// so shard boundaries are identical for every thread count.
template <typename DegreeFn>
std::vector<RowShard> ShardRows(NodeId n, const DegreeFn& degree,
                                size_t entries_per_shard) {
  std::vector<RowShard> shards;
  RowShard cur;
  size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    entries += degree(u);
    if (entries >= entries_per_shard) {
      cur.end = u + 1;
      shards.push_back(cur);
      cur.begin = u + 1;
      entries = 0;
    }
  }
  cur.end = n;
  if (cur.end > cur.begin) shards.push_back(cur);
  return shards;
}

constexpr size_t kRowShardEntries = 2 * PassEngine::kShardEdges;

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

}  // namespace

CsrView CsrView::Of(const EdgeStream& stream) {
  CsrView view;
  if ((view.undirected = stream.UndirectedCsrView()) != nullptr) {
    const UndirectedGraph& g = *view.undirected;
    view.edges = g.num_edges();
    view.shards = ShardRows(
        g.num_nodes(), [&g](NodeId u) { return g.Degree(u); },
        kRowShardEntries);
  } else if ((view.directed = stream.DirectedCsrView()) != nullptr) {
    const DirectedGraph& g = *view.directed;
    view.edges = g.num_edges();
    view.shards = ShardRows(
        g.num_nodes(),
        [&g](NodeId u) { return g.OutDegree(u) + g.InDegree(u); },
        kRowShardEntries);
  }
  return view;
}

void RowPull::Begin(size_t shards, bool collect) {
  weight_.assign(shards, 0.0);
  count_.assign(shards, 0);
  survivors_.resize(collect ? shards : 0);
  for (std::vector<Edge>& run : survivors_) run.clear();
}

void RowPull::Undirected(const CsrView& view, size_t shard,
                         const NodeSet& alive, std::vector<double>& degrees) {
  const UndirectedGraph& g = *view.undirected;
  const auto keep = [&alive](NodeId v) { return alive.Contains(v); };
  std::vector<Edge>* survivors =
      survivors_.empty() ? nullptr : &survivors_[shard];
  for (NodeId u = view.shards[shard].begin; u < view.shards[shard].end; ++u) {
    if (!alive.Contains(u)) {
      degrees[u] = 0.0;
      continue;
    }
    const std::span<const NodeId> nbrs = g.Neighbors(u);
    const std::span<const Weight> ws = g.NeighborWeights(u);
    degrees[u] = PullRow(nbrs, ws, u, keep, count_[shard]);
    weight_[shard] += degrees[u];
    if (survivors == nullptr) continue;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= u && alive.Contains(nbrs[i])) {
        survivors->push_back({u, nbrs[i], ws.empty() ? 1.0 : ws[i]});
      }
    }
  }
}

void RowPull::Directed(const CsrView& view, size_t shard, const NodeSet& s,
                       const NodeSet& t, std::vector<double>& out_to_t,
                       std::vector<double>& in_from_s) {
  const DirectedGraph& g = *view.directed;
  const auto in_s = [&s](NodeId v) { return s.Contains(v); };
  const auto in_t = [&t](NodeId v) { return t.Contains(v); };
  // An arc is one entry of each of its two rows, never a doubled self
  // entry: pass an owner id no neighbor carries.
  constexpr NodeId kNoSelf = static_cast<NodeId>(-1);
  EdgeId in_count = 0;  // equals the out-side arc count; not reported
  for (NodeId u = view.shards[shard].begin; u < view.shards[shard].end; ++u) {
    out_to_t[u] = s.Contains(u) ? PullRow(g.OutNeighbors(u),
                                          g.OutNeighborWeights(u), kNoSelf,
                                          in_t, count_[shard])
                                : 0.0;
    weight_[shard] += out_to_t[u];
    in_from_s[u] = t.Contains(u) ? PullRow(g.InNeighbors(u),
                                           g.InNeighborWeights(u), kNoSelf,
                                           in_s, in_count)
                                 : 0.0;
  }
}

UndirectedPassResult RowPull::FinishUndirected(std::vector<Edge>* survivors) {
  double twice_weight = 0.0;
  EdgeId twice_edges = 0;
  for (size_t i = 0; i < weight_.size(); ++i) {
    twice_weight += weight_[i];
    twice_edges += count_[i];
  }
  if (survivors != nullptr) {
    for (const std::vector<Edge>& run : survivors_) {
      survivors->insert(survivors->end(), run.begin(), run.end());
    }
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
  slot_weight_.fill(0.0);
  slot_edges_.fill(0);
}

PassEngine::~PassEngine() = default;

void PassEngine::EnsureBatchBuffer() {
  batch_.resize(kShardSlots * kShardEdges);
}

void PassEngine::EnsureAccumulators(size_t n, size_t planes) {
  acc_.resize(planes * kShardSlots);
  for (std::vector<double>& slot : acc_) {
    // Slots are zero here by invariant: fresh allocations start zeroed and
    // ReduceAndClear re-zeroes after every pass. A size change re-zeroes.
    if (slot.size() != n) slot.assign(n, 0.0);
  }
  slot_weight_.fill(0.0);
  slot_edges_.fill(0);
}

size_t PassEngine::FillShards(
    EdgeStream& stream, std::array<std::span<const Edge>, kShardSlots>& shards) {
  return FillShardRound(
      [&stream](Edge* scratch, size_t cap) {
        return stream.NextView(scratch, cap);
      },
      batch_.data(), shards);
}

void PassEngine::DispatchRound(size_t shards,
                               const std::function<void(size_t)>& fn) {
  // The central fan-out seam: every sharded pass kernel funnels its rounds
  // here, so round/shard tallies and the round span cover all of them.
  DENSEST_TRACE_SPAN("core.pass_round");
  DENSEST_METRIC_COUNTER("core.pass_rounds").Inc();
  DENSEST_METRIC_COUNTER("core.pass_shards").Inc(shards);
  if (pool_ != nullptr && shards > 1) {
    pool_->ParallelFor(shards, fn);
  } else {
    for (size_t i = 0; i < shards; ++i) fn(i);
  }
}

void PassEngine::ReduceAndClear(size_t plane, std::vector<double>& degrees) {
  const size_t n = degrees.size();
  std::vector<double>* slots = acc_.data() + plane * kShardSlots;
  for (size_t u = 0; u < n; ++u) {
    double total = 0.0;
    for (size_t s = 0; s < kShardSlots; ++s) {
      total += slots[s][u];
      slots[s][u] = 0.0;
    }
    degrees[u] = total;
  }
}

UndirectedPassResult PassEngine::RunUndirected(EdgeStream& stream,
                                               const NodeSet& alive,
                                               std::vector<double>& degrees,
                                               const CancelToken* cancel) {
  return RunUndirectedImpl(stream, alive, degrees, nullptr, cancel);
}

UndirectedPassResult PassEngine::RunUndirectedCollect(
    EdgeStream& stream, const NodeSet& alive, std::vector<double>& degrees,
    std::vector<Edge>* survivors, const CancelToken* cancel) {
  return RunUndirectedImpl(stream, alive, degrees, survivors, cancel);
}

UndirectedPassResult PassEngine::RunUndirectedImpl(
    EdgeStream& stream, const NodeSet& alive, std::vector<double>& degrees,
    std::vector<Edge>* survivors, const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_undirected");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  stream.Reset();  // keeps pass accounting uniform across the schedules
  if (const CsrView view = CsrView::Of(stream); view.undirected != nullptr) {
    pull_.Begin(view.shards.size(), survivors != nullptr);
    DispatchRound(view.shards.size(), [&](size_t i) {
      if (!ShouldStop(cancel)) pull_.Undirected(view, i, alive, degrees);
    });
    return pull_.FinishUndirected(survivors);
  }
  EnsureBatchBuffer();

  if (UseDirectPath(stream)) {
    // Unit weights, sequential: accumulate straight into `degrees`. Exact
    // integer-valued sums make this bit-identical to any slotted schedule.
    std::fill(degrees.begin(), degrees.end(), 0.0);
    UndirectedPassResult out;
    double weight = 0.0;
    for (;;) {
      if (ShouldStop(cancel)) break;
      std::span<const Edge> view =
          stream.NextView(batch_.data(), batch_.size());
      if (view.empty()) break;
      if (survivors != nullptr) {
        for (const Edge& e : view) {
          if (alive.ContainsBoth(e.u, e.v)) {
            degrees[e.u] += 1.0;
            degrees[e.v] += 1.0;
            weight += 1.0;
            survivors->push_back(e);
          }
        }
      } else {
        // Branchless: dead edges add 0.0 (a no-op on the degree values),
        // so the loop carries no unpredictable branch.
        for (const Edge& e : view) {
          const double keep = alive.ContainsBoth(e.u, e.v) ? 1.0 : 0.0;
          degrees[e.u] += keep;
          degrees[e.v] += keep;
          weight += keep;
        }
      }
    }
    out.weight = weight;
    out.edges = static_cast<EdgeId>(weight);  // unit weights: count == sum
    return out;
  }

  EnsureAccumulators(degrees.size(), /*planes=*/1);
  std::array<std::span<const Edge>, kShardSlots> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    const size_t count = FillShards(stream, shards);
    if (count == 0) break;
    DispatchRound(count, [&](size_t s) {
      std::vector<double>& acc = acc_[s];
      std::vector<Edge>* out =
          survivors != nullptr ? &slot_survivors_[s] : nullptr;
      if (out != nullptr) out->clear();
      double weight = 0.0;
      EdgeId edges = 0;
      for (const Edge& e : shards[s]) {
        if (alive.ContainsBoth(e.u, e.v)) {
          acc[e.u] += e.w;
          acc[e.v] += e.w;
          weight += e.w;
          ++edges;
          if (out != nullptr) out->push_back(e);
        }
      }
      slot_weight_[s] += weight;
      slot_edges_[s] += edges;
    });
    if (survivors != nullptr) {
      // Slot order == stream order: survivors stay in stream order.
      for (size_t s = 0; s < count; ++s) {
        survivors->insert(survivors->end(), slot_survivors_[s].begin(),
                          slot_survivors_[s].end());
      }
    }
    if (count < kShardSlots) break;
  }

  UndirectedPassResult out;
  for (size_t s = 0; s < kShardSlots; ++s) {
    out.weight += slot_weight_[s];
    out.edges += slot_edges_[s];
  }
  ReduceAndClear(/*plane=*/0, degrees);
  return out;
}

UndirectedPassResult PassEngine::RunUndirectedBuffer(
    std::vector<Edge>& edges, const NodeSet& alive,
    std::vector<double>& degrees, bool compact, const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_undirected");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  EnsureAccumulators(degrees.size(), /*planes=*/1);
  const size_t total = edges.size();
  const size_t round_cap = kShardSlots * kShardEdges;
  size_t write = 0;
  std::array<size_t, kShardSlots> kept{};
  for (size_t start = 0; start < total; start += round_cap) {
    if (ShouldStop(cancel)) {
      // A compacting pass abandoned mid-buffer must not drop the rounds it
      // never scanned: keep the unscanned tail verbatim so the buffer stays
      // a superset of the surviving edges (the caller discards the pass).
      if (compact && write < start) {
        std::memmove(edges.data() + write, edges.data() + start,
                     (total - start) * sizeof(Edge));
      }
      if (compact) write += total - start;
      break;
    }
    const size_t round_edges = std::min(round_cap, total - start);
    const size_t shards = (round_edges + kShardEdges - 1) / kShardEdges;
    DispatchRound(shards, [&](size_t s) {
      Edge* base = edges.data() + start + s * kShardEdges;
      const size_t count = std::min(kShardEdges, round_edges - s * kShardEdges);
      std::vector<double>& acc = acc_[s];
      double weight = 0.0;
      EdgeId kept_edges = 0;
      size_t out_i = 0;
      for (size_t i = 0; i < count; ++i) {
        const Edge e = base[i];
        if (alive.ContainsBoth(e.u, e.v)) {
          acc[e.u] += e.w;
          acc[e.v] += e.w;
          weight += e.w;
          ++kept_edges;
          if (compact) base[out_i++] = e;
        }
      }
      kept[s] = compact ? out_i : count;
      slot_weight_[s] += weight;
      slot_edges_[s] += kept_edges;
    });
    if (compact) {
      // Stitch the per-shard survivor runs back together in shard order;
      // the relative edge order is exactly the original stream order.
      for (size_t s = 0; s < shards; ++s) {
        Edge* base = edges.data() + start + s * kShardEdges;
        if (kept[s] > 0 && edges.data() + write != base) {
          std::memmove(edges.data() + write, base, kept[s] * sizeof(Edge));
        }
        write += kept[s];
      }
    }
  }
  if (compact) edges.resize(write);

  UndirectedPassResult out;
  for (size_t s = 0; s < kShardSlots; ++s) {
    out.weight += slot_weight_[s];
    out.edges += slot_edges_[s];
  }
  ReduceAndClear(/*plane=*/0, degrees);
  return out;
}

DirectedPassResult PassEngine::RunDirected(EdgeStream& stream,
                                           const NodeSet& s_set,
                                           const NodeSet& t_set,
                                           std::vector<double>& out_to_t,
                                           std::vector<double>& in_from_s,
                                           const CancelToken* cancel) {
  DENSEST_TRACE_SPAN("core.pass_directed");
  DENSEST_METRIC_COUNTER("core.passes").Inc();
  stream.Reset();
  if (const CsrView view = CsrView::Of(stream); view.directed != nullptr) {
    pull_.Begin(view.shards.size());
    DispatchRound(view.shards.size(), [&](size_t i) {
      if (!ShouldStop(cancel)) {
        pull_.Directed(view, i, s_set, t_set, out_to_t, in_from_s);
      }
    });
    return pull_.FinishDirected();
  }
  EnsureBatchBuffer();

  if (UseDirectPath(stream)) {
    std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
    std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
    DirectedPassResult out;
    for (;;) {
      if (ShouldStop(cancel)) break;
      std::span<const Edge> view =
          stream.NextView(batch_.data(), batch_.size());
      if (view.empty()) break;
      for (const Edge& e : view) {
        if (s_set.Contains(e.u) && t_set.Contains(e.v)) {
          out_to_t[e.u] += e.w;
          in_from_s[e.v] += e.w;
          out.weight += e.w;
          ++out.arcs;
        }
      }
    }
    return out;
  }

  EnsureAccumulators(out_to_t.size(), /*planes=*/2);
  std::array<std::span<const Edge>, kShardSlots> shards;
  for (;;) {
    if (ShouldStop(cancel)) break;
    const size_t count = FillShards(stream, shards);
    if (count == 0) break;
    DispatchRound(count, [&](size_t s) {
      std::vector<double>& out_acc = acc_[s];
      std::vector<double>& in_acc = acc_[kShardSlots + s];
      double weight = 0.0;
      EdgeId arcs = 0;
      for (const Edge& e : shards[s]) {
        if (s_set.Contains(e.u) && t_set.Contains(e.v)) {
          out_acc[e.u] += e.w;
          in_acc[e.v] += e.w;
          weight += e.w;
          ++arcs;
        }
      }
      slot_weight_[s] += weight;
      slot_edges_[s] += arcs;
    });
    if (count < kShardSlots) break;
  }

  DirectedPassResult out;
  for (size_t s = 0; s < kShardSlots; ++s) {
    out.weight += slot_weight_[s];
    out.arcs += slot_edges_[s];
  }
  ReduceAndClear(/*plane=*/0, out_to_t);
  ReduceAndClear(/*plane=*/1, in_from_s);
  return out;
}

PassEngine& DefaultPassEngine() {
  // Leaked singleton: worker threads must not be joined during static
  // destruction, where other statics they might touch are already gone.
  // lint:allow(naked-new) — leaked singleton
  static PassEngine* engine = new PassEngine(PassEngineOptions{});
  return *engine;
}

}  // namespace densest
