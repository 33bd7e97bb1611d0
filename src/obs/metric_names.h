// Copyright 2026 The densest Authors.
// Single-source registry of every metric and trace-span name in the tree,
// in the style of common/failpoint_names.h: names follow the same
// `subsystem.operation` grammar, each instrumentation site uses a literal
// that must appear here, and tools/lint.py cross-checks both directions
// (an unregistered site and a dead registry entry are both CI failures).
//
// Why a registry instead of open-ended strings: the exporter pre-creates
// one slot per registered name, so text exposition always contains the
// full catalogue (a scrape can tell "zero" from "misspelled"), and a typo
// at an instrumentation site is a lint error, not a silently separate
// time series.
//
// Grammar: `subsystem.operation`, both parts [a-z0-9_]+. The `t.` prefix
// is reserved for tests (never listed here; the lint check and the
// runtime lookup both admit it).

#ifndef DENSEST_OBS_METRIC_NAMES_H_
#define DENSEST_OBS_METRIC_NAMES_H_

#include <string_view>

namespace densest::obs {

/// Counter metrics: monotone event tallies (sharded relaxed atomics).
/// Sorted; MetricsRegistry binary-searches this array.
inline constexpr std::string_view kCounterNames[] = {
    // The subset of core.pass_rounds that fed two or more runs at once (a
    // fused sweep while several of its runs are still active).
    "core.fused_rounds",
    // Rounds of passes, solo and fused alike: one per record round
    // (<= kRoundShards * kShardEdges edges) PassEngine dispatched, one per
    // row-pull pass, and one per round of the same size that an Algorithm 1
    // run folds from its §6.3 edge buffer.
    "core.pass_rounds",
    // Tasks executed inside those rounds (fan-out width signal): one per
    // active run in record rounds, row shards in row-pull rounds, one per
    // buffer round.
    "core.pass_shards",
    // Passes started: one per physical scan of a Drive however many runs
    // it feeds (solo runs, sweeps, RunUndirected/RunDirected), plus one per
    // pass an Algorithm 1 run takes over its §6.3 edge buffer, so a solo
    // run adds exactly its `passes`.
    "core.passes",
    // Deletions applied by DynamicDensest.
    "dynamic.deletes",
    // Updates rejected by the adjacency (duplicate insert / absent delete).
    "dynamic.ignored",
    // Edge insertions applied by DynamicDensest.
    "dynamic.inserts",
    // Node promotions/demotions across degree-ladder levels.
    "dynamic.level_moves",
    // Fallback batch recomputes that completed.
    "dynamic.recomputes",
    // Recomputes cancelled by the overload deadline.
    "dynamic.recomputes_cancelled",
    // Successful snapshot restores (crash recovery).
    "dynamic.snapshot_restores",
    // Crash-recovery snapshots that failed to write (degraded gracefully).
    "dynamic.snapshots_failed",
    // Crash-recovery snapshots written.
    "dynamic.snapshots_written",
    // Queries answered from the widened stale band while degraded.
    "dynamic.stale_answers_served",
    // Certified-window slides (trims and recompute-driven moves).
    "dynamic.window_moves",
    // Failpoint evaluations that fired an armed action.
    "io.failpoint_trips",
    // Transient-fault retries taken by the IO retry loops.
    "io.retries",
    // Retry loops that gave up after the attempt budget.
    "io.retries_exhausted",
    // Retry loops that healed (succeeded after >= 1 retry).
    "io.retries_healed",
    // MapReduce jobs completed.
    "mr.jobs",
    // Map input chunks mapped (and combined) by the MR driver.
    "mr.map_chunks",
    // Reducer groups reduced across all partitions.
    "mr.reduce_groups",
    // Records that reached the shuffle (post-combine).
    "mr.shuffle_records",
    // Bytes the shuffle spilled to disk under its budget.
    "mr.spill_bytes",
    // Query batches the QueryService answered OK.
    "serve.batches_served",
    // Batches that hit their deadline / cancel token.
    "serve.expired",
    // Epoch publications into the answer plane.
    "serve.publications",
    // Individual queries answered inside served batches.
    "serve.queries_served",
    // Batches shed at admission (armed serve.enqueue seam).
    "serve.shed",
    // `stats` queries served (in-process scrapes of this catalogue).
    "serve.stats_queries",
};

/// Gauge metrics: last-written values (single relaxed atomic each).
inline constexpr std::string_view kGaugeNames[] = {
    // Density of the engine's most recently served answer.
    "dynamic.density",
    // Microseconds since the plane's last publication, sampled at serve.
    "serve.answer_age_us",
    // The plane's current publication epoch.
    "serve.answer_epoch",
};

/// Histogram metrics: log-linear distributions of non-negative values
/// (obs::Histogram; all in microseconds today).
inline constexpr std::string_view kHistogramNames[] = {
    // Engine Query() latency sampled on the replay's query cadence.
    "dynamic.query_latency_us",
    // Per-batch serving latency (admission to completion).
    "serve.batch_latency_us",
    // Writer-side cost of one Publish (query + witness walk + seqlock).
    "serve.publish_latency_us",
};

/// Trace-span names for DENSEST_TRACE_SPAN(...) sites. Same grammar and
/// the same both-direction lint contract as the metric names.
inline constexpr std::string_view kTraceSpanNames[] = {
    // One round feeding two or more runs (counted by core.fused_rounds).
    "core.fused_round",
    // One bare directed pass (PassEngine::RunDirected).
    "core.pass_directed",
    // One round feeding a single run: a solo run, the last active run of a
    // sweep, a bare pass, or a round an Algorithm 1 run folds from its §6.3
    // edge buffer (on the thread that runs its FinishPass).
    "core.pass_round",
    // One bare undirected pass (PassEngine::RunUndirected), or one pass an
    // Algorithm 1 run takes over its §6.3 edge buffer; the stream passes of
    // a peeling run show as their rounds.
    "core.pass_undirected",
    // One ApplyBatch run on the dynamic engine (writer thread).
    "dynamic.apply_batch",
    // One band-verification checkpoint (exact or batch recompute).
    "dynamic.checkpoint",
    // One epoch publication (Query + DensestNodes + plane write).
    "dynamic.publish",
    // One fallback batch recompute over the frozen live edge set.
    "dynamic.recompute",
    // One snapshot restore attempt.
    "dynamic.snapshot_read",
    // One crash-recovery snapshot write.
    "dynamic.snapshot_write",
    // The map phase of one MapReduce job.
    "mr.map_phase",
    // The reduce phase of one MapReduce job.
    "mr.reduce_phase",
    // One query batch answered off the plane on its caller's thread.
    "serve.batch",
};

/// True when `name` follows the `subsystem.operation` grammar shared with
/// failpoint names: [a-z0-9_]+ '.' [a-z0-9_]+.
constexpr bool MetricNameWellFormed(std::string_view name) {
  auto word = [](std::string_view s) {
    if (s.empty()) return false;
    for (char c : s) {
      const bool ok =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
      if (!ok) return false;
    }
    return true;
  };
  const size_t dot = name.find('.');
  if (dot == std::string_view::npos) return false;
  if (name.find('.', dot + 1) != std::string_view::npos) return false;
  return word(name.substr(0, dot)) && word(name.substr(dot + 1));
}

namespace metric_names_internal {

template <size_t N>
constexpr bool Contains(const std::string_view (&names)[N],
                        std::string_view name) {
  for (std::string_view n : names) {
    if (n == name) return true;
  }
  return false;
}

template <size_t N>
constexpr bool AllWellFormed(const std::string_view (&names)[N]) {
  for (std::string_view n : names) {
    if (!MetricNameWellFormed(n)) return false;
  }
  return true;
}

template <size_t N>
constexpr bool StrictlySorted(const std::string_view (&names)[N]) {
  for (size_t i = 1; i < N; ++i) {
    if (!(names[i - 1] < names[i])) return false;
  }
  return true;
}

}  // namespace metric_names_internal

static_assert(metric_names_internal::AllWellFormed(kCounterNames));
static_assert(metric_names_internal::AllWellFormed(kGaugeNames));
static_assert(metric_names_internal::AllWellFormed(kHistogramNames));
static_assert(metric_names_internal::AllWellFormed(kTraceSpanNames));
static_assert(metric_names_internal::StrictlySorted(kCounterNames));
static_assert(metric_names_internal::StrictlySorted(kGaugeNames));
static_assert(metric_names_internal::StrictlySorted(kHistogramNames));
static_assert(metric_names_internal::StrictlySorted(kTraceSpanNames));

/// True for the reserved test prefix ("t.<operation>"): tests may mint
/// scratch metrics without touching this header, exactly like failpoints.
constexpr bool IsTestMetricName(std::string_view name) {
  return name.size() > 2 && name.substr(0, 2) == "t." &&
         MetricNameWellFormed(name);
}

constexpr bool IsRegisteredCounter(std::string_view name) {
  return metric_names_internal::Contains(kCounterNames, name) ||
         IsTestMetricName(name);
}

constexpr bool IsRegisteredGauge(std::string_view name) {
  return metric_names_internal::Contains(kGaugeNames, name) ||
         IsTestMetricName(name);
}

constexpr bool IsRegisteredHistogram(std::string_view name) {
  return metric_names_internal::Contains(kHistogramNames, name) ||
         IsTestMetricName(name);
}

constexpr bool IsRegisteredTraceSpan(std::string_view name) {
  return metric_names_internal::Contains(kTraceSpanNames, name) ||
         IsTestMetricName(name);
}

}  // namespace densest::obs

#endif  // DENSEST_OBS_METRIC_NAMES_H_
