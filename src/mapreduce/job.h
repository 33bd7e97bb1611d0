// Copyright 2026 The densest Authors.
// A typed, in-process MapReduce engine. Jobs execute for real (multi-
// threaded map and reduce with a hash-partitioned, sorted shuffle), so
// algorithm results are testable; the cluster the paper used is modeled by
// CostModel, which converts the observed record/byte counts into simulated
// wall-clock.
//
// Inputs are RecordSources: a job can read an in-memory vector, an
// EdgeStream chunked through a PassCursor (mapreduce/stream_source.h), or
// a concatenation of sources — so the MR drivers run on the same
// out-of-core inputs as the streaming engines. The shuffle spills sorted
// runs to temp files under a byte budget (mapreduce/shuffle.h), keeping
// resident memory bounded by the budget instead of |E|.
//
// Determinism: map chunks have a fixed record count (independent of the
// thread count), their outputs are merged into the shuffle in chunk order,
// and each reduce partition is read in stable-sorted key order whether or
// not it spilled — so a job's output is a pure function of its input for
// any thread count and any spill budget.

#ifndef DENSEST_MAPREDUCE_JOB_H_
#define DENSEST_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/shuffle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

/// \brief One key-value record.
template <typename K, typename V>
struct KV {
  K key;
  V value;
};

/// \brief Collects the records a map or reduce function emits.
template <typename K, typename V>
class Emitter {
 public:
  explicit Emitter(std::vector<KV<K, V>>* out) : out_(out) {}
  void Emit(K key, V value) {
    out_->push_back(KV<K, V>{std::move(key), std::move(value)});
  }
  /// Capacity hint: room for `n` more records without reallocation. The
  /// engine calls this once per task with the cost-model record estimates
  /// so emit loops don't grow the buffer one push_back at a time. (Once,
  /// not per group: an exact-capacity reserve per group would defeat the
  /// vector's geometric growth.)
  void Reserve(size_t n) { out_->reserve(out_->size() + n); }

 private:
  std::vector<KV<K, V>>* out_;
};

/// \brief A rewindable sequence of input records for a MapReduce job.
///
/// Contract (mirrors EdgeStream): after Reset(), successive FillChunk()
/// calls deliver every record exactly once, in a fixed order, then return
/// 0. Sources that can fail (disk-backed streams) report it through a
/// sticky status(), which the engine checks after draining the input —
/// a silently short scan must fail the job, not feed it truncated data.
template <typename K, typename V>
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  /// Rewinds to the first record (a job performs exactly one Reset+drain).
  virtual void Reset() = 0;
  /// Writes up to `cap` records into `buf`; returns how many. 0 only at
  /// end of input.
  virtual size_t FillChunk(KV<K, V>* buf, size_t cap) = 0;
  /// Records per scan if known (0 = unknown); used for capacity hints.
  virtual uint64_t SizeHint() const { return 0; }
  /// Health of the source; see EdgeStream::status().
  virtual Status status() const { return Status::OK(); }
  /// Cumulative bytes this source has read from backing storage (the DFS
  /// of the modeled cluster) since construction. 0 for in-memory sources —
  /// they read cluster RAM, which the cost model charges per record, not
  /// per byte. The engine snapshots this around the map drain and charges
  /// the delta as JobStats::map_input_bytes.
  virtual uint64_t bytes_scanned() const { return 0; }
  /// Cumulative retry-loop outcomes of the source's IO seam (see
  /// common/retry.h); snapshotted around the map drain like bytes_scanned
  /// and surfaced as JobStats::io_retries.
  virtual IoRetryStats io_retry_stats() const { return {}; }
};

/// \brief RecordSource over an in-memory vector (the classic job input).
template <typename K, typename V>
class VectorRecordSource : public RecordSource<K, V> {
 public:
  explicit VectorRecordSource(const std::vector<KV<K, V>>& records)
      : records_(&records) {}
  void Reset() override { pos_ = 0; }
  size_t FillChunk(KV<K, V>* buf, size_t cap) override {
    const size_t take = std::min(cap, records_->size() - pos_);
    std::copy(records_->begin() + pos_, records_->begin() + pos_ + take, buf);
    pos_ += take;
    return take;
  }
  uint64_t SizeHint() const override { return records_->size(); }

 private:
  const std::vector<KV<K, V>>* records_;
  size_t pos_ = 0;
};

/// \brief Concatenation of two RecordSources (first exhausted, then
/// second). The removal jobs chain the edge input with marker records.
template <typename K, typename V>
class ChainRecordSource : public RecordSource<K, V> {
 public:
  ChainRecordSource(RecordSource<K, V>& first, RecordSource<K, V>& second)
      : first_(&first), second_(&second) {}
  void Reset() override {
    first_->Reset();
    second_->Reset();
    on_second_ = false;
  }
  size_t FillChunk(KV<K, V>* buf, size_t cap) override {
    if (!on_second_) {
      const size_t got = first_->FillChunk(buf, cap);
      if (got > 0) return got;
      on_second_ = true;
    }
    return second_->FillChunk(buf, cap);
  }
  uint64_t SizeHint() const override {
    const uint64_t a = first_->SizeHint();
    const uint64_t b = second_->SizeHint();
    return (a == 0 || b == 0) ? 0 : a + b;
  }
  Status status() const override {
    if (Status s = first_->status(); !s.ok()) return s;
    return second_->status();
  }
  uint64_t bytes_scanned() const override {
    return first_->bytes_scanned() + second_->bytes_scanned();
  }
  IoRetryStats io_retry_stats() const override {
    IoRetryStats total = first_->io_retry_stats();
    total.Accumulate(second_->io_retry_stats());
    return total;
  }

 private:
  RecordSource<K, V>* first_;
  RecordSource<K, V>* second_;
  bool on_second_ = false;
};

/// \brief Shared execution context: thread pool, cost model, accumulated
/// cluster statistics across all jobs run through it.
class MapReduceEnv {
 public:
  /// `threads` local execution threads (0 = hardware concurrency). The
  /// modeled cluster size lives in `model` and is independent of this.
  explicit MapReduceEnv(const CostModel& model = {}, size_t threads = 0)
      : model_(model), pool_(threads) {}

  const CostModel& cost_model() const { return model_; }
  ThreadPool& pool() { return pool_; }
  /// Counters accumulated over every job run through this env.
  const JobStats& totals() const { return totals_; }
  void AccumulateTotals(const JobStats& s) { totals_.Accumulate(s); }

 private:
  CostModel model_;
  ThreadPool pool_;
  JobStats totals_;
};

inline constexpr std::nullptr_t NoCombiner = nullptr;

namespace mr_internal {

/// Maps one input chunk and (optionally) combines its output into `out`,
/// reusing its buffer. The task emits into a local vector and stores `out`
/// once, at its end: the chunks' vector headers sit side by side, and
/// concurrent map tasks writing them per record would share their lines.
/// Returns the raw (pre-combine) emit count.
template <typename K2, typename V2, typename K1, typename V1, typename MapFn,
          typename CombineFn>
uint64_t MapCombineChunk(const std::vector<KV<K1, V1>>& input,
                         std::vector<KV<K2, V2>>& out, MapFn& map_fn,
                         CombineFn& combine_fn, double fanout_hint) {
  std::vector<KV<K2, V2>> emitted;
  emitted.swap(out);
  emitted.clear();
  Emitter<K2, V2> emitter(&emitted);
  emitter.Reserve(
      static_cast<size_t>(static_cast<double>(input.size()) * fanout_hint) +
      1);
  for (const KV<K1, V1>& kv : input) {
    map_fn(kv.key, kv.value, emitter);
  }
  const uint64_t raw = emitted.size();
  if constexpr (!std::is_same_v<std::decay_t<CombineFn>, std::nullptr_t>) {
    // Combine chunk-locally: group by key, partially reduce.
    std::stable_sort(emitted.begin(), emitted.end(),
                     [](const KV<K2, V2>& a, const KV<K2, V2>& b) {
                       return a.key < b.key;
                     });
    std::vector<KV<K2, V2>> combined;
    Emitter<K2, V2> combine_emitter(&combined);
    combine_emitter.Reserve(emitted.size());
    std::vector<V2> values;
    ForEachGroup(emitted, &values,
                 [&](const K2& key, const std::vector<V2>& vs) {
                   combine_fn(key, vs, combine_emitter);
                 });
    emitted = std::move(combined);
  }
  out.swap(emitted);
  return raw;
}

}  // namespace mr_internal

/// Runs one MapReduce job over a RecordSource, optionally with a
/// Hadoop-style map-side combiner and a spill budget on the shuffle.
///
/// \tparam K2/V2 intermediate key/value (K2 needs operator< and ==; both
///         must be trivially copyable — shuffle records may hit disk).
/// \param map_fn     void(const K1&, const V1&, Emitter<K2,V2>&)
/// \param combine_fn type-preserving partial reduction applied per map
///        chunk before the shuffle:
///        void(const K2&, const std::vector<V2>&, Emitter<K2,V2>&).
///        Pass NoCombiner to skip. Must be associative and commutative for
///        the job result to be combiner-invariant.
/// \param reduce_fn  void(const K2&, const std::vector<V2>&, Emitter<K3,V3>&)
/// \param stats_out  optional per-job counters (also accumulated into env).
///
/// Fails only on IO: a bad input source or a failed shuffle spill.
template <typename K2, typename V2, typename K3, typename V3, typename K1,
          typename V1, typename MapFn, typename CombineFn, typename ReduceFn>
StatusOr<std::vector<KV<K3, V3>>> RunJobOnSource(
    MapReduceEnv& env, RecordSource<K1, V1>& source, const JobOptions& options,
    MapFn&& map_fn, CombineFn&& combine_fn, ReduceFn&& reduce_fn,
    JobStats* stats_out = nullptr) {
  JobStats stats;
  const size_t threads = env.pool().num_threads();
  const size_t num_partitions = std::max<size_t>(1, options.num_partitions);
  ShuffleWriter<K2, V2> shuffle(num_partitions, options);
  // The source's size hint times the map fanout bounds what reaches the
  // shuffle (combining only shrinks it); pre-size the partition buffers.
  shuffle.ReserveForInput(static_cast<uint64_t>(
      static_cast<double>(source.SizeHint()) * options.map_fanout_hint));

  // ---- Map phase: pull fixed-size chunks from the source, map+combine a
  // round of them in parallel, merge into the shuffle in chunk order. A
  // task writes its chunk's slots of `outputs` and `raw_counts` once, at
  // its end (MapCombineChunk). ----
  const size_t chunk_cap = std::max<size_t>(1, options.map_chunk_records);
  const size_t chunks_per_round = std::max<size_t>(1, threads * 2);
  std::vector<std::vector<KV<K1, V1>>> inputs(chunks_per_round);
  std::vector<std::vector<KV<K2, V2>>> outputs(chunks_per_round);
  std::vector<uint64_t> raw_counts(chunks_per_round, 0);
  const uint64_t input_bytes_before = source.bytes_scanned();
  const IoRetryStats source_retries_before = source.io_retry_stats();
  source.Reset();
  bool source_dry = false;
  {
    DENSEST_TRACE_SPAN("mr.map_phase");
    while (!source_dry) {
      // Once per round (≤ chunks_per_round × chunk_cap records between
      // polls). The early return unwinds the ShuffleWriter, whose SpillFile
      // destructors remove any spill files already written.
      if (Status c = CheckCancel(options.cancel); !c.ok()) return c;
      size_t filled = 0;
      while (filled < chunks_per_round) {
        std::vector<KV<K1, V1>>& in = inputs[filled];
        in.resize(chunk_cap);
        const size_t got = source.FillChunk(in.data(), chunk_cap);
        in.resize(got);
        if (got == 0) {
          source_dry = true;
          break;
        }
        stats.map_input_records += got;
        ++filled;
      }
      DENSEST_METRIC_COUNTER("mr.map_chunks").Inc(filled);
      env.pool().ParallelFor(filled, [&](size_t c) {
        raw_counts[c] = mr_internal::MapCombineChunk<K2, V2>(
            inputs[c], outputs[c], map_fn, combine_fn,
            options.map_fanout_hint);
      });
      for (size_t c = 0; c < filled; ++c) {
        stats.map_output_records += raw_counts[c];
        if (Status s = shuffle.Append(std::move(outputs[c])); !s.ok()) {
          return s;
        }
      }
    }
  }
  // A disk-backed source signals mid-scan failure by ending early; mapping
  // a truncated input would produce a plausible-looking wrong answer.
  if (Status s = source.status(); !s.ok()) return s;
  if (Status c = CheckCancel(options.cancel); !c.ok()) return c;
  stats.map_input_bytes = source.bytes_scanned() - input_bytes_before;

  constexpr bool kHasCombiner =
      !std::is_same_v<std::decay_t<CombineFn>, std::nullptr_t>;
  stats.combine_input_records = kHasCombiner ? stats.map_output_records : 0;
  stats.combine_output_records = shuffle.records();
  // One byte-size convention everywhere a record is accounted: the padded
  // struct size, which is also what the spill budget and spill files see.
  stats.shuffle_bytes = shuffle.records() * sizeof(KV<K2, V2>);

  // ---- Reduce phase: merge-read each partition in key order (spilled
  // runs + in-memory tail), group, reduce — partitions in parallel. A task
  // writes its partition's slots of `reduce_out`, `group_counts` and
  // `partition_status` once, at its end. ----
  std::vector<std::vector<KV<K3, V3>>> reduce_out(num_partitions);
  std::vector<uint64_t> group_counts(num_partitions, 0);
  std::vector<Status> partition_status(num_partitions);
  const uint64_t out_hint = options.reduce_output_hint / num_partitions;
  {
    DENSEST_TRACE_SPAN("mr.reduce_phase");
    env.pool().ParallelFor(num_partitions, [&](size_t p) {
      // One poll per partition: a tripped token skips the remaining merge
      // work. ParallelFor still joins every worker, so no thread outlives
      // the early return below.
      if (Status c = CheckCancel(options.cancel); !c.ok()) {
        partition_status[p] = c;
        return;
      }
      std::vector<KV<K3, V3>> out;
      Emitter<K3, V3> emitter(&out);
      if (out_hint > 0) emitter.Reserve(out_hint);
      uint64_t groups = 0;
      std::vector<V2> values;
      partition_status[p] = shuffle.ReducePartition(
          p, &values, [&](const K2& key, const std::vector<V2>& vs) {
            reduce_fn(key, vs, emitter);
            ++groups;
          });
      reduce_out[p].swap(out);
      group_counts[p] = groups;
    });
  }
  for (const Status& s : partition_status) {
    if (!s.ok()) return s;
  }

  std::vector<KV<K3, V3>> output;
  size_t total_out = 0;
  for (const auto& part : reduce_out) total_out += part.size();
  output.reserve(total_out);
  for (auto& part : reduce_out) {
    output.insert(output.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  for (uint64_t c : group_counts) stats.reduce_input_groups += c;
  stats.reduce_output_records = output.size();
  stats.spill_bytes_written = shuffle.spill_bytes_written();
  stats.spill_bytes_read = shuffle.spill_bytes_read();
  stats.spill_runs = shuffle.spill_runs();
  const IoRetryStats source_retries = source.io_retry_stats();
  const IoRetryStats spill_retries = shuffle.io_retry_stats();
  stats.io_retries = (source_retries.retries - source_retries_before.retries) +
                     spill_retries.retries;
  stats.io_retries_healed =
      (source_retries.healed - source_retries_before.healed) +
      spill_retries.healed;
  stats.simulated_seconds = SimulateJobSeconds(env.cost_model(), stats);

  // Registry mirror of the per-job struct: one bulk add per job, so the
  // cross-command metrics plane sees MR activity without per-record cost.
  DENSEST_METRIC_COUNTER("mr.jobs").Inc();
  DENSEST_METRIC_COUNTER("mr.shuffle_records").Inc(shuffle.records());
  DENSEST_METRIC_COUNTER("mr.spill_bytes").Inc(stats.spill_bytes_written);
  DENSEST_METRIC_COUNTER("mr.reduce_groups").Inc(stats.reduce_input_groups);

  env.AccumulateTotals(stats);
  if (stats_out != nullptr) *stats_out = stats;
  return output;
}

/// In-memory convenience overload: runs the job over a vector with the
/// default (never-spilling) options. Cannot fail — vector sources are
/// infallible and nothing spills.
template <typename K2, typename V2, typename K3, typename V3, typename K1,
          typename V1, typename MapFn, typename CombineFn, typename ReduceFn>
std::vector<KV<K3, V3>> RunJobWithCombiner(
    MapReduceEnv& env, const std::vector<KV<K1, V1>>& input, MapFn&& map_fn,
    CombineFn&& combine_fn, ReduceFn&& reduce_fn,
    JobStats* stats_out = nullptr) {
  VectorRecordSource<K1, V1> source(input);
  StatusOr<std::vector<KV<K3, V3>>> out = RunJobOnSource<K2, V2, K3, V3>(
      env, source, JobOptions{}, std::forward<MapFn>(map_fn),
      std::forward<CombineFn>(combine_fn), std::forward<ReduceFn>(reduce_fn),
      stats_out);
  return std::move(*out);
}

/// Combiner-free convenience wrapper (the common case).
template <typename K2, typename V2, typename K3, typename V3, typename K1,
          typename V1, typename MapFn, typename ReduceFn>
std::vector<KV<K3, V3>> RunJob(MapReduceEnv& env,
                               const std::vector<KV<K1, V1>>& input,
                               MapFn&& map_fn, ReduceFn&& reduce_fn,
                               JobStats* stats_out = nullptr) {
  return RunJobWithCombiner<K2, V2, K3, V3>(
      env, input, std::forward<MapFn>(map_fn), NoCombiner,
      std::forward<ReduceFn>(reduce_fn), stats_out);
}

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_JOB_H_
