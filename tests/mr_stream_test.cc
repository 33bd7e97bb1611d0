// Tests for the out-of-core MapReduce substrate: stream-backed job inputs
// (StreamRecordSource over every stream type), the spill path of the
// shuffle, and the drivers' bit-for-bit equivalence with the streaming
// algorithms on file- and generator-backed inputs.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "gen/erdos_renyi.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/mr_densest.h"
#include "mapreduce/stream_source.h"
#include "obs/metrics.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_cursor.h"

namespace densest {
namespace {

// ---- RecordSource plumbing. ----

TEST(StreamRecordSourceTest, DeliversEveryEdgeAndCountsScans) {
  EdgeList el = ErdosRenyiGnm(200, 1000, 11);
  EdgeListStream stream(el);
  PassCursor cursor(stream);
  StreamRecordSource source(cursor);

  for (int scan = 1; scan <= 2; ++scan) {
    source.Reset();
    std::vector<KV<NodeId, NodeId>> got;
    KV<NodeId, NodeId> buf[64];
    size_t n;
    while ((n = source.FillChunk(buf, 64)) > 0) {
      got.insert(got.end(), buf, buf + n);
    }
    ASSERT_EQ(got.size(), el.num_edges());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, el.edges()[i].u);
      EXPECT_EQ(got[i].value, el.edges()[i].v);
    }
    EXPECT_EQ(cursor.passes(), static_cast<uint64_t>(scan));
  }
}

TEST(ChainRecordSourceTest, ConcatenatesInOrderAndResets) {
  std::vector<KV<NodeId, NodeId>> a = {{1, 2}, {3, 4}};
  std::vector<KV<NodeId, NodeId>> b = {{5, 6}};
  VectorRecordSource<NodeId, NodeId> sa(a), sb(b);
  ChainRecordSource<NodeId, NodeId> chain(sa, sb);
  for (int round = 0; round < 2; ++round) {
    chain.Reset();
    std::vector<KV<NodeId, NodeId>> got;
    KV<NodeId, NodeId> buf[8];
    size_t n;
    while ((n = chain.FillChunk(buf, 8)) > 0) got.insert(got.end(), buf, buf + n);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].key, 1u);
    EXPECT_EQ(got[2].key, 5u);
  }
  EXPECT_EQ(chain.SizeHint(), 3u);
}

// ---- Spill path: identical results with and without spilling. ----

std::vector<KV<NodeId, EdgeId>> RunDegreeJob(const MrEdges& edges,
                                             uint64_t budget,
                                             JobStats* stats) {
  MapReduceEnv env({}, 4);
  VectorRecordSource<NodeId, NodeId> source(edges);
  JobOptions opts;
  opts.spill_budget_bytes = budget;
  auto out = MrDegreeJobCombined(env, source, opts, stats);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(*out);
}

TEST(SpillShuffleTest, EveryPartitionSpillsAndOutputIsByteIdentical) {
  EdgeList el = ErdosRenyiGnm(400, 5000, 21);
  MrEdges edges = ToMrEdges(el.edges());

  JobStats in_memory_stats, spilled_stats;
  auto in_memory = RunDegreeJob(edges, 0, &in_memory_stats);
  // A 1-byte budget gives every partition a share below one record: every
  // append spills, so the whole shuffle goes through disk.
  auto spilled = RunDegreeJob(edges, 1, &spilled_stats);

  EXPECT_EQ(in_memory_stats.spill_bytes_written, 0u);
  EXPECT_GT(spilled_stats.spill_bytes_written, 0u);
  EXPECT_EQ(spilled_stats.spill_bytes_read,
            spilled_stats.spill_bytes_written);
  EXPECT_GT(spilled_stats.spill_runs, 0u);
  // Identical chunking on both sides: the output must match record for
  // record, in order — the merge-read reproduces the stable sort exactly.
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].key, in_memory[i].key) << "i=" << i;
    EXPECT_EQ(spilled[i].value, in_memory[i].value) << "i=" << i;
  }
  // The spilled run costs more simulated time (spill IO is charged).
  EXPECT_GT(spilled_stats.simulated_seconds,
            in_memory_stats.simulated_seconds);
}

TEST(SpillShuffleTest, OutputOrderInvariantAcrossThreadCountsAndBudgets) {
  // Partition count and chunk boundaries are fixed constants, never
  // derived from the thread count — so the output matches record for
  // record, in order, with no sorting, and so do the job's record and byte
  // counters, for every (threads, budget) pair. The second input spans
  // five map chunks, so a round at 3 or 8 threads maps several at once.
  const size_t chunk = JobOptions{}.map_chunk_records;
  const std::vector<EdgeList> inputs = {ErdosRenyiGnm(300, 4000, 22),
                                        ErdosRenyiGnm(20000, 150000, 23)};
  ASSERT_GE(inputs[1].num_edges(), 4 * chunk);
  for (const EdgeList& el : inputs) {
    MrEdges edges = ToMrEdges(el.edges());
    JobStats ref_stats;
    auto reference = RunDegreeJob(edges, 0, &ref_stats);
    for (uint64_t budget : {uint64_t{1}, uint64_t{1} << 12, uint64_t{0}}) {
      JobStats one_thread;  // the spill counters depend on the budget only
      for (size_t threads : {1u, 3u, 8u}) {
        const std::string label = "edges=" + std::to_string(edges.size()) +
                                  " threads=" + std::to_string(threads) +
                                  " budget=" + std::to_string(budget);
        MapReduceEnv env({}, threads);
        VectorRecordSource<NodeId, NodeId> source(edges);
        JobOptions opts;
        opts.spill_budget_bytes = budget;
        JobStats stats;
        auto out = MrDegreeJobCombined(env, source, opts, &stats);
        ASSERT_TRUE(out.ok()) << label;
        ASSERT_EQ(out->size(), reference.size()) << label;
        size_t same = 0;
        while (same < reference.size() &&
               (*out)[same].key == reference[same].key &&
               (*out)[same].value == reference[same].value) {
          ++same;
        }
        EXPECT_EQ(same, reference.size()) << label << ": first mismatch";
        EXPECT_EQ(stats.map_output_records, ref_stats.map_output_records)
            << label;
        EXPECT_EQ(stats.combine_output_records,
                  ref_stats.combine_output_records)
            << label;
        EXPECT_EQ(stats.reduce_input_groups, ref_stats.reduce_input_groups)
            << label;
        EXPECT_EQ(stats.shuffle_bytes, ref_stats.shuffle_bytes) << label;
        if (threads == 1) one_thread = stats;
        EXPECT_EQ(stats.spill_bytes_written, one_thread.spill_bytes_written)
            << label;
        EXPECT_EQ(stats.spill_runs, one_thread.spill_runs) << label;
        EXPECT_EQ(stats.spill_runs > 0, budget > 0) << label;
      }
    }
  }
}

// ---- Driver equivalence with streaming, on every stream type. ----

void ExpectMrMatchesStreaming(EdgeStream& stream, double epsilon,
                              uint64_t spill_budget) {
  Algorithm1Options stream_opt;
  stream_opt.epsilon = epsilon;
  auto streaming = RunAlgorithm1(stream, stream_opt);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = epsilon;
  mr_opt.spill_budget_bytes = spill_budget;
  auto mr = RunMrDensestUndirected(env, stream, mr_opt);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();

  EXPECT_EQ(mr->result.nodes, streaming->nodes);
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  EXPECT_GT(mr->input_scans, 0u);
}

TEST(MrStreamEquivalenceTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(150, 900, 31);
  EdgeListStream stream(el);
  ExpectMrMatchesStreaming(stream, 0.5, 0);
}

TEST(MrStreamEquivalenceTest, BinaryFileStream) {
  const std::string path = ::testing::TempDir() + "/mr_equiv_edges.bin";
  EdgeList el = ErdosRenyiGnm(150, 900, 32);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  ExpectMrMatchesStreaming(**stream, 0.5, 0);
  std::remove(path.c_str());
}

TEST(MrStreamEquivalenceTest, BinaryFileStreamUnderTinySpillBudget) {
  // The acceptance configuration: a disk-backed input plus a shuffle
  // budget far below the graph's total KV footprint, so the degree jobs
  // must spill — and the answer still matches streaming bit for bit.
  const std::string path = ::testing::TempDir() + "/mr_equiv_spill.bin";
  EdgeList el = ErdosRenyiGnm(200, 3000, 33);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  ExpectMrMatchesStreaming(**stream, 1.0, /*spill_budget=*/256);

  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 1.0;
  opt.spill_budget_bytes = 256;
  auto mr = RunMrDensestUndirected(env, **stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_GT(mr->totals.spill_bytes_written, 0u);
  std::remove(path.c_str());
}

TEST(MrStreamEquivalenceTest, GnpGeneratorStream) {
  GnpEdgeStream stream(120, 0.08, 41);
  ExpectMrMatchesStreaming(stream, 0.5, 0);
}

TEST(MrStreamEquivalenceTest, CirculantGeneratorStream) {
  CirculantEdgeStream stream(128, 6);
  ExpectMrMatchesStreaming(stream, 0.0, 0);
}

TEST(MrStreamEquivalenceTest, FirstPassScanAccounting) {
  // Pass 1 runs three stream-scanning jobs (density, degrees, removal pass
  // 1); after the removal job materializes survivors, no job touches the
  // stream again.
  EdgeList el = ErdosRenyiGnm(100, 600, 42);
  EdgeListStream stream(el);
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto mr = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_GT(mr->result.passes, 1u);
  EXPECT_EQ(mr->input_scans, 3u);
}

TEST(MrDirectedStreamEquivalenceTest, BinaryFileArcStream) {
  const std::string path = ::testing::TempDir() + "/mr_equiv_arcs.bin";
  EdgeList el = ErdosRenyiDirectedGnm(120, 900, 51);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());

  Algorithm3Options stream_opt;
  stream_opt.c = 2.0;
  stream_opt.epsilon = 1.0;
  auto streaming = RunAlgorithm3(**stream, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDirectedOptions mr_opt;
  mr_opt.c = 2.0;
  mr_opt.epsilon = 1.0;
  mr_opt.spill_budget_bytes = 512;  // force spilling on top
  auto mr = RunMrDensestDirected(env, **stream, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.s_nodes, streaming->s_nodes);
  EXPECT_EQ(mr->result.t_nodes, streaming->t_nodes);
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  std::remove(path.c_str());
}

// ---- IO failure: truncated inputs abort the job, not the answer. ----

TEST(MrStreamFailureTest, TruncatedBinaryInputSurfacesIOError) {
  const std::string path = ::testing::TempDir() + "/mr_truncated.bin";
  EdgeList el = ErdosRenyiGnm(200, 2000, 61);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 700 * 8);

  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  MapReduceEnv env;
  auto mr = RunMrDensestUndirected(env, **stream, {});
  ASSERT_FALSE(mr.ok());
  EXPECT_EQ(mr.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

// ---- Weights: the §5.2 records carry none, so weighted input fails. ----

/// 1500 random unit edges on 400 nodes, a unit 30-clique and a 10-cycle of
/// weight 100: the weighted densest subgraph (density ~100) is the cycle,
/// which a run that dropped the weights would miss for the clique.
EdgeList WeightedCycleGraph() {
  EdgeList el = ErdosRenyiGnm(400, 1500, 91);
  for (NodeId u = 300; u < 330; ++u) {
    for (NodeId v = u + 1; v < 330; ++v) el.Add(u, v);
  }
  for (NodeId u = 0; u < 10; ++u) el.Add(u, (u + 1) % 10, 100.0);
  return el;
}

TEST(StreamRecordSourceTest, WeightedEdgeEndsEveryScanWithStickyError) {
  EdgeList el = WeightedCycleGraph();
  EdgeListStream stream(el);
  PassCursor cursor(stream);
  StreamRecordSource source(cursor);
  for (int scan = 1; scan <= 2; ++scan) {
    source.Reset();
    KV<NodeId, NodeId> buf[64];
    size_t records = 0, n = 0;
    while ((n = source.FillChunk(buf, 64)) > 0) records += n;
    EXPECT_LT(records, el.num_edges());
    EXPECT_EQ(source.status().code(), Status::Code::kInvalidArgument);
  }
  EXPECT_NE(source.status().message().find("unit weights"), std::string::npos);
  EXPECT_NE(source.status().message().find("(0, 1) has weight 100"),
            std::string::npos)
      << source.status().message();
}

TEST(MrWeightTest, WeightedListAndFileAreRejected) {
  const EdgeList el = WeightedCycleGraph();
  const std::string path = ::testing::TempDir() + "/mr_weighted_cycle.bin";
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/true).ok());
  auto file = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(file.ok());
  EdgeListStream list(el);
  for (EdgeStream* stream : std::vector<EdgeStream*>{&list, file->get()}) {
    MapReduceEnv env;
    auto undirected = RunMrDensestUndirected(env, *stream, {});
    ASSERT_FALSE(undirected.ok());
    EXPECT_EQ(undirected.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(undirected.status().message().find("unit weights"),
              std::string::npos);

    MrDirectedOptions directed_opt;
    directed_opt.c = 1.0;
    auto directed = RunMrDensestDirected(env, *stream, directed_opt);
    ASSERT_FALSE(directed.ok());
    EXPECT_EQ(directed.status().code(), Status::Code::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(MrWeightTest, WeightedFormatWithUnitWeightsMatchesUnweightedFile) {
  // A weighted-format file whose weights are all 1.0 describes the unit
  // graph, so MR accepts it and gives the unweighted file's answer.
  const EdgeList el = ErdosRenyiGnm(150, 900, 35);
  const std::string plain_path = ::testing::TempDir() + "/mr_plain.bin";
  const std::string ones_path = ::testing::TempDir() + "/mr_ones.bin";
  ASSERT_TRUE(WriteBinaryEdgeFile(plain_path, el, /*weighted=*/false).ok());
  ASSERT_TRUE(WriteBinaryEdgeFile(ones_path, el, /*weighted=*/true).ok());
  auto plain = BinaryFileEdgeStream::Open(plain_path);
  auto ones = BinaryFileEdgeStream::Open(ones_path);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(ones.ok());

  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto want = RunMrDensestUndirected(env, **plain, opt);
  auto got = RunMrDensestUndirected(env, **ones, opt);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->result.nodes, want->result.nodes);
  EXPECT_EQ(got->result.density, want->result.density);
  EXPECT_EQ(got->result.passes, want->result.passes);

  MrDirectedOptions directed_opt;
  directed_opt.c = 2.0;
  auto want_directed = RunMrDensestDirected(env, **plain, directed_opt);
  auto got_directed = RunMrDensestDirected(env, **ones, directed_opt);
  ASSERT_TRUE(want_directed.ok()) << want_directed.status().ToString();
  ASSERT_TRUE(got_directed.ok()) << got_directed.status().ToString();
  EXPECT_EQ(got_directed->result.s_nodes, want_directed->result.s_nodes);
  EXPECT_EQ(got_directed->result.t_nodes, want_directed->result.t_nodes);
  EXPECT_EQ(got_directed->result.density, want_directed->result.density);
  EXPECT_EQ(got_directed->result.passes, want_directed->result.passes);
  std::remove(plain_path.c_str());
  std::remove(ones_path.c_str());
}

// ---- Combiner ceiling: the shuffle carries O(V), not O(E). ----

TEST(MrCombinerTest, DegreeShuffleBoundedByAliveNodesPerChunk) {
  EdgeList el = ErdosRenyiGnm(500, 20000, 71);
  MrEdges edges = ToMrEdges(el.edges());
  MapReduceEnv env;
  VectorRecordSource<NodeId, NodeId> source(edges);
  JobOptions opts;
  JobStats stats;
  auto out = MrDegreeJobCombined(env, source, opts, &stats);
  ASSERT_TRUE(out.ok());

  const uint64_t chunks =
      (edges.size() + opts.map_chunk_records - 1) / opts.map_chunk_records;
  EXPECT_EQ(stats.map_output_records, 2 * el.num_edges());
  EXPECT_EQ(stats.combine_input_records, stats.map_output_records);
  EXPECT_LE(stats.combine_output_records, chunks * el.num_nodes());
  EXPECT_LT(stats.combine_output_records, stats.map_output_records);
}

TEST(MrCombinerTest, DirectedDegreeCombinedMatchesPlain) {
  EdgeList el = ErdosRenyiDirectedGnm(200, 3000, 72);
  MrEdges arcs = ToMrEdges(el.edges());
  MapReduceEnv env;
  auto plain = MrDirectedDegreeJob(env, arcs);
  VectorRecordSource<NodeId, NodeId> source(arcs);
  JobStats stats;
  auto combined = MrDirectedDegreeJobCombined(env, source, JobOptions{}, &stats);
  ASSERT_TRUE(combined.ok());

  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(plain.begin(), plain.end(), by_key);
  std::sort(combined->begin(), combined->end(), by_key);
  ASSERT_EQ(plain.size(), combined->size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].key, (*combined)[i].key);
    EXPECT_EQ(plain[i].value, (*combined)[i].value);
  }
  EXPECT_LT(stats.combine_output_records, stats.map_output_records);
}

TEST(MapInputIoChargeTest, StreamBackedJobsChargeDfsBytes) {
  EdgeList edges = ErdosRenyiGnm(200, 1200, 31);
  EdgeListStream stream(edges);
  PassCursor cursor(stream);
  StreamRecordSource source(cursor);
  MapReduceEnv env;
  JobStats stats;
  auto degrees = MrDegreeJobCombined(env, source, JobOptions{}, &stats);
  ASSERT_TRUE(degrees.ok());
  // One full scan: exactly the modeled wire size per record, regardless of
  // the backend that served the edges.
  EXPECT_EQ(stats.map_input_bytes,
            edges.num_edges() * StreamRecordSource::kDfsRecordBytes);
  EXPECT_EQ(source.bytes_scanned(), stats.map_input_bytes);

  // A second job over the same source is charged its own scan, not the
  // cumulative total.
  JobStats stats2;
  auto count = MrCountEdgesJob(env, source, JobOptions{}, &stats2);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(stats2.map_input_bytes,
            edges.num_edges() * StreamRecordSource::kDfsRecordBytes);
  EXPECT_EQ(source.bytes_scanned(), 2 * stats2.map_input_bytes);
}

TEST(MapInputIoChargeTest, InMemoryJobsChargeNothing) {
  EdgeList edges = ErdosRenyiGnm(100, 500, 33);
  MrEdges records = ToMrEdges(edges.edges());
  MapReduceEnv env;
  JobStats stats;
  MrDegreeJobCombined(env, records, &stats);
  EXPECT_EQ(stats.map_input_bytes, 0u);
}

TEST(MapInputIoChargeTest, SimulatedSecondsIncludeScanIo) {
  CostModel model;
  JobStats stats;
  stats.map_input_records = 1000;
  const double without = SimulateJobSeconds(model, stats);
  stats.map_input_bytes = 1 << 30;
  const double with = SimulateJobSeconds(model, stats);
  EXPECT_NEAR(with - without,
              model.skew_factor * static_cast<double>(stats.map_input_bytes) *
                  model.map_input_seconds_per_byte /
                  std::max(1, model.num_mappers),
              1e-12);
}

TEST(MapInputIoChargeTest, DriverTotalsCoverEveryInputScan) {
  // The undirected driver's pass-1 jobs each scan the stream; the charged
  // bytes must equal input_scans full scans of the edge file.
  EdgeList edges = ErdosRenyiGnm(150, 800, 35);
  EdgeListStream stream(edges);
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto r = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->input_scans, 0u);
  EXPECT_EQ(r->totals.map_input_bytes,
            r->input_scans * edges.num_edges() *
                StreamRecordSource::kDfsRecordBytes);
}

/// Winner-tree stress: dozens of spilled runs per partition with heavy
/// key duplication across runs — the merge-read order (and with it the
/// grouped value order) must be byte-identical to the in-memory path the
/// tree replaces.
TEST(SpillShuffleTest, ManyRunsWithDuplicateKeysMergeIdentically) {
  std::vector<KV<NodeId, NodeId>> records;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    // 16 distinct keys over 20k records: every run holds every key.
    records.push_back(
        {static_cast<NodeId>(rng.UniformU64(16)), static_cast<NodeId>(i)});
  }
  auto run_with_budget = [&](uint64_t budget) {
    JobOptions opts;
    opts.spill_budget_bytes = budget;
    opts.num_partitions = 2;
    ShuffleWriter<NodeId, NodeId> shuffle(opts.num_partitions, opts);
    // Many tiny appends => many sorted runs per partition.
    for (size_t i = 0; i < records.size(); i += 100) {
      std::vector<KV<NodeId, NodeId>> chunk(
          records.begin() + i,
          records.begin() + std::min(records.size(), i + 100));
      EXPECT_TRUE(shuffle.Append(std::move(chunk)).ok());
    }
    std::vector<std::pair<NodeId, std::vector<NodeId>>> groups;
    std::vector<NodeId> values;
    for (size_t p = 0; p < shuffle.num_partitions(); ++p) {
      EXPECT_TRUE(shuffle
                      .ReducePartition(p, &values,
                                       [&](NodeId key,
                                           const std::vector<NodeId>& vs) {
                                         groups.emplace_back(key, vs);
                                       })
                      .ok());
    }
    return std::make_pair(shuffle.spill_runs(), groups);
  };
  auto [runs_spilled, spilled] = run_with_budget(1024);  // every append spills
  auto [runs_memory, in_memory] = run_with_budget(0);
  EXPECT_GT(runs_spilled, 50u);
  EXPECT_EQ(runs_memory, 0u);
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].first, in_memory[i].first) << "group " << i;
    EXPECT_EQ(spilled[i].second, in_memory[i].second) << "group " << i;
  }
}

// ---- The pass that ends a run runs no removal job. ----

uint64_t MrJobsRun() {
  return obs::MetricsRegistry::Get().GetCounter("mr.jobs").Value();
}

TEST(MrRemovalJobTest, OnePassRunScansTwiceAndRunsTwoJobs) {
  // At eps = 1 this graph peels every node on pass 1, so nothing reads the
  // removal jobs' survivors: the density and degree jobs are the whole run.
  const std::string path = ::testing::TempDir() + "/mr_one_pass.bin";
  EdgeList el = ErdosRenyiGnm(2000, 40000, 7);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 1.0;
  const uint64_t jobs_before = MrJobsRun();
  auto mr = RunMrDensestUndirected(env, **stream, opt);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  ASSERT_EQ(mr->result.passes, 1u);
  EXPECT_EQ(mr->input_scans, 2u);
  EXPECT_EQ(MrJobsRun() - jobs_before, 2u);
  std::remove(path.c_str());
}

TEST(MrRemovalJobTest, MultiPassRunSkipsOnlyTheLastPassRemoval) {
  // Every pass of these runs reads edges and peels nodes (asserted on the
  // trace), so each pass but the last runs its removal jobs: 4 jobs per
  // undirected pass and 3 per directed pass, less the last pass's 2 and 1.
  MapReduceEnv env;
  EdgeList el = ErdosRenyiGnm(100, 600, 42);
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  uint64_t jobs_before = MrJobsRun();
  auto mr = RunMrDensestUndirected(env, el, opt);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  const uint64_t passes = mr->result.passes;
  ASSERT_GT(passes, 1u);
  for (const PassSnapshot& s : mr->result.trace) {
    ASSERT_GT(s.edges, 0u) << "pass " << s.pass;
    ASSERT_GT(s.removed, 0u) << "pass " << s.pass;
  }
  EXPECT_EQ(MrJobsRun() - jobs_before, 4 * passes - 2);

  EdgeList arcs = ErdosRenyiDirectedGnm(200, 3000, 51);
  MrDirectedOptions directed_opt;
  directed_opt.c = 1.0;
  directed_opt.epsilon = 0.5;
  jobs_before = MrJobsRun();
  auto directed = RunMrDensestDirected(env, arcs, directed_opt);
  ASSERT_TRUE(directed.ok()) << directed.status().ToString();
  const uint64_t directed_passes = directed->result.passes;
  ASSERT_GT(directed_passes, 1u);
  for (const DirectedPassSnapshot& s : directed->result.trace) {
    ASSERT_GT(s.weight, 0.0) << "pass " << s.pass;
    ASSERT_GT(s.removed, 0u) << "pass " << s.pass;
  }
  EXPECT_EQ(MrJobsRun() - jobs_before, 3 * directed_passes - 1);
}

}  // namespace
}  // namespace densest
