// Cooperative-cancellation tests: the CancelToken itself (manual cancel,
// monotonic deadlines, the null-token helpers), then every engine that
// accepts a token driven with a pre-tripped one — each must return
// kCancelled/kDeadlineExceeded instead of a truncated "result", and leave
// nothing behind (spill directories, stuck threads, unsettled engines).

#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/multi_run.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "flow/goldberg.h"
#include "gen/erdos_renyi.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "mapreduce/job.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

// ------------------------------------------------------------- the token --

TEST(CancelTokenTest, ManualCancelIsStickyAndIdempotent) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.should_stop());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.should_stop());
  const Status s = token.Check();
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_TRUE(s.IsCancellation());
}

TEST(CancelTokenTest, DeadlineExpiresAndReportsDeadlineExceeded) {
  const CancelToken expired = CancelToken::WithDeadlineAfterMs(0.0);
  EXPECT_TRUE(expired.deadline_expired());
  EXPECT_TRUE(expired.should_stop());
  EXPECT_EQ(expired.Check().code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(expired.Check().IsCancellation());

  const CancelToken far =
      CancelToken::WithDeadlineAfter(std::chrono::hours(24));
  EXPECT_FALSE(far.should_stop());
  EXPECT_TRUE(far.Check().ok());
}

TEST(CancelTokenTest, ManualCancelWinsOverExpiredDeadline) {
  CancelToken token = CancelToken::WithDeadlineAfterMs(0.0);
  token.Cancel();
  // Both conditions hold; the explicit cancel is the more specific report.
  EXPECT_EQ(token.Check().code(), Status::Code::kCancelled);
}

TEST(CancelTokenTest, NullTokenHelpersNeverStop) {
  EXPECT_FALSE(ShouldStop(nullptr));
  EXPECT_TRUE(CheckCancel(nullptr).ok());
  CancelToken token;
  EXPECT_FALSE(ShouldStop(&token));
  token.Cancel();
  EXPECT_TRUE(ShouldStop(&token));
  EXPECT_FALSE(CheckCancel(&token).ok());
}

TEST(CancelTokenTest, CancelFromAnotherThreadIsObserved) {
  CancelToken token;
  std::thread canceller([&token] { token.Cancel(); });
  canceller.join();
  EXPECT_TRUE(token.cancelled());
}

// ----------------------------------------------- batch peeling algorithms --

TEST(CancelTest, Algorithm1ReturnsCancelledNotTruncatedResult) {
  EdgeList edges = ErdosRenyiGnm(60, 600, 3);
  EdgeListStream stream(edges);
  CancelToken token;
  token.Cancel();
  Algorithm1Options opt;
  opt.cancel = &token;
  StatusOr<UndirectedDensestResult> r = RunAlgorithm1(stream, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
}

TEST(CancelTest, Algorithm2ReturnsCancelled) {
  EdgeList edges = ErdosRenyiGnm(60, 600, 4);
  EdgeListStream stream(edges);
  CancelToken token;
  token.Cancel();
  Algorithm2Options opt;
  opt.min_size = 5;
  opt.cancel = &token;
  StatusOr<UndirectedDensestResult> r = RunAlgorithm2(stream, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
}

TEST(CancelTest, Algorithm3AndCSearchReturnCancelled) {
  EdgeList arcs = ErdosRenyiGnm(50, 500, 5);
  CancelToken token;
  token.Cancel();
  {
    EdgeListStream stream(arcs);
    Algorithm3Options opt;
    opt.c = 1.0;
    opt.cancel = &token;
    StatusOr<DirectedDensestResult> r = RunAlgorithm3(stream, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
  }
  {
    EdgeListStream stream(arcs);
    CSearchOptions opt;
    opt.cancel = &token;
    StatusOr<CSearchResult> r = RunCSearch(stream, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
  }
}

TEST(CancelTest, DeadlineTokenDeadlineExceededPropagates) {
  EdgeList edges = ErdosRenyiGnm(60, 600, 6);
  EdgeListStream stream(edges);
  const CancelToken expired = CancelToken::WithDeadlineAfterMs(0.0);
  Algorithm1Options opt;
  opt.cancel = &expired;
  StatusOr<UndirectedDensestResult> r = RunAlgorithm1(stream, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(r.status().IsCancellation());
}

TEST(CancelTest, UncancelledTokenChangesNothing) {
  EdgeList edges = ErdosRenyiGnm(60, 600, 7);
  CancelToken token;  // never tripped
  Algorithm1Options with, without;
  with.cancel = &token;
  EdgeListStream s1(edges), s2(edges);
  StatusOr<UndirectedDensestResult> a = RunAlgorithm1(s1, with);
  StatusOr<UndirectedDensestResult> b = RunAlgorithm1(s2, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->density, b->density);  // bit-for-bit: polls must not perturb
  EXPECT_EQ(a->nodes.size(), b->nodes.size());
}

// CSR views take the row-pull schedule, which polls once per row shard
// instead of once per record round: the same contract must hold there.
void ExpectCsrRunsStop(const CancelToken& token, Status::Code code) {
  EdgeList edges = ErdosRenyiGnm(400, 40000, 9);
  const UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);
  const DirectedGraph d = DirectedGraph::FromEdgeList(edges);
  {
    Algorithm1Options opt;
    opt.cancel = &token;
    StatusOr<UndirectedDensestResult> r = RunAlgorithm1(g, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
  }
  {
    UndirectedGraphStream stream(g);
    Algorithm1Options base;
    base.cancel = &token;
    auto r = RunAlgorithm1EpsilonSweep(stream, base, {0.0, 0.5, 1.0});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
  }
  {
    CSearchOptions opt;
    opt.cancel = &token;
    StatusOr<CSearchResult> r = RunCSearch(d, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
  }
}

TEST(CancelTest, CsrRunsReturnCancelled) {
  CancelToken token;
  token.Cancel();
  ExpectCsrRunsStop(token, Status::Code::kCancelled);
}

TEST(CancelTest, CsrRunsReturnDeadlineExceeded) {
  const CancelToken expired = CancelToken::WithDeadlineAfterMs(0.0);
  ExpectCsrRunsStop(expired, Status::Code::kDeadlineExceeded);
}

// -------------------------------------------------------- exact flow path --

TEST(CancelTest, GoldbergReturnsCancelledNeverAPartialCut) {
  EdgeList edges = ErdosRenyiGnm(40, 300, 8);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);
  CancelToken token;
  token.Cancel();
  ExactDensestOptions opt;
  opt.cancel = &token;
  StatusOr<ExactDensestResult> r = ExactDensestSubgraph(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);

  const CancelToken expired = CancelToken::WithDeadlineAfterMs(0.0);
  ExactDensestOptions dopt;
  dopt.cancel = &expired;
  StatusOr<ExactDensestResult> d = ExactDensestSubgraph(g, dopt);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), Status::Code::kDeadlineExceeded);
}

// -------------------------------------------------------------- mapreduce --

TEST(CancelTest, MapReduceJobReturnsCancelled) {
  MapReduceEnv env;
  std::vector<KV<uint32_t, uint32_t>> input;
  for (uint32_t i = 0; i < 1000; ++i) input.push_back({i, i % 7});
  VectorRecordSource<uint32_t, uint32_t> source(input);
  CancelToken token;
  token.Cancel();
  JobOptions opt;
  opt.cancel = &token;
  StatusOr<std::vector<KV<uint32_t, uint64_t>>> r =
      RunJobOnSource<uint32_t, uint32_t, uint32_t, uint64_t>(
          env, source, opt,
          [](const uint32_t&, const uint32_t& group,
             Emitter<uint32_t, uint32_t>& emit) { emit.Emit(group, 1); },
          NoCombiner,
          [](const uint32_t& key, const std::vector<uint32_t>& ones,
             Emitter<uint32_t, uint64_t>& emit) {
            emit.Emit(key, ones.size());
          });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
}

TEST(CancelTest, CancelledSpillingJobRemovesItsSpillFiles) {
  // Cancel from inside the map function once the shuffle has provably
  // spilled: the job must return kCancelled at the next round boundary
  // AND leave nothing behind in its spill directory.
  namespace fs = std::filesystem;
  const fs::path spill_dir =
      fs::temp_directory_path() /
      ("cancel_spill_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(spill_dir);

  MapReduceEnv env;
  std::vector<KV<uint32_t, uint32_t>> input;
  for (uint32_t i = 0; i < 20000; ++i) input.push_back({i, i});
  VectorRecordSource<uint32_t, uint32_t> source(input);
  CancelToken token;
  JobOptions opt;
  opt.cancel = &token;
  opt.spill_budget_bytes = 1024;  // force early, frequent spilling
  opt.spill_dir = spill_dir.string();
  opt.map_chunk_records = 256;  // many rounds => many cancel polls
  std::atomic<uint64_t> mapped{0};
  std::atomic<uint64_t> files_at_cancel{0};
  StatusOr<std::vector<KV<uint32_t, uint64_t>>> r =
      RunJobOnSource<uint32_t, uint32_t, uint32_t, uint64_t>(
          env, source, opt,
          [&](const uint32_t& k, const uint32_t& v,
              Emitter<uint32_t, uint32_t>& emit) {
            // Trip the token mid-map, well after the budget forced spills;
            // record how many spill files exist at that instant so the
            // cleanup assertion below is provably non-vacuous.
            if (mapped.fetch_add(1) == 8000) {
              uint64_t files = 0;
              for (const auto& entry : fs::directory_iterator(spill_dir)) {
                (void)entry;
                ++files;
              }
              files_at_cancel.store(files);
              token.Cancel();
            }
            emit.Emit(k % 97, v);
          },
          NoCombiner,
          [](const uint32_t& key, const std::vector<uint32_t>& vals,
             Emitter<uint32_t, uint64_t>& emit) {
            emit.Emit(key, vals.size());
          });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
  EXPECT_GT(files_at_cancel.load(), 0u)
      << "budget never forced a spill; the cleanup check proves nothing";
  // The early return destroyed the shuffle and with it every SpillFile.
  uint64_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(spill_dir)) {
    (void)entry;
    ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u) << "cancelled job leaked spill files";
  fs::remove_all(spill_dir);
}

// ----------------------------------------------------------- replay driver --

TEST(CancelTest, ReplayStopsSettledAndQueryable) {
  EdgeList edges = ErdosRenyiGnm(40, 400, 9);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream updates(base, 100);
  auto engine = DynamicDensest::Create(40);
  ASSERT_TRUE(engine.ok());
  CancelToken token;
  token.Cancel();
  ReplayOptions opt;
  opt.cancel = &token;
  StatusOr<ReplayReport> r = ReplayUpdates(updates, **engine, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCancelled);
  // The abort left the engine settled: a query still serves a certified
  // answer over whatever prefix was applied.
  const DynamicDensest::Answer a = (*engine)->Query();
  EXPECT_TRUE(a.certified);
}

}  // namespace
}  // namespace densest
