// Copyright 2026 The densest Authors.
// Unit tests for the serving front-end: the batched QueryBatch surface
// over an AnswerPlane, its deadline/cancel/backpressure status contract,
// the serve.enqueue fault seam, the SLO counters, and
// the unified Answer type the whole query surface now shares.

#include "serve/query_service.h"

#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "core/algorithm1.h"
#include "core/answer.h"
#include "core/density.h"
#include "dynamic/dynamic_densest.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "serve/answer_plane.h"

namespace densest {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (Failpoints::compiled_in()) Failpoints::Instance().ClearAll();
  }
  void TearDown() override {
    if (Failpoints::compiled_in()) Failpoints::Instance().ClearAll();
  }
};

Answer MakeAnswer(double density, double upper_bound, NodeId size) {
  Answer a;
  a.density = density;
  a.upper_bound = upper_bound;
  a.size = size;
  return a;
}

TEST_F(QueryServiceTest, EmptyPlaneServesTheDefaultAnswer) {
  AnswerPlane plane(8);
  QueryService service(plane, {});
  const std::vector<ServeQuery> queries = {
      {ServeQuery::Kind::kDensity, 0},
      {ServeQuery::Kind::kMembership, 3},
      {ServeQuery::Kind::kSnapshot, 0},
  };
  std::vector<ServeResult> results;
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  ASSERT_EQ(results.size(), 3u);
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.answer.epoch, 0u);
    EXPECT_EQ(r.answer.density, 0.0);
    EXPECT_EQ(r.answer.size, 0u);
    // The pre-publication plane is the empty graph's answer: certified
    // (rho* = 0 <= 0), exactly Answer's own default.
    EXPECT_TRUE(r.answer.certified);
    EXPECT_FALSE(r.answer.stale);
  }
  EXPECT_FALSE(results[1].member);
  EXPECT_TRUE(results[2].nodes.empty());
  EXPECT_EQ(results[2].prefix_updates, 0u);
}

TEST_F(QueryServiceTest, ServesThePublishedState) {
  AnswerPlane plane(10);
  const std::vector<NodeId> members = {1, 4, 6};
  plane.Publish(MakeAnswer(1.5, 4.5, 3), members, 42);

  QueryService service(plane, {});
  const std::vector<ServeQuery> queries = {
      {ServeQuery::Kind::kDensity, 0},
      {ServeQuery::Kind::kMembership, 4},
      {ServeQuery::Kind::kMembership, 5},
      {ServeQuery::Kind::kSnapshot, 0},
  };
  std::vector<ServeResult> results;
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  ASSERT_EQ(results.size(), 4u);
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.answer.epoch, 1u);
    EXPECT_DOUBLE_EQ(r.answer.density, 1.5);
    EXPECT_DOUBLE_EQ(r.answer.upper_bound, 4.5);
    EXPECT_EQ(r.answer.size, 3u);
    EXPECT_TRUE(r.answer.certified);
  }
  EXPECT_TRUE(results[1].member);
  EXPECT_FALSE(results[2].member);
  EXPECT_EQ(results[3].nodes, members);
  EXPECT_EQ(results[3].prefix_updates, 42u);

  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(stats.queries_served, 4u);
  EXPECT_EQ(stats.shed, 0u);
  // Every served query lands in the service's latency histogram.
  EXPECT_GT(stats.latency_p50_us, 0);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
}

TEST_F(QueryServiceTest, RepublishingMovesTheEpoch) {
  AnswerPlane plane(6);
  plane.Publish(MakeAnswer(1.0, 2.0, 2), std::vector<NodeId>{0, 1}, 10);
  plane.Publish(MakeAnswer(2.0, 4.0, 3), std::vector<NodeId>{0, 1, 5}, 20);

  QueryService service(plane, {});
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kSnapshot, 0}};
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].answer.epoch, 2u);
  EXPECT_DOUBLE_EQ(results[0].answer.density, 2.0);
  EXPECT_EQ(results[0].nodes, (std::vector<NodeId>{0, 1, 5}));
  EXPECT_EQ(results[0].prefix_updates, 20u);
}

TEST_F(QueryServiceTest, EmptyBatchIsOkAndNullResultsRejected) {
  AnswerPlane plane(4);
  QueryService service(plane, {});
  std::vector<ServeResult> results = {ServeResult{}};
  EXPECT_TRUE(service.QueryBatch({}, &results).ok());
  EXPECT_TRUE(results.empty());  // cleared even for the empty batch
  EXPECT_EQ(service
                .QueryBatch(std::vector<ServeQuery>{{ServeQuery::Kind::kDensity,
                                                     0}},
                            nullptr)
                .code(),
            Status::Code::kInvalidArgument);
}

TEST_F(QueryServiceTest, CancelledTokenRejectsTheBatch) {
  AnswerPlane plane(4);
  QueryService service(plane, {});
  CancelToken cancelled;
  cancelled.Cancel();
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kDensity, 0}};
  EXPECT_EQ(service.QueryBatch(queries, &results, &cancelled).code(),
            Status::Code::kCancelled);
}

TEST_F(QueryServiceTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  AnswerPlane plane(4);
  QueryService service(plane, {});
  const CancelToken expired = CancelToken::WithDeadlineAfterMs(0);
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kDensity, 0}};
  EXPECT_EQ(service.QueryBatch(queries, &results, &expired).code(),
            Status::Code::kDeadlineExceeded);

  // A deadline that passes mid-batch: 200 snapshots of a 2^20-node plane
  // outlast 1 ms by far, so the batch stops where the deadline finds it
  // and hands back nothing.
  constexpr NodeId kBigNodes = NodeId{1} << 20;
  AnswerPlane big_plane(kBigNodes);
  std::vector<NodeId> every_other;
  for (NodeId v = 0; v < kBigNodes; v += 2) every_other.push_back(v);
  big_plane.Publish(
      MakeAnswer(1.0, 3.0, static_cast<NodeId>(every_other.size())),
      every_other, 1);
  QueryService big_service(big_plane, {});
  const std::vector<ServeQuery> snapshots(
      200, ServeQuery{ServeQuery::Kind::kSnapshot, 0});
  const CancelToken one_ms = CancelToken::WithDeadlineAfterMs(1);
  EXPECT_EQ(big_service.QueryBatch(snapshots, &results, &one_ms).code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(results.empty());
  const QueryServiceStats stats = big_service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.batches_served, 0u);
  big_service.Stop();
}

TEST_F(QueryServiceTest, OptionsTokenAppliesWhenCallPassesNone) {
  AnswerPlane plane(4);
  CancelToken cancelled;
  cancelled.Cancel();
  QueryServiceOptions opt;
  opt.cancel = &cancelled;
  QueryService service(plane, opt);
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kDensity, 0}};
  EXPECT_EQ(service.QueryBatch(queries, &results).code(),
            Status::Code::kCancelled);
}

TEST_F(QueryServiceTest, SubmitAfterStopShedsWithUnavailable) {
  AnswerPlane plane(4);
  QueryService service(plane, {});
  service.Stop();
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kDensity, 0}};
  EXPECT_EQ(service.QueryBatch(queries, &results).code(),
            Status::Code::kUnavailable);
}

TEST_F(QueryServiceTest, EnqueueFailpointShedsAtAdmission) {
  if (!Failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  AnswerPlane plane(4);
  QueryService service(plane, {});
  ASSERT_TRUE(Failpoints::Instance().Set("serve.enqueue", "after=0").ok());
  std::vector<ServeResult> results;
  const std::vector<ServeQuery> queries = {{ServeQuery::Kind::kDensity, 0}};
  EXPECT_EQ(service.QueryBatch(queries, &results).code(),
            Status::Code::kUnavailable);
  EXPECT_EQ(service.stats().shed, 1u);
  EXPECT_GE(Failpoints::Instance().fires("serve.enqueue"), 1u);

  // Disarm: the very same batch now serves.
  Failpoints::Instance().Clear("serve.enqueue");
  ASSERT_TRUE(service.QueryBatch(queries, &results).ok());
  EXPECT_EQ(results.size(), 1u);
}

// --- The unified Answer surface (satellite of the serving redesign) ---

// DynamicDensest::Query, the serving plane, and batch ToAnswer() all speak
// the one ::densest::Answer.
static_assert(std::is_same_v<DynamicDensest::Answer, Answer>,
              "the dynamic engine's Answer must be the shared core type");

TEST(AnswerUnificationTest, BatchResultsCarryTheirCertifiedBand) {
  GraphBuilder b;
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) b.Add(i, j);
  }
  b.Add(5, 6);
  b.ReserveNodes(7);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();

  Algorithm1Options opt;
  opt.epsilon = 0.25;
  auto r = RunAlgorithm1(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->certified_band, 2.0 * (1.0 + opt.epsilon));  // Lemma 1

  const Answer a = r->ToAnswer();
  EXPECT_TRUE(a.certified);
  EXPECT_DOUBLE_EQ(a.density, r->density);
  EXPECT_DOUBLE_EQ(a.upper_bound, r->certified_band * r->density);
  EXPECT_EQ(a.size, static_cast<NodeId>(r->nodes.size()));
  EXPECT_FALSE(a.stale);
  EXPECT_EQ(a.epoch, 0u);  // batch answers are never plane publications
}

TEST(AnswerUnificationTest, BandlessResultsAreUncertified) {
  UndirectedDensestResult r;
  r.density = 2.0;
  r.nodes = {0, 1, 2};
  // certified_band stays 0: e.g. the sketched variant, whose oracle
  // estimates void the deterministic peeling proof.
  const Answer a = r.ToAnswer();
  EXPECT_FALSE(a.certified);
  EXPECT_EQ(a.upper_bound, 0.0);
  EXPECT_DOUBLE_EQ(a.density, 2.0);
  EXPECT_EQ(a.size, 3u);
}

}  // namespace
}  // namespace densest
