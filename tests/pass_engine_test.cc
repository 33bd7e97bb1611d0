// Unit tests for the batched pass engine and the stream read contract:
// every stream type must produce exactly the same edge sequence through
// NextView and NextBatch as through repeated Next, and PassEngine results
// — record rounds and CSR row pulls alike — must be bit-identical
// regardless of thread count, match the sequential stream-order pass
// exactly on record streams, and survive aborted passes on a reused
// engine.

#include "core/pass_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

std::vector<Edge> DrainScalar(EdgeStream& s) {
  std::vector<Edge> out;
  s.Reset();
  Edge e;
  while (s.Next(&e)) out.push_back(e);
  return out;
}

std::vector<Edge> DrainBatched(EdgeStream& s, size_t cap) {
  std::vector<Edge> out;
  std::vector<Edge> buf(cap);
  s.Reset();
  size_t got;
  while ((got = s.NextBatch(buf.data(), cap)) > 0) {
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  return out;
}

std::vector<Edge> DrainViews(EdgeStream& s, size_t cap) {
  std::vector<Edge> out;
  std::vector<Edge> scratch(cap);
  s.Reset();
  for (;;) {
    std::span<const Edge> view = s.NextView(scratch.data(), cap);
    if (view.empty()) break;
    EXPECT_LE(view.size(), cap);
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

/// NextBatch and NextView must reproduce the Next sequence for a capacity
/// that divides the stream length unevenly (exercising the partial final
/// batch), a capacity of one, and a capacity larger than the whole stream;
/// a cap == 0 view is empty and consumes nothing wherever it comes.
void ExpectBatchMatchesScalar(EdgeStream& s) {
  const std::vector<Edge> scalar = DrainScalar(s);
  for (size_t cap : {size_t{1}, size_t{7}, scalar.size() + 13}) {
    EXPECT_EQ(DrainBatched(s, cap), scalar) << "cap=" << cap;
    EXPECT_EQ(DrainViews(s, cap), scalar) << "view cap=" << cap;
  }
  std::vector<Edge> with_zero_caps;
  s.Reset();
  Edge e;
  for (;;) {
    EXPECT_TRUE(s.NextView(&e, 0).empty());
    if (!s.Next(&e)) break;
    with_zero_caps.push_back(e);
  }
  EXPECT_EQ(with_zero_caps, scalar);
  // The scalar path still works after batched passes (shared cursor).
  EXPECT_EQ(DrainScalar(s), scalar);
}

TEST(NextBatchContractTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(50, 200, 1);
  EdgeListStream s(el);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, EmptyEdgeListStream) {
  EdgeList el(5);
  EdgeListStream s(el);
  Edge buf[4];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 4), 0u);
  EXPECT_TRUE(DrainBatched(s, 4).empty());
}

TEST(NextBatchContractTest, UndirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiGnm(40, 150, 2);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, UndirectedGraphStreamEmpty) {
  UndirectedGraph g;
  UndirectedGraphStream s(g);
  Edge buf[2];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 2), 0u);
}

TEST(NextBatchContractTest, DirectedGraphStream) {
  GraphBuilder b;
  EdgeList el = ErdosRenyiDirectedGnm(40, 150, 3);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, WeightedGraphStreams) {
  GraphBuilder b;
  Rng rng(7);
  EdgeList el = ErdosRenyiGnm(30, 80, 4);
  for (const Edge& e : el.edges()) b.Add(e.u, e.v, 0.5 + rng.UniformDouble());
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  ExpectBatchMatchesScalar(s);
}

class BinaryFileBatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(BinaryFileBatchTest, UnweightedFileStream) {
  path_ = ::testing::TempDir() + "/batch_unweighted.bin";
  EdgeList el = ErdosRenyiGnm(60, 300, 5);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  ExpectBatchMatchesScalar(**stream);
}

TEST_F(BinaryFileBatchTest, WeightedFileStream) {
  path_ = ::testing::TempDir() + "/batch_weighted.bin";
  EdgeList el(10);
  Rng rng(11);
  for (int i = 0; i < 57; ++i) {
    el.Add(static_cast<NodeId>(rng.UniformU64(10)),
           static_cast<NodeId>(rng.UniformU64(10)), rng.UniformDouble());
  }
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/true).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  ExpectBatchMatchesScalar(**stream);
}

TEST_F(BinaryFileBatchTest, EmptyFileStream) {
  path_ = ::testing::TempDir() + "/batch_empty.bin";
  EdgeList el(3);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Edge buf[4];
  (*stream)->Reset();
  EXPECT_EQ((*stream)->NextBatch(buf, 4), 0u);
}

TEST(NextBatchContractTest, GnpEdgeStream) {
  GnpEdgeStream s(100, 0.08, 17);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, GnpEdgeStreamEmpty) {
  GnpEdgeStream s(100, 0.0, 17);
  Edge buf[4];
  s.Reset();
  EXPECT_EQ(s.NextBatch(buf, 4), 0u);
}

TEST(NextBatchContractTest, CirculantEdgeStream) {
  CirculantEdgeStream s(101, 6);
  ExpectBatchMatchesScalar(s);
}

TEST(NextBatchContractTest, CachedGeneratorStreams) {
  // The first drain records the pass; every later read serves the cache.
  GnpEdgeStream gnp(100, 0.08, 17, /*materialize_budget_bytes=*/1 << 20);
  ExpectBatchMatchesScalar(gnp);
  EXPECT_GT(gnp.SizeHint(), 0u);  // serving from the cache
  GnpEdgeStream plain(100, 0.08, 17);
  EXPECT_EQ(DrainScalar(gnp), DrainScalar(plain));

  CirculantEdgeStream circulant(101, 6, /*materialize_budget_bytes=*/1 << 20);
  ExpectBatchMatchesScalar(circulant);
  CirculantEdgeStream ring(101, 6);
  EXPECT_EQ(DrainScalar(circulant), DrainScalar(ring));
}

TEST(NextBatchContractTest, CountingEdgeStream) {
  EdgeList el = ErdosRenyiGnm(50, 200, 1);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream s(inner, stats);
  ExpectBatchMatchesScalar(s);
  // Every read path counts through the one primitive: each pass drained
  // the whole stream once.
  EXPECT_GT(stats.passes, 0u);
  EXPECT_EQ(stats.edges_scanned, stats.passes * el.num_edges());
}

// ---------------------------------------------------------------------------
// PassEngine determinism and correctness.

/// Reference scalar pass (the seed implementation, kept here as the oracle).
UndirectedPassResult ScalarUndirectedPass(EdgeStream& stream,
                                          const NodeSet& alive,
                                          std::vector<double>& degrees) {
  std::fill(degrees.begin(), degrees.end(), 0.0);
  UndirectedPassResult out;
  stream.Reset();
  Edge e;
  while (stream.Next(&e)) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) {
      degrees[e.u] += e.w;
      degrees[e.v] += e.w;
      out.weight += e.w;
      ++out.edges;
    }
  }
  return out;
}

/// Reference scalar directed pass over the stream's records.
DirectedPassResult ScalarDirectedPass(EdgeStream& stream, const NodeSet& s,
                                      const NodeSet& t,
                                      std::vector<double>& out_to_t,
                                      std::vector<double>& in_from_s) {
  std::fill(out_to_t.begin(), out_to_t.end(), 0.0);
  std::fill(in_from_s.begin(), in_from_s.end(), 0.0);
  DirectedPassResult out;
  stream.Reset();
  Edge e;
  while (stream.Next(&e)) {
    if (s.Contains(e.u) && t.Contains(e.v)) {
      out_to_t[e.u] += e.w;
      in_from_s[e.v] += e.w;
      out.weight += e.w;
      ++out.arcs;
    }
  }
  return out;
}

NodeSet EveryThirdDead(NodeId n) {
  NodeSet alive(n, /*full=*/true);
  for (NodeId u = 0; u < n; u += 3) alive.Remove(u);
  return alive;
}

/// Two and a half record rounds of weighted records over n nodes, so
/// every run sums across round boundaries and the last round is partial.
EdgeList WeightedRecords(NodeId n, uint64_t seed) {
  EdgeList el(n);
  Rng rng(seed);
  const size_t records =
      PassEngine::kRoundShards * PassEngine::kShardEdges * 5 / 2 + 777;
  for (size_t i = 0; i < records; ++i) {
    el.Add(static_cast<NodeId>(rng.UniformU64(n)),
           static_cast<NodeId>(rng.UniformU64(n)),
           0.25 + rng.UniformDouble());
  }
  return el;
}

TEST(PassEngineTest, MatchesScalarReferenceUnweighted) {
  const NodeId n = 500;
  EdgeList el = ErdosRenyiGnm(n, 4000, 23);
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n), got(n);
  UndirectedPassResult ref = ScalarUndirectedPass(stream, alive, want);

  PassEngine engine(PassEngineOptions{.num_threads = 1});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
  EXPECT_EQ(r.edges, ref.edges);
  EXPECT_EQ(r.weight, ref.weight);  // unit weights: sums are exact
  EXPECT_EQ(got, want);
}

TEST(PassEngineTest, UndirectedIdenticalAcrossThreadCounts) {
  const NodeId n = 400;
  // Random weights: float addition order would show up immediately if the
  // sharded reduction depended on the thread count.
  EdgeList el = ErdosRenyiGnm(n, 5000, 31);
  Rng rng(43);
  for (Edge& e : el.mutable_edges()) e.w = rng.UniformDouble();
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> deg1(n);
  UndirectedPassResult r1 = one.RunUndirected(stream, alive, deg1);

  for (size_t threads : {2u, 4u, 8u}) {
    PassEngine many(PassEngineOptions{.num_threads = threads});
    std::vector<double> degN(n);
    UndirectedPassResult rN = many.RunUndirected(stream, alive, degN);
    EXPECT_EQ(rN.edges, r1.edges) << threads;
    EXPECT_EQ(rN.weight, r1.weight) << threads;  // bit-identical, not NEAR
    EXPECT_EQ(degN, deg1) << threads;
  }
}

TEST(PassEngineTest, DirectedIdenticalAcrossThreadCounts) {
  const NodeId n = 300;
  EdgeList el = ErdosRenyiDirectedGnm(n, 4000, 37);
  Rng rng(51);
  for (Edge& e : el.mutable_edges()) e.w = rng.UniformDouble();
  EdgeListStream stream(el);
  NodeSet s = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> out1(n), in1(n);
  DirectedPassResult r1 = one.RunDirected(stream, s, t, out1, in1);
  EXPECT_GT(r1.arcs, 0u);

  for (size_t threads : {2u, 4u}) {
    PassEngine many(PassEngineOptions{.num_threads = threads});
    std::vector<double> outN(n), inN(n);
    DirectedPassResult rN = many.RunDirected(stream, s, t, outN, inN);
    EXPECT_EQ(rN.arcs, r1.arcs) << threads;
    EXPECT_EQ(rN.weight, r1.weight) << threads;
    EXPECT_EQ(outN, out1) << threads;
    EXPECT_EQ(inN, in1) << threads;
  }
}

TEST(PassEngineTest, CollectPreservesStreamOrder) {
  const NodeId n = 200;
  EdgeList el = ErdosRenyiGnm(n, 3000, 41);
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  // Expected survivors: the filtered stream in original order.
  std::vector<Edge> want;
  for (const Edge& e : el.edges()) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) want.push_back(e);
  }

  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> degrees(n);
    std::vector<Edge> survivors;
    UndirectedPassResult r =
        engine.RunUndirected(stream, alive, degrees, nullptr, &survivors);
    EXPECT_EQ(r.edges, want.size()) << threads;
    EXPECT_EQ(survivors, want) << threads;
  }
}

TEST(PassEngineTest, BufferPassCompactsInPlace) {
  const NodeId n = 200;
  EdgeList el = ErdosRenyiGnm(n, 3000, 47);
  NodeSet alive = EveryThirdDead(n);

  std::vector<Edge> want;
  for (const Edge& e : el.edges()) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) want.push_back(e);
  }

  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<Edge> buffer = el.edges();
    std::vector<double> degrees(n);
    UndirectedPassResult r =
        engine.RunUndirectedBuffer(buffer, alive, degrees, /*compact=*/true);
    EXPECT_EQ(r.edges, want.size()) << threads;
    EXPECT_EQ(buffer, want) << threads;

    // A second pass over the compacted buffer sees the same statistics.
    std::vector<double> degrees2(n);
    UndirectedPassResult r2 =
        engine.RunUndirectedBuffer(buffer, alive, degrees2, /*compact=*/false);
    EXPECT_EQ(r2.edges, r.edges);
    EXPECT_EQ(degrees2, degrees);
  }

  // Weighted records over several rounds: the buffer pass adds the same
  // values in the same order as a stream pass over the same edges.
  const NodeId wn = 2000;
  const EdgeList weighted = WeightedRecords(wn, 317);
  EdgeListStream weighted_stream(weighted);
  const NodeSet weighted_alive = EveryThirdDead(wn);
  std::vector<double> want_degrees(wn);
  const UndirectedPassResult ref =
      ScalarUndirectedPass(weighted_stream, weighted_alive, want_degrees);
  std::vector<Edge> want_weighted;
  for (const Edge& e : weighted.edges()) {
    if (weighted_alive.ContainsBoth(e.u, e.v)) want_weighted.push_back(e);
  }
  for (size_t threads : {1u, 4u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<Edge> buffer = weighted.edges();
    std::vector<double> degrees(wn, -1.0);
    const UndirectedPassResult r = engine.RunUndirectedBuffer(
        buffer, weighted_alive, degrees, /*compact=*/true);
    EXPECT_EQ(r.edges, ref.edges) << threads;
    EXPECT_EQ(r.weight, ref.weight) << threads;  // bits, not NEAR
    EXPECT_EQ(degrees, want_degrees) << threads;
    EXPECT_EQ(buffer, want_weighted) << threads;
  }

  // A pass cancelled before its first round leaves the buffer unchanged.
  CancelToken cancelled;
  cancelled.Cancel();
  PassEngine engine(PassEngineOptions{.num_threads = 4});
  std::vector<Edge> buffer = weighted.edges();
  std::vector<double> degrees(wn);
  (void)engine.RunUndirectedBuffer(buffer, weighted_alive, degrees,
                                   /*compact=*/true, &cancelled);
  EXPECT_EQ(buffer, weighted.edges());
}

TEST(PassEngineTest, AlgorithmsIdenticalAcrossInjectedEngines) {
  // Algorithm-level determinism: private engines with different thread
  // counts must produce identical node sets and densities.
  EdgeList el = ErdosRenyiGnm(300, 3000, 77);
  EdgeListStream stream(el);

  PassEngine one(PassEngineOptions{.num_threads = 1});
  PassEngine four(PassEngineOptions{.num_threads = 4});

  Algorithm1Options a1;
  a1.engine = &one;
  auto r1 = RunAlgorithm1(stream, a1);
  a1.engine = &four;
  auto r4 = RunAlgorithm1(stream, a1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1->nodes, r4->nodes);
  EXPECT_EQ(r1->density, r4->density);
  EXPECT_EQ(r1->passes, r4->passes);

  EdgeList arcs = ErdosRenyiDirectedGnm(200, 2000, 78);
  EdgeListStream arc_stream(arcs);
  Algorithm3Options a3;
  a3.engine = &one;
  auto d1 = RunAlgorithm3(arc_stream, a3);
  a3.engine = &four;
  auto d4 = RunAlgorithm3(arc_stream, a3);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d4.ok());
  EXPECT_EQ(d1->s_nodes, d4->s_nodes);
  EXPECT_EQ(d1->t_nodes, d4->t_nodes);
  EXPECT_EQ(d1->density, d4->density);
}

TEST(PassEngineTest, EmptyStreamYieldsZeroes) {
  EdgeList el(10);
  EdgeListStream stream(el);
  NodeSet alive(10, /*full=*/true);
  std::vector<double> degrees(10, 99.0);
  PassEngine engine(PassEngineOptions{.num_threads = 2});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, degrees);
  EXPECT_EQ(r.edges, 0u);
  EXPECT_EQ(r.weight, 0.0);
  for (double d : degrees) EXPECT_EQ(d, 0.0);
}

TEST(PassEngineTest, MultiRoundStreamsSpanRounds) {
  // More edges than one round (kRoundShards * kShardEdges) to cover the
  // refill path and cross-round accumulator reuse.
  const size_t round = PassEngine::kRoundShards * PassEngine::kShardEdges;
  const NodeId n = 1000;
  EdgeList el(n);
  Rng rng(61);
  for (size_t i = 0; i < round + round / 3; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    el.Add(u, v);
  }
  EdgeListStream stream(el);
  NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n), got(n);
  UndirectedPassResult ref = ScalarUndirectedPass(stream, alive, want);
  PassEngine engine(PassEngineOptions{.num_threads = 4});
  UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
  EXPECT_EQ(r.edges, ref.edges);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// The record schedule: every run sums in stream order, so a pass over a
// record stream equals the seed's sequential loop bit for bit, weighted
// records included, on any thread count.

TEST(RecordScheduleTest, UndirectedMatchesReferenceBitForBit) {
  const NodeId n = 2000;
  const EdgeList el = WeightedRecords(n, 307);
  EdgeListStream stream(el);
  const NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n);
  const UndirectedPassResult ref = ScalarUndirectedPass(stream, alive, want);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> got(n, -1.0);
    const UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
    EXPECT_EQ(r.edges, ref.edges) << threads;
    EXPECT_EQ(r.weight, ref.weight) << threads;  // bits, not NEAR
    EXPECT_EQ(got, want) << threads;
  }
}

TEST(RecordScheduleTest, DirectedMatchesReferenceBitForBit) {
  const NodeId n = 2000;
  const EdgeList el = WeightedRecords(n, 311);
  EdgeListStream stream(el);
  const NodeSet s = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);

  std::vector<double> want_out(n), want_in(n);
  const DirectedPassResult ref =
      ScalarDirectedPass(stream, s, t, want_out, want_in);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> out(n, -1.0), in(n, -1.0);
    const DirectedPassResult r = engine.RunDirected(stream, s, t, out, in);
    EXPECT_EQ(r.arcs, ref.arcs) << threads;
    EXPECT_EQ(r.weight, ref.weight) << threads;
    EXPECT_EQ(out, want_out) << threads;
    EXPECT_EQ(in, want_in) << threads;
  }
}

// ---------------------------------------------------------------------------
// Aborted passes leave nothing behind in a reused engine.

/// Cancels `token` as it hands out its third chunk of a pass: the pass
/// has accumulated part of the stream when the engine notices.
class CancelAfterThirdChunk final : public EdgeStream {
 public:
  CancelAfterThirdChunk(EdgeStream& inner, CancelToken& token)
      : inner_(inner), token_(token) {}

  void Reset() override {
    inner_.Reset();
    chunks_ = 0;
  }
  std::span<const Edge> NextView(Edge* scratch, size_t cap) override {
    std::span<const Edge> view = inner_.NextView(scratch, cap);
    if (!view.empty() && ++chunks_ == 3) token_.Cancel();
    return view;
  }
  NodeId num_nodes() const override { return inner_.num_nodes(); }

 private:
  EdgeStream& inner_;
  CancelToken& token_;
  int chunks_ = 0;
};

/// What RunUndirected, RunDirected and RunAlgorithm1 produce on `engine`.
struct PassBits {
  UndirectedPassResult undirected;
  std::vector<double> degrees;
  DirectedPassResult directed;
  std::vector<double> out_to_t, in_from_s;
  UndirectedDensestResult alg1;
};

PassBits RunHealthy(PassEngine& engine, EdgeStream& stream) {
  const NodeId n = stream.num_nodes();
  const NodeSet alive = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);
  PassBits bits;
  bits.degrees.assign(n, -1.0);
  bits.undirected = engine.RunUndirected(stream, alive, bits.degrees);
  bits.out_to_t.assign(n, -1.0);
  bits.in_from_s.assign(n, -1.0);
  bits.directed =
      engine.RunDirected(stream, alive, t, bits.out_to_t, bits.in_from_s);
  Algorithm1Options options;
  options.engine = &engine;
  auto alg1 = RunAlgorithm1(stream, options);
  EXPECT_TRUE(alg1.ok()) << alg1.status().ToString();
  if (alg1.ok()) bits.alg1 = std::move(*alg1);
  return bits;
}

void ExpectSameBits(const PassBits& got, const PassBits& want,
                    const std::string& label) {
  EXPECT_EQ(got.undirected.edges, want.undirected.edges) << label;
  EXPECT_EQ(got.undirected.weight, want.undirected.weight) << label;
  EXPECT_EQ(got.degrees, want.degrees) << label;
  EXPECT_EQ(got.directed.arcs, want.directed.arcs) << label;
  EXPECT_EQ(got.directed.weight, want.directed.weight) << label;
  EXPECT_EQ(got.out_to_t, want.out_to_t) << label;
  EXPECT_EQ(got.in_from_s, want.in_from_s) << label;
  EXPECT_EQ(got.alg1.density, want.alg1.density) << label;
  EXPECT_EQ(got.alg1.passes, want.alg1.passes) << label;
  EXPECT_EQ(got.alg1.nodes, want.alg1.nodes) << label;
}

TEST(AbortedPassTest, EngineScratchStaysClean) {
  const NodeId n = 1500;
  const std::string path = ::testing::TempDir() + "/aborted_pass.bin";
  for (bool weighted : {false, true}) {
    EdgeList el = WeightedRecords(n, 313);
    if (!weighted) {
      for (Edge& e : el.mutable_edges()) e.w = 1.0;
    }
    EdgeListStream healthy(el);
    // A file that ends mid-stream: the pass fails with an IO error after
    // accumulating the records before the cut.
    ASSERT_TRUE(WriteBinaryEdgeFile(path, el, weighted).ok());
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) * 3 / 5);
    auto truncated = BinaryFileEdgeStream::Open(path);
    ASSERT_TRUE(truncated.ok());

    for (size_t threads : {1u, 4u}) {
      const std::string label = std::string(weighted ? "weighted" : "unit") +
                                " threads=" + std::to_string(threads);
      PassEngine engine(PassEngineOptions{.num_threads = threads});
      const NodeSet all(n, /*full=*/true);
      std::vector<double> a(n), b(n);

      CancelToken token;
      CancelAfterThirdChunk cancelling(healthy, token);
      (void)engine.RunUndirected(cancelling, all, a, &token);
      EXPECT_TRUE(token.cancelled()) << label;
      CancelToken directed_token;
      CancelAfterThirdChunk cancelling_arcs(healthy, directed_token);
      (void)engine.RunDirected(cancelling_arcs, all, all, a, b,
                               &directed_token);
      EXPECT_TRUE(directed_token.cancelled()) << label;
      (void)engine.RunUndirected(**truncated, all, a);
      EXPECT_FALSE((*truncated)->status().ok()) << label;
      (void)engine.RunDirected(**truncated, all, all, a, b);
      Algorithm1Options aborted;
      aborted.engine = &engine;
      EXPECT_FALSE(RunAlgorithm1(**truncated, aborted).ok()) << label;

      PassEngine fresh(PassEngineOptions{.num_threads = threads});
      ExpectSameBits(RunHealthy(engine, healthy), RunHealthy(fresh, healthy),
                     label);
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Row-pull kernels over CSR views.

/// Enough edges for several row shards (2 * kShardEdges entries each),
/// with self-loops and parallel edges kept. `weighted` draws weights in
/// [0.25, 1.25).
EdgeList PullTestEdges(NodeId n, bool weighted, uint64_t seed) {
  EdgeList el = ErdosRenyiGnm(n, 5 * PassEngine::kShardEdges, seed);
  Rng rng(seed + 1);
  for (int i = 0; i < 300; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    el.Add(u, u);  // self-loop
    el.Add(u, (u + 1) % n);  // parallel to an existing edge, or a new one
  }
  if (weighted) {
    for (Edge& e : el.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  }
  return el;
}

void ExpectRelNear(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::max(1.0, std::abs(want)))
      << what << ": " << got << " vs " << want;
}

void CheckUndirectedPull(bool weighted) {
  const NodeId n = 3000;
  UndirectedGraph g =
      UndirectedGraph::FromEdgeList(PullTestEdges(n, weighted, 211));
  ASSERT_TRUE(g.has_self_loops());
  ASSERT_EQ(g.is_weighted(), weighted);
  UndirectedGraphStream stream(g);
  // Enough shards that every thread count below pulls several at once.
  ASSERT_GE(CsrView::Of(stream).shards.size(), 4u);
  NodeSet alive = EveryThirdDead(n);

  std::vector<double> want(n);
  const UndirectedPassResult ref =
      ScalarUndirectedPass(stream, alive, want);

  std::vector<double> deg1;
  UndirectedPassResult r1{};
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> got(n, -1.0);
    const UndirectedPassResult r = engine.RunUndirected(stream, alive, got);
    if (threads == 1) {
      deg1 = got;
      r1 = r;
      EXPECT_EQ(r.edges, ref.edges);
      if (weighted) {
        ExpectRelNear(r.weight, ref.weight, "weight");
        for (NodeId u = 0; u < n; ++u) {
          ExpectRelNear(got[u], want[u], "deg " + std::to_string(u));
        }
      } else {
        EXPECT_EQ(r.weight, ref.weight);  // unit weights: exact
        EXPECT_EQ(got, want);
      }
    }
    // Bit-identical across thread counts, not NEAR.
    EXPECT_EQ(r.edges, r1.edges) << threads;
    EXPECT_EQ(r.weight, r1.weight) << threads;
    EXPECT_EQ(got, deg1) << threads;
  }
}

TEST(RowPullTest, UndirectedUnitWeightsWithSelfLoops) {
  CheckUndirectedPull(/*weighted=*/false);
}

TEST(RowPullTest, UndirectedWeightedWithSelfLoops) {
  CheckUndirectedPull(/*weighted=*/true);
}

void CheckDirectedPull(bool weighted) {
  const NodeId n = 3000;
  EdgeList arcs = ErdosRenyiDirectedGnm(n, 5 * PassEngine::kShardEdges, 223);
  Rng rng(227);
  if (weighted) {
    for (Edge& e : arcs.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  }
  DirectedGraph g = DirectedGraph::FromEdgeList(arcs);
  ASSERT_EQ(g.is_weighted(), weighted);
  DirectedGraphStream stream(g);
  NodeSet s = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);

  std::vector<double> want_out(n), want_in(n);
  const DirectedPassResult ref =
      ScalarDirectedPass(stream, s, t, want_out, want_in);

  std::vector<double> out1, in1;
  DirectedPassResult r1{};
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> out(n, -1.0), in(n, -1.0);
    const DirectedPassResult r = engine.RunDirected(stream, s, t, out, in);
    if (threads == 1) {
      out1 = out;
      in1 = in;
      r1 = r;
      EXPECT_EQ(r.arcs, ref.arcs);
      if (weighted) {
        ExpectRelNear(r.weight, ref.weight, "weight");
        for (NodeId u = 0; u < n; ++u) {
          ExpectRelNear(out[u], want_out[u], "out " + std::to_string(u));
          ExpectRelNear(in[u], want_in[u], "in " + std::to_string(u));
        }
      } else {
        EXPECT_EQ(r.weight, ref.weight);
        EXPECT_EQ(out, want_out);
        EXPECT_EQ(in, want_in);
      }
    }
    EXPECT_EQ(r.arcs, r1.arcs) << threads;
    EXPECT_EQ(r.weight, r1.weight) << threads;
    EXPECT_EQ(out, out1) << threads;
    EXPECT_EQ(in, in1) << threads;
  }
}

TEST(RowPullTest, DirectedUnitWeights) { CheckDirectedPull(false); }

TEST(RowPullTest, DirectedWeighted) { CheckDirectedPull(true); }

/// What RowPull::Directed writes over every shard of a view.
struct DirectedPullBits {
  std::vector<double> out_to_t, in_from_s;
  DirectedPassResult totals;
};

/// Pulls every shard of `view` for `sides`, on `threads` threads, into
/// arrays that start at -1.0.
DirectedPullBits PullDirectedShards(const CsrView& view, const NodeSet& s,
                                    const NodeSet& t, DirectedSides sides,
                                    size_t threads) {
  DirectedPullBits bits;
  bits.out_to_t.assign(s.universe_size(), -1.0);
  bits.in_from_s.assign(s.universe_size(), -1.0);
  RowPull pull;
  pull.Begin(view.shards.size());
  const std::function<void(size_t)> shard = [&](size_t i) {
    pull.Directed(view, i, s, t, sides, bits.out_to_t, bits.in_from_s);
  };
  if (threads == 1) {
    for (size_t i = 0; i < view.shards.size(); ++i) shard(i);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(view.shards.size(), shard);
  }
  bits.totals = pull.FinishDirected();
  return bits;
}

/// A one-sided pull fills its array exactly as the two-sided pull does,
/// leaves the other untouched, and sums the same |E(S,T)| from its own
/// rows: exactly on unit weights, within rounding when weighted, and
/// bit-identically across thread counts.
void CheckOneSidedDirectedPull(bool weighted) {
  const NodeId n = 3000;
  EdgeList arcs = ErdosRenyiDirectedGnm(n, 5 * PassEngine::kShardEdges, 239);
  Rng rng(241);
  if (weighted) {
    for (Edge& e : arcs.mutable_edges()) e.w = 0.25 + rng.UniformDouble();
  }
  DirectedGraph g = DirectedGraph::FromEdgeList(arcs);
  ASSERT_EQ(g.is_weighted(), weighted);
  DirectedGraphStream stream(g);
  const CsrView view = CsrView::Of(stream);
  ASSERT_GE(view.shards.size(), 4u);
  NodeSet s = EveryThirdDead(n);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);
  const std::vector<double> unpulled(n, -1.0);

  double in_weight1 = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    const DirectedPullBits both = PullDirectedShards(view, s, t, {}, threads);
    const DirectedPullBits out =
        PullDirectedShards(view, s, t, {.out = true, .in = false}, threads);
    const DirectedPullBits in =
        PullDirectedShards(view, s, t, {.out = false, .in = true}, threads);
    EXPECT_EQ(out.out_to_t, both.out_to_t) << label;
    EXPECT_EQ(out.in_from_s, unpulled) << label;
    EXPECT_EQ(in.in_from_s, both.in_from_s) << label;
    EXPECT_EQ(in.out_to_t, unpulled) << label;
    EXPECT_EQ(out.totals.arcs, both.totals.arcs) << label;
    EXPECT_EQ(in.totals.arcs, both.totals.arcs) << label;
    // The out-only pull sums the same rows as the two-sided one.
    EXPECT_EQ(out.totals.weight, both.totals.weight) << label;
    if (weighted) {
      ExpectRelNear(in.totals.weight, both.totals.weight, label);
    } else {
      EXPECT_EQ(in.totals.weight, both.totals.weight) << label;
    }
    // In-row sums are bit-identical across thread counts, not NEAR.
    if (threads == 1) in_weight1 = in.totals.weight;
    EXPECT_EQ(in.totals.weight, in_weight1) << label;
  }
}

/// Pulls every shard of `view` on `threads` threads into an array that
/// starts at `sentinel`.
std::vector<double> PullUndirectedShards(const CsrView& view,
                                         const NodeSet& alive, double sentinel,
                                         size_t threads,
                                         UndirectedPassResult* totals) {
  std::vector<double> degrees(alive.universe_size(), sentinel);
  RowPull pull;
  pull.Begin(view.shards.size());
  const std::function<void(size_t)> shard = [&](size_t i) {
    pull.Undirected(view, i, alive, degrees);
  };
  if (threads == 1) {
    for (size_t i = 0; i < view.shards.size(); ++i) shard(i);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(view.shards.size(), shard);
  }
  *totals = pull.FinishUndirected(nullptr);
  return degrees;
}

/// A pull writes live rows only: each dead row keeps the value it held
/// before the pass, and each live row gets exactly what a record pass over
/// the same edges sums (unit weights, so row order and stream order agree
/// to the bit), at every thread count.
TEST(RowPullTest, DeadRowsKeepTheirValueAndLiveRowsMatchRecords) {
  constexpr double kSentinel = -7.0;
  const NodeId n = 3000;
  const EdgeList undirected_edges = PullTestEdges(n, /*weighted=*/false, 257);
  UndirectedGraph g = UndirectedGraph::FromEdgeList(undirected_edges);
  UndirectedGraphStream pulled(g);
  const CsrView view = CsrView::Of(pulled);
  ASSERT_GE(view.shards.size(), 4u);
  EdgeListStream records(undirected_edges);
  const NodeSet alive = EveryThirdDead(n);
  PassEngine one(PassEngineOptions{.num_threads = 1});
  std::vector<double> want(n);
  const UndirectedPassResult ref = one.RunUndirected(records, alive, want);

  DirectedGraph dg = DirectedGraph::FromEdgeList(
      ErdosRenyiDirectedGnm(n, 5 * PassEngine::kShardEdges, 263));
  DirectedGraphStream dpulled(dg);
  const CsrView dview = CsrView::Of(dpulled);
  ASSERT_GE(dview.shards.size(), 4u);
  const EdgeList arcs = dg.ToEdgeList();
  EdgeListStream drecords(arcs);
  NodeSet t(n, /*full=*/true);
  for (NodeId u = 1; u < n; u += 5) t.Remove(u);
  std::vector<double> want_out(n), want_in(n);
  const DirectedPassResult dref =
      one.RunDirected(drecords, alive, t, want_out, want_in);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    UndirectedPassResult totals;
    const std::vector<double> got =
        PullUndirectedShards(view, alive, kSentinel, threads, &totals);
    EXPECT_EQ(totals.edges, ref.edges) << label;
    EXPECT_EQ(totals.weight, ref.weight) << label;
    // Directed: the -1.0 the helper pre-fills marks an unwritten row.
    const DirectedPullBits both =
        PullDirectedShards(dview, alive, t, {}, threads);
    EXPECT_EQ(both.totals.arcs, dref.arcs) << label;
    EXPECT_EQ(both.totals.weight, dref.weight) << label;
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(got[u], alive.Contains(u) ? want[u] : kSentinel)
          << label << " row " << u;
      EXPECT_EQ(both.out_to_t[u], alive.Contains(u) ? want_out[u] : -1.0)
          << label << " out-row " << u;
      EXPECT_EQ(both.in_from_s[u], t.Contains(u) ? want_in[u] : -1.0)
          << label << " in-row " << u;
    }
  }
}

/// Today's shard cut, one row at a time: the reference CsrView::Of's
/// binary search must reproduce.
std::vector<std::pair<NodeId, NodeId>> ShardsByScan(
    NodeId n, const std::function<EdgeId(NodeId)>& entries) {
  constexpr EdgeId kEntries = 2 * PassEngine::kShardEdges;
  std::vector<std::pair<NodeId, NodeId>> shards;
  NodeId begin = 0;
  EdgeId sum = 0;
  for (NodeId u = 0; u < n; ++u) {
    sum += entries(u);
    if (sum >= kEntries) {
      shards.emplace_back(begin, u + 1);
      begin = u + 1;
      sum = 0;
    }
  }
  if (n > begin) shards.emplace_back(begin, n);
  return shards;
}

std::vector<std::pair<NodeId, NodeId>> ShardsOf(const EdgeStream& stream) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const RowShard& shard : CsrView::Of(stream).shards) {
    out.emplace_back(shard.begin, shard.end);
  }
  return out;
}

/// Isolated rows (a leading run, gaps, a long tail), a row longer than
/// three shards, rows that end a shard exactly, and graphs with no edges
/// or no nodes.
TEST(CsrViewTest, ShardsMatchTheRowByRowScan) {
  const NodeId n = 9000;
  EdgeList el(n);
  Rng rng(269);
  for (EdgeId i = 0; i < 3 * PassEngine::kShardEdges; ++i) {
    // Rows 500..4999 only: [0, 500) and [5000, n) stay isolated.
    el.Add(static_cast<NodeId>(500 + rng.UniformU64(4500)),
           static_cast<NodeId>(500 + rng.UniformU64(4500)));
  }
  for (EdgeId i = 0; i < 7 * PassEngine::kShardEdges; ++i) {
    el.Add(2500, static_cast<NodeId>(2501 + i % 10));  // one huge row
  }
  for (EdgeId i = 0; i < 2 * PassEngine::kShardEdges; ++i) {
    el.Add(6000, 6000);  // a self-loop row of exactly one shard
  }
  const std::vector<EdgeList> graphs = {el, EdgeList(n), EdgeList(0)};
  for (const EdgeList& edges : graphs) {
    const std::string label = std::to_string(edges.num_edges()) + " edges";
    UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);
    const auto want = ShardsByScan(
        g.num_nodes(), [&g](NodeId u) { return EdgeId{g.Degree(u)}; });
    EXPECT_EQ(ShardsOf(UndirectedGraphStream(g)), want) << label;
    if (edges.num_edges() > 0) {
      EXPECT_GE(want.size(), 8u) << label;
    }

    DirectedGraph dg = DirectedGraph::FromEdgeList(edges);
    const auto dwant = ShardsByScan(dg.num_nodes(), [&dg](NodeId u) {
      return EdgeId{dg.OutDegree(u)} + dg.InDegree(u);
    });
    EXPECT_EQ(ShardsOf(DirectedGraphStream(dg)), dwant) << label;
  }
}

TEST(RowPullTest, OneSidedDirectedUnitWeights) {
  CheckOneSidedDirectedPull(/*weighted=*/false);
}

TEST(RowPullTest, OneSidedDirectedWeighted) {
  CheckOneSidedDirectedPull(/*weighted=*/true);
}

void ExpectSameDirectedRuns(const std::vector<DirectedDensestResult>& got,
                            const std::vector<DirectedDensestResult>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string run = label + " c=" + std::to_string(want[i].c);
    EXPECT_EQ(got[i].density, want[i].density) << run;
    EXPECT_EQ(got[i].s_nodes, want[i].s_nodes) << run;
    EXPECT_EQ(got[i].t_nodes, want[i].t_nodes) << run;
    EXPECT_EQ(got[i].passes, want[i].passes) << run;
    ASSERT_EQ(got[i].trace.size(), want[i].trace.size()) << run;
    for (size_t p = 0; p < want[i].trace.size(); ++p) {
      const DirectedPassSnapshot& a = got[i].trace[p];
      const DirectedPassSnapshot& b = want[i].trace[p];
      EXPECT_EQ(a.weight, b.weight) << run << " pass " << p;
      EXPECT_EQ(a.density, b.density) << run << " pass " << p;
      EXPECT_EQ(a.removed_from_s, b.removed_from_s) << run << " pass " << p;
      EXPECT_EQ(a.removed, b.removed) << run << " pass " << p;
    }
  }
}

/// Unit weights: a row-pull c-grid over a DirectedGraph and a record-round
/// c-grid over the same arcs agree bit for bit, pass by pass, at 1 and 4
/// threads, under both removal rules. The size-skewed planted block makes
/// the size-ratio runs peel both sides, so passes that sum |E(S,T)| over
/// in-rows are compared too.
TEST(DirectedFormatTest, RowPullMatchesRecordRoundsOnUnitWeights) {
  const PlantedDirectedGraph planted =
      PlantDirectedBlock(4000, 60000, 40, 400, 0.5, 251);
  DirectedGraph g = DirectedGraph::FromEdgeList(planted.arcs);
  ASSERT_FALSE(g.is_weighted());
  DirectedGraphStream pulled(g);
  ASSERT_NE(pulled.DirectedCsrView(), nullptr);
  const EdgeList arcs(g.num_nodes(), DrainScalar(pulled));
  EdgeListStream records(arcs);
  ASSERT_EQ(records.DirectedCsrView(), nullptr);

  for (DirectedRemovalRule rule :
       {DirectedRemovalRule::kSizeRatio, DirectedRemovalRule::kMaxDegree}) {
    CSearchOptions search;
    search.rule = rule;
    search.record_trace = true;
    const std::vector<Algorithm3Options> grid =
        CSearchGrid(g.num_nodes(), search);
    const std::string rule_name =
        rule == DirectedRemovalRule::kSizeRatio ? "size-ratio" : "max-degree";
    std::vector<DirectedDensestResult> want;
    for (size_t threads : {1u, 4u}) {
      PassEngine engine(PassEngineOptions{.num_threads = threads});
      EdgeStream* const streams[] = {&pulled, &records};
      for (EdgeStream* stream : streams) {
        auto got = engine.RunDirectedRuns(*stream, grid);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (want.empty()) {
          want = std::move(*got);
          continue;
        }
        const std::string format = stream == &pulled ? " pull" : " records";
        ExpectSameDirectedRuns(
            *got, want,
            rule_name + format + " threads=" + std::to_string(threads));
      }
    }
    size_t peel_s = 0, peel_t = 0;
    for (const DirectedDensestResult& run : want) {
      for (const DirectedPassSnapshot& snap : run.trace) {
        ++(snap.removed_from_s ? peel_s : peel_t);
      }
    }
    EXPECT_GT(peel_s, 0u) << rule_name;
    EXPECT_GT(peel_t, 0u) << rule_name;
  }
}

TEST(RowPullTest, CollectEmitsSurvivorsInStreamOrder) {
  const NodeId n = 3000;
  UndirectedGraph g =
      UndirectedGraph::FromEdgeList(PullTestEdges(n, /*weighted=*/true, 229));
  UndirectedGraphStream stream(g);
  ASSERT_GE(CsrView::Of(stream).shards.size(), 4u);
  NodeSet alive = EveryThirdDead(n);

  std::vector<Edge> want;
  for (const Edge& e : DrainScalar(stream)) {
    if (alive.Contains(e.u) && alive.Contains(e.v)) want.push_back(e);
  }
  std::vector<double> plain(n);
  PassEngine reference(PassEngineOptions{.num_threads = 1});
  const UndirectedPassResult r0 = reference.RunUndirected(stream, alive, plain);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PassEngine engine(PassEngineOptions{.num_threads = threads});
    std::vector<double> degrees(n);
    std::vector<Edge> survivors;
    const UndirectedPassResult r =
        engine.RunUndirected(stream, alive, degrees, nullptr, &survivors);
    EXPECT_EQ(survivors, want) << threads;
    EXPECT_EQ(r.edges, want.size()) << threads;
    // Collecting changes nothing about the pulled statistics.
    EXPECT_EQ(r.weight, r0.weight) << threads;
    EXPECT_EQ(degrees, plain) << threads;
  }
}

}  // namespace
}  // namespace densest
