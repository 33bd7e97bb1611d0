// Unit tests for the streaming substrate: memory streams, binary file
// streams, pass accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "graph/graph_builder.h"
#include "mapreduce/mr_densest.h"
#include "stream/file_stream.h"
#include "stream/memory_stream.h"
#include "stream/pass_stats.h"

namespace densest {
namespace {

EdgeList PathGraph(NodeId n) {
  EdgeList e(n);
  for (NodeId i = 0; i + 1 < n; ++i) e.Add(i, i + 1);
  return e;
}

std::set<std::pair<NodeId, NodeId>> Drain(EdgeStream& s) {
  std::set<std::pair<NodeId, NodeId>> seen;
  s.Reset();
  Edge e;
  while (s.Next(&e)) {
    NodeId a = std::min(e.u, e.v), b = std::max(e.u, e.v);
    seen.insert({a, b});
  }
  return seen;
}

TEST(EdgeListStreamTest, YieldsAllEdgesEachPass) {
  EdgeList el = PathGraph(5);
  EdgeListStream s(el);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.SizeHint(), 4u);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(Drain(s).size(), 4u);
  }
}

TEST(UndirectedGraphStreamTest, EmitsEachEdgeOnce) {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 2);
  b.Add(0, 2);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  UndirectedGraphStream s(g);
  auto seen = Drain(s);
  EXPECT_EQ(seen.size(), 3u);
  // Second pass gives identical content.
  EXPECT_EQ(Drain(s), seen);
}

TEST(DirectedGraphStreamTest, EmitsEachArcOnce) {
  GraphBuilder b;
  b.Add(0, 1);
  b.Add(1, 0);
  b.Add(1, 2);
  DirectedGraph g = std::move(b.BuildDirected()).value();
  DirectedGraphStream s(g);
  s.Reset();
  Edge e;
  int count = 0;
  while (s.Next(&e)) ++count;
  EXPECT_EQ(count, 3);
}

TEST(CountingEdgeStreamTest, CountsPassesAndEdges) {
  EdgeList el = PathGraph(6);
  EdgeListStream inner(el);
  PassStats stats;
  CountingEdgeStream s(inner, stats);
  Drain(s);
  Drain(s);
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.edges_scanned, 10u);
  EXPECT_NE(stats.ToString().find("passes=2"), std::string::npos);
}

class BinaryFileStreamTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(BinaryFileStreamTest, UnweightedRoundTrip) {
  path_ = ::testing::TempDir() + "/edges_unweighted.bin";
  EdgeList el = PathGraph(100);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->num_nodes(), 100u);
  EXPECT_EQ((*stream)->SizeHint(), 99u);

  for (int pass = 0; pass < 2; ++pass) {
    (*stream)->Reset();
    Edge e;
    EdgeId count = 0;
    while ((*stream)->Next(&e)) {
      EXPECT_EQ(e.v, e.u + 1);
      EXPECT_DOUBLE_EQ(e.w, 1.0);
      ++count;
    }
    EXPECT_EQ(count, 99u);
  }
}

TEST_F(BinaryFileStreamTest, WeightedRoundTrip) {
  path_ = ::testing::TempDir() + "/edges_weighted.bin";
  EdgeList el(3);
  el.Add(0, 1, 2.5);
  el.Add(1, 2, 0.25);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/true).ok());

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  (*stream)->Reset();
  Edge e;
  ASSERT_TRUE((*stream)->Next(&e));
  EXPECT_DOUBLE_EQ(e.w, 2.5);
  ASSERT_TRUE((*stream)->Next(&e));
  EXPECT_DOUBLE_EQ(e.w, 0.25);
  EXPECT_FALSE((*stream)->Next(&e));
}

TEST_F(BinaryFileStreamTest, OpenMissingFileFails) {
  auto stream = BinaryFileEdgeStream::Open("/nonexistent/nope.bin");
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, BadMagicRejected) {
  path_ = ::testing::TempDir() + "/garbage.bin";
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is not an edge file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(BinaryFileStreamTest, TruncatedFileSurfacesIOError) {
  // A file whose header promises more edges than its body holds used to
  // end the pass silently — a wrong (but plausible) density downstream.
  path_ = ::testing::TempDir() + "/edges_truncated.bin";
  EdgeList el = PathGraph(2000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  // Chop off the last 500 records plus half a record.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 500 * 8 - 3);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->status().ok());

  (*stream)->Reset();
  Edge e;
  EdgeId count = 0;
  while ((*stream)->Next(&e)) ++count;
  EXPECT_LT(count, 1999u);
  const Status io = (*stream)->status();
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.code(), Status::Code::kIOError);
  EXPECT_NE(io.message().find("truncated"), std::string::npos) << io.ToString();

  // The error is sticky across passes: the file stays bad.
  (*stream)->Reset();
  EXPECT_FALSE((*stream)->status().ok());
}

TEST_F(BinaryFileStreamTest, TruncationSurfacesThroughBatchPath) {
  path_ = ::testing::TempDir() + "/edges_truncated_batch.bin";
  EdgeList el = PathGraph(3000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 1000 * 8);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  (*stream)->Reset();
  std::vector<Edge> buf(512);
  EdgeId total = 0;
  for (;;) {
    size_t got = (*stream)->NextBatch(buf.data(), buf.size());
    if (got == 0) break;
    total += got;
  }
  EXPECT_EQ(total, 2999u - 1000u);
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, AlgorithmsAbortOnTruncatedFile) {
  // The full path of the bug: RunAlgorithm1 on a truncated stream must
  // return the IOError instead of a density computed from a partial pass.
  path_ = ::testing::TempDir() + "/edges_truncated_run.bin";
  EdgeList el = PathGraph(4000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 800 * 8);

  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Algorithm1Options opt;
  opt.epsilon = 0.5;
  auto r = RunAlgorithm1(**stream, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, ExactFinalRecordIsNotAnError) {
  // The final fread may be short without being a truncation: the last
  // buffer of a well-formed file usually is. Guard against regressing the
  // clean-EOF path while detecting real truncation.
  path_ = ::testing::TempDir() + "/edges_exact.bin";
  EdgeList el = PathGraph(1234);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  for (int pass = 0; pass < 3; ++pass) {
    (*stream)->Reset();
    Edge e;
    EdgeId count = 0;
    while ((*stream)->Next(&e)) ++count;
    EXPECT_EQ(count, 1233u);
    EXPECT_TRUE((*stream)->status().ok());
  }
}

/// Writes a 4-node, 3-edge file whose last record is (50000000, 3): the
/// header is patched after writing, since the writer derives its node
/// count from the edges.
void WriteOutOfRangeFile(const std::string& path, bool weighted) {
  EdgeList el(4);
  el.Add(0, 1, 0.5);
  el.Add(1, 2, 0.5);
  el.Add(50000000, 3, 0.5);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, weighted).ok());
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint32_t nodes = 4;
  std::fseek(f, offsetof(BinaryEdgeFileHeader, num_nodes), SEEK_SET);
  ASSERT_EQ(std::fwrite(&nodes, sizeof(nodes), 1, f), 1u);
  std::fclose(f);
}

TEST_F(BinaryFileStreamTest, OutOfRangeEndpointIsStickyIOError) {
  for (bool weighted : {false, true}) {
    path_ = ::testing::TempDir() + "/edges_out_of_range.bin";
    WriteOutOfRangeFile(path_, weighted);
    auto stream = BinaryFileEdgeStream::Open(path_);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ((*stream)->num_nodes(), 4u);
    for (int pass = 0; pass < 2; ++pass) {
      (*stream)->Reset();
      Edge e;
      while ((*stream)->Next(&e)) {
        EXPECT_LT(e.u, 4u);
        EXPECT_LT(e.v, 4u);
      }
      const Status io = (*stream)->status();
      ASSERT_EQ(io.code(), Status::Code::kIOError) << weighted;
      EXPECT_NE(io.message().find("record 2"), std::string::npos)
          << io.ToString();
      EXPECT_NE(io.message().find("4 nodes"), std::string::npos)
          << io.ToString();
    }
  }
}

TEST_F(BinaryFileStreamTest, AlgorithmsAbortOnOutOfRangeEndpoint) {
  path_ = ::testing::TempDir() + "/edges_out_of_range_run.bin";
  WriteOutOfRangeFile(path_, /*weighted=*/false);
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  auto alg1 = RunAlgorithm1(**stream, Algorithm1Options{});
  ASSERT_FALSE(alg1.ok());
  EXPECT_EQ(alg1.status().code(), Status::Code::kIOError);
  Algorithm3Options alg3_options;
  alg3_options.c = 1.0;
  auto alg3 = RunAlgorithm3(**stream, alg3_options);
  ASSERT_FALSE(alg3.ok());
  EXPECT_EQ(alg3.status().code(), Status::Code::kIOError);
  MapReduceEnv env({}, 2);
  auto mr = RunMrDensestUndirected(env, **stream, MrDensestOptions{});
  ASSERT_FALSE(mr.ok());
  EXPECT_EQ(mr.status().code(), Status::Code::kIOError);
}

TEST_F(BinaryFileStreamTest, TracksBytesRead) {
  path_ = ::testing::TempDir() + "/edges_bytes.bin";
  EdgeList el = PathGraph(1000);
  ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, false).ok());
  auto stream = BinaryFileEdgeStream::Open(path_);
  ASSERT_TRUE(stream.ok());
  Edge e;
  (*stream)->Reset();
  while ((*stream)->Next(&e)) {
  }
  EXPECT_GE((*stream)->bytes_read(), 999u * 8);
}

/// Drains the rest of the current pass through NextView, `cap` edges per
/// call, without a Reset.
std::vector<Edge> DrainViews(EdgeStream& s, size_t cap) {
  std::vector<Edge> scratch(cap);
  std::vector<Edge> out;
  for (;;) {
    const std::span<const Edge> view = s.NextView(scratch.data(), cap);
    if (view.empty()) break;
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

/// Fails unless `got` is `want`'s edge sequence bit for bit, weights too.
void ExpectSameBits(const std::vector<Edge>& got, const EdgeList& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.num_edges()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const Edge& a = got[i];
    const Edge& b = want.edges()[i];
    if (a.u != b.u || a.v != b.v ||
        std::bit_cast<uint64_t>(a.w) != std::bit_cast<uint64_t>(b.w)) {
      ADD_FAILURE() << label << ": first difference at edge " << i;
      return;
    }
  }
}

TEST_F(BinaryFileStreamTest, PassesSpanningIoBuffersMatchTheEdgeList) {
  // 2.4 MB of unweighted and 1.6 MB of weighted records: each file spans
  // several 1 MiB read buffers, so the read-ahead hands chunks over in the
  // middle of every pass, and a view of 7 edges straddles each hand-over.
  EdgeList unweighted(50000);
  for (uint32_t i = 0; i < 300000; ++i) {
    unweighted.Add(i % 50000, (i * 7919u + 13) % 50000);
  }
  EdgeList weighted(40000);
  for (uint32_t i = 0; i < 100000; ++i) {
    weighted.Add((i * 104729u) % 40000, i % 40000, 1.0 / (1 + i % 97));
  }
  for (const bool is_weighted : {false, true}) {
    const EdgeList& edges = is_weighted ? weighted : unweighted;
    path_ = ::testing::TempDir() + "/edges_multi_buffer.bin";
    ASSERT_TRUE(WriteBinaryEdgeFile(path_, edges, is_weighted).ok());
    const uint64_t body =
        std::filesystem::file_size(path_) - sizeof(BinaryEdgeFileHeader);
    for (size_t cap : {size_t{1}, size_t{7}, size_t{16384}}) {
      const std::string label =
          std::string(is_weighted ? "weighted" : "unweighted") + " cap " +
          std::to_string(cap);
      auto stream = BinaryFileEdgeStream::Open(path_);
      ASSERT_TRUE(stream.ok());
      // Open leaves the stream at the first record, so two full passes
      // from there read the body exactly twice.
      ExpectSameBits(DrainViews(**stream, cap), edges, label + " pass 1");
      (*stream)->Reset();
      ExpectSameBits(DrainViews(**stream, cap), edges, label + " pass 2");
      EXPECT_EQ((*stream)->bytes_read(), 2 * body) << label;

      // A Reset part-way through a buffer discards the rest of the pass
      // (its read-ahead is counted, hence the byte check above comes
      // first); the next pass starts again at the first record.
      (*stream)->Reset();
      std::vector<Edge> scratch(cap);
      for (size_t read = 0; read < edges.num_edges() / 2;) {
        const size_t want = std::min(cap, edges.num_edges() / 2 - read);
        const size_t got = (*stream)->NextView(scratch.data(), want).size();
        ASSERT_GT(got, 0u) << label;
        read += got;
      }
      (*stream)->Reset();
      ExpectSameBits(DrainViews(**stream, cap), edges,
                     label + " after a mid-buffer Reset");
      EXPECT_TRUE((*stream)->status().ok()) << label;
    }
  }
}

TEST_F(BinaryFileStreamTest, PassEndsWithoutReadingPastTheBody) {
  // A body of whole 1 MiB read buffers ends each pass on a full chunk; the
  // stream must not then issue one more read that can only return 0 bytes.
  // Counted as evaluations of the read failpoint, armed so it never fires:
  // one for Open's read-ahead, then one per chunk per pass.
  if (!Failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  struct Case {
    uint32_t records;
    uint64_t reads;
  };
  for (const Case& c : {Case{131072, 4}, Case{262144, 7}, Case{131071, 4}}) {
    EdgeList el(1000);
    for (uint32_t i = 0; i < c.records; ++i) {
      el.Add(i % 1000, (i * 7919u + 13) % 1000);
    }
    path_ = ::testing::TempDir() + "/edges_whole_chunks.bin";
    ASSERT_TRUE(WriteBinaryEdgeFile(path_, el, /*weighted=*/false).ok());
    const uint64_t body = uint64_t{c.records} * 8;
    ASSERT_TRUE(Failpoints::Instance()
                    .Set("edge_stream.read", "after=1000000000")
                    .ok());
    const uint64_t before =
        Failpoints::Instance().evaluations("edge_stream.read");
    {
      auto stream = BinaryFileEdgeStream::Open(path_);
      ASSERT_TRUE(stream.ok());
      for (int pass = 0; pass < 3; ++pass) {
        (*stream)->Reset();
        ExpectSameBits(DrainViews(**stream, 16384), el,
                       "pass " + std::to_string(pass));
      }
      // Open's read-ahead (discarded by the first Reset) plus three bodies.
      EXPECT_EQ((*stream)->bytes_read(),
                std::min<uint64_t>(body, 1 << 20) + 3 * body)
          << c.records;
      EXPECT_TRUE((*stream)->status().ok()) << c.records;
    }
    EXPECT_EQ(Failpoints::Instance().evaluations("edge_stream.read") - before,
              c.reads)
        << c.records << " records";
    Failpoints::Instance().ClearAll();
  }
}

}  // namespace
}  // namespace densest
