// Tests for the dynamic update-stream substrate: memory and binary-file
// streams, the insert-only replay generator, the sliding-window deleter,
// and the shared sticky-status error model.

#include "stream/update_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("update_stream_test_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
      .string();
}

std::vector<EdgeUpdate> Drain(UpdateStream& stream) {
  stream.Reset();
  std::vector<EdgeUpdate> out;
  EdgeUpdate u;
  while (stream.Next(&u)) out.push_back(u);
  return out;
}

TEST(EdgeUpdateTest, PackedLayout) {
  EXPECT_EQ(sizeof(EdgeUpdate), 24u);
  EdgeUpdate ins = InsertUpdate(3, 5, 7);
  EXPECT_TRUE(ins.is_insert());
  EXPECT_EQ(ins.timestamp, 7u);
  EXPECT_FALSE(DeleteUpdate(3, 5, 8).is_insert());
}

TEST(MemoryUpdateStreamTest, DeliversAllAndRewinds) {
  std::vector<EdgeUpdate> updates = {InsertUpdate(0, 1, 1),
                                     InsertUpdate(1, 2, 2),
                                     DeleteUpdate(0, 1, 3)};
  MemoryUpdateStream stream(updates, 3);
  EXPECT_EQ(stream.num_nodes(), 3u);
  EXPECT_EQ(stream.SizeHint(), 3u);
  EXPECT_EQ(Drain(stream), updates);
  EXPECT_EQ(Drain(stream), updates);  // Reset replays identically
}

/// The one-primitive contract: NextBatch at a capacity of one, one that
/// divides the replay unevenly, and one larger than the whole replay
/// reproduces the Next sequence, and a cap == 0 call returns 0 without
/// consuming an update wherever in the replay it comes.
void ExpectBatchMatchesNext(UpdateStream& stream, const std::string& label) {
  const std::vector<EdgeUpdate> scalar = Drain(stream);
  for (size_t cap : {size_t{1}, size_t{7}, scalar.size() + 13}) {
    std::vector<EdgeUpdate> batched;
    std::vector<EdgeUpdate> buf(cap);
    stream.Reset();
    size_t got;
    while ((got = stream.NextBatch(buf.data(), cap)) > 0) {
      EXPECT_LE(got, cap) << label;
      batched.insert(batched.end(), buf.begin(), buf.begin() + got);
    }
    EXPECT_EQ(batched, scalar) << label << " cap=" << cap;
  }
  std::vector<EdgeUpdate> with_zero_caps;
  stream.Reset();
  EdgeUpdate u;
  for (;;) {
    EXPECT_EQ(stream.NextBatch(&u, 0), 0u) << label;
    if (!stream.Next(&u)) break;
    with_zero_caps.push_back(u);
  }
  EXPECT_EQ(with_zero_caps, scalar) << label;
  EXPECT_TRUE(stream.status().ok()) << label;
}

TEST(MemoryUpdateStreamTest, NextBatchMatchesNext) {
  std::vector<EdgeUpdate> updates;
  for (uint32_t i = 0; i < 1000; ++i) {
    updates.push_back(InsertUpdate(i % 50, (i + 1) % 50, i + 1));
  }
  MemoryUpdateStream memory(updates, 50);
  ExpectBatchMatchesNext(memory, "memory");
  EXPECT_EQ(Drain(memory), updates);

  const std::string path = TempPath("batch");
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 50, updates).ok());
  auto file = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(file.ok());
  ExpectBatchMatchesNext(**file, "binary file");
  EXPECT_EQ(Drain(**file), updates);
  std::remove(path.c_str());

  EdgeList edges = ErdosRenyiGnm(60, 500, 11);
  EdgeListStream replay_base(edges);
  InsertReplayUpdateStream replay(replay_base);
  ExpectBatchMatchesNext(replay, "insert replay");
  for (uint64_t eviction_batch : {1u, 4u}) {
    EdgeListStream window_base(edges);
    SlidingWindowUpdateStream window(window_base, 64, eviction_batch);
    ExpectBatchMatchesNext(window, "sliding window, eviction batch " +
                                       std::to_string(eviction_batch));
  }
}

TEST(BinaryUpdateFileTest, RoundTrip) {
  std::vector<EdgeUpdate> updates = {InsertUpdate(0, 1, 1),
                                     DeleteUpdate(0, 1, 2),
                                     InsertUpdate(4, 2, 3)};
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 5, updates).ok());
  auto stream = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->num_nodes(), 5u);
  EXPECT_EQ((*stream)->SizeHint(), 3u);
  EXPECT_EQ(Drain(**stream), updates);
  EXPECT_EQ(Drain(**stream), updates);
  EXPECT_TRUE((*stream)->status().ok());
  std::remove(path.c_str());
}

TEST(BinaryUpdateFileTest, RejectsWrongMagic) {
  const std::string path = TempPath("magic");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not an update file at all, sorry";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto stream = BinaryFileUpdateStream::Open(path);
  EXPECT_FALSE(stream.ok());
  std::remove(path.c_str());
}

TEST(BinaryUpdateFileTest, TruncationSetsStickyStatus) {
  std::vector<EdgeUpdate> updates;
  for (uint32_t i = 0; i < 100; ++i) updates.push_back(InsertUpdate(i, i + 1, i));
  const std::string path = TempPath("trunc");
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 101, updates).ok());
  // Chop off the last 30 records plus a partial one.
  std::filesystem::resize_file(
      path, sizeof(BinaryUpdateFileHeader) + 70 * sizeof(EdgeUpdate) + 5);
  auto stream = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(stream.ok());
  std::vector<EdgeUpdate> got = Drain(**stream);
  EXPECT_LT(got.size(), updates.size());
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
  // Sticky across Reset: the file stays bad.
  (*stream)->Reset();
  EXPECT_EQ((*stream)->status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryUpdateFileTest, UnknownKindSetsStickyStatus) {
  // Any nonzero kind used to be applied as a delete; a kind that is
  // neither insert nor delete marks the file corrupt instead.
  std::vector<EdgeUpdate> updates;
  for (uint32_t i = 0; i < 10; ++i) {
    updates.push_back(InsertUpdate(i, i + 1, i));
  }
  updates[6].kind = 7;
  const std::string path = TempPath("kind");
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 11, updates).ok());
  auto stream = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(stream.ok());
  for (int replay = 0; replay < 2; ++replay) {
    std::vector<EdgeUpdate> got = Drain(**stream);
    EXPECT_LE(got.size(), 6u);
    for (const EdgeUpdate& u : got) EXPECT_TRUE(u.is_insert());
    const Status io = (*stream)->status();
    ASSERT_EQ(io.code(), Status::Code::kIOError);
    EXPECT_NE(io.message().find("record 6"), std::string::npos)
        << io.ToString();
  }
  std::remove(path.c_str());
}

TEST(InsertReplayTest, ReplaysEveryEdgeWithIncreasingTimestamps) {
  EdgeList edges = ErdosRenyiGnm(100, 400, 7);
  EdgeListStream base(edges);
  InsertReplayUpdateStream replay(base);
  EXPECT_EQ(replay.num_nodes(), edges.num_nodes());
  std::vector<EdgeUpdate> got = Drain(replay);
  ASSERT_EQ(got.size(), edges.num_edges());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].is_insert());
    EXPECT_EQ(got[i].timestamp, i + 1);
    EXPECT_EQ(got[i].u, edges.edges()[i].u);
    EXPECT_EQ(got[i].v, edges.edges()[i].v);
  }
  // Reset restarts both edges and timestamps.
  EXPECT_EQ(Drain(replay), got);
}

TEST(SlidingWindowTest, KeepsAtMostWindowEdgesLive) {
  EdgeList edges = ErdosRenyiGnm(60, 500, 11);
  EdgeListStream base(edges);
  const uint64_t kWindow = 64;
  SlidingWindowUpdateStream stream(base, kWindow);
  stream.Reset();
  std::multiset<std::pair<NodeId, NodeId>> live;
  std::vector<std::pair<NodeId, NodeId>> fifo;
  size_t fifo_head = 0;
  EdgeUpdate u;
  uint64_t last_ts = 0;
  while (stream.Next(&u)) {
    EXPECT_EQ(u.timestamp, last_ts + 1);
    last_ts = u.timestamp;
    if (u.is_insert()) {
      live.insert({u.u, u.v});
      fifo.emplace_back(u.u, u.v);
    } else {
      // Deletions evict exactly the oldest live insert.
      ASSERT_LT(fifo_head, fifo.size());
      EXPECT_EQ(std::make_pair(u.u, u.v), fifo[fifo_head]);
      live.erase(live.find({u.u, u.v}));
      ++fifo_head;
    }
    EXPECT_LE(live.size(), kWindow + 1);
  }
  // The stream ends with the final window intact.
  EXPECT_EQ(live.size(), std::min<uint64_t>(kWindow, edges.num_edges()));
  // Total updates: m inserts + (m - W) deletes.
  EXPECT_EQ(last_ts, edges.num_edges() + (edges.num_edges() - kWindow));
  EXPECT_EQ(stream.SizeHint(), last_ts);
}

TEST(SlidingWindowTest, SmallStreamNeverDeletes) {
  EdgeList edges = ErdosRenyiGnm(30, 40, 3);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream stream(base, 1000);
  for (const EdgeUpdate& u : Drain(stream)) {
    EXPECT_TRUE(u.is_insert());
  }
}

/// The updates of a sliding window reduced to (edge, kind) pairs — what
/// the batched and per-update eviction paths must agree on.
struct WindowTrace {
  std::vector<std::pair<NodeId, NodeId>> inserts;
  std::vector<std::pair<NodeId, NodeId>> deletes;
  std::multiset<std::pair<NodeId, NodeId>> final_live;
};

WindowTrace TraceWindow(SlidingWindowUpdateStream& stream, uint64_t cap) {
  WindowTrace t;
  stream.Reset();
  EdgeUpdate u;
  uint64_t last_ts = 0;
  while (stream.Next(&u)) {
    EXPECT_EQ(u.timestamp, last_ts + 1);  // ticks stay gapless either way
    last_ts = u.timestamp;
    if (u.is_insert()) {
      t.inserts.emplace_back(u.u, u.v);
      t.final_live.insert({u.u, u.v});
    } else {
      t.deletes.emplace_back(u.u, u.v);
      auto it = t.final_live.find({u.u, u.v});
      EXPECT_NE(it, t.final_live.end()) << "deleted an edge that is not live";
      if (it != t.final_live.end()) t.final_live.erase(it);
    }
    EXPECT_LE(t.final_live.size(), cap);
  }
  return t;
}

TEST(SlidingWindowTest, BatchedEvictionMatchesPerUpdatePath) {
  EdgeList edges = ErdosRenyiGnm(60, 500, 11);
  const uint64_t kWindow = 64;
  EdgeListStream base(edges);
  SlidingWindowUpdateStream per_update(base, kWindow);
  WindowTrace reference = TraceWindow(per_update, kWindow + 1);

  for (uint64_t batch : {2u, 7u, 64u, 1000u}) {
    EdgeListStream b(edges);
    SlidingWindowUpdateStream stream(b, kWindow, batch);
    // Overfill bounded by the batch: live never exceeds window + batch - 1
    // right before an eviction burst (and window + batch at its start).
    WindowTrace t = TraceWindow(stream, kWindow + batch);
    EXPECT_EQ(t.inserts, reference.inserts) << "batch=" << batch;
    // Deletions are the same edges in the same FIFO order — batching only
    // changes where in the interleaving they appear.
    EXPECT_EQ(t.deletes, reference.deletes) << "batch=" << batch;
    EXPECT_EQ(t.final_live, reference.final_live) << "batch=" << batch;
    // The final flush drains down to exactly the window.
    EXPECT_EQ(t.final_live.size(),
              std::min<uint64_t>(kWindow, edges.num_edges()));
    EXPECT_EQ(stream.SizeHint(),
              static_cast<uint64_t>(t.inserts.size() + t.deletes.size()));
  }
}

TEST(SkipTest, MemoryAndBinarySkipMatchDraining) {
  std::vector<EdgeUpdate> updates;
  for (uint32_t i = 0; i < 500; ++i) {
    updates.push_back(InsertUpdate(i % 40, (i + 1) % 40, i + 1));
  }
  MemoryUpdateStream mem(updates, 40);
  mem.Reset();
  EXPECT_EQ(mem.Skip(123), 123u);
  EdgeUpdate u;
  ASSERT_TRUE(mem.Next(&u));
  EXPECT_EQ(u, updates[123]);
  // Skipping past the end reports how much was actually there.
  mem.Reset();
  EXPECT_EQ(mem.Skip(10'000), updates.size());
  EXPECT_FALSE(mem.Next(&u));

  const std::string path = TempPath("skip");
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 40, updates).ok());
  auto stream = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(stream.ok());
  (*stream)->Reset();
  EXPECT_EQ((*stream)->Skip(123), 123u);
  ASSERT_TRUE((*stream)->Next(&u));
  EXPECT_EQ(u, updates[123]);
  EXPECT_TRUE((*stream)->status().ok());
  std::remove(path.c_str());
}

TEST(SkipTest, SlidingWindowSkipKeepsGeneratorStateConsistent) {
  EdgeList edges = ErdosRenyiGnm(60, 500, 11);
  EdgeListStream a(edges);
  SlidingWindowUpdateStream full(a, 64);
  std::vector<EdgeUpdate> reference = Drain(full);

  // The drain-based default Skip must leave the FIFO mid-state identical
  // to having consumed the prefix one by one.
  EdgeListStream b(edges);
  SlidingWindowUpdateStream skipped(b, 64);
  skipped.Reset();
  const uint64_t kSkip = 200;
  EXPECT_EQ(skipped.Skip(kSkip), kSkip);
  EdgeUpdate u;
  size_t i = kSkip;
  while (skipped.Next(&u)) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(u, reference[i]);
    ++i;
  }
  EXPECT_EQ(i, reference.size());
}

}  // namespace
}  // namespace densest
