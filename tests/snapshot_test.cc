// Crash-recovery tests for the dynamic service: snapshot round trips are
// bit-for-bit (the restored engine evolves identically to the original),
// replay(snapshot -> crash point) reproduces an uninterrupted run exactly
// at several distinct crash offsets, and a torn/corrupted/stale snapshot
// degrades to a full rebuild — it never yields a wrong density.

#include "dynamic/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "gen/erdos_renyi.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("snapshot_test_" + name + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
      .string();
}

// Snapshot header layout: magic[8], version, reserved, body_size,
// checksum (FNV-1a-64 over the body); the body follows.
constexpr size_t kBodySizeOffset = 16;
constexpr size_t kChecksumOffset = 24;
constexpr size_t kHeaderBytes = 32;

uint64_t Fnv1a64(const char* data, size_t bytes) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::vector<char> bytes(std::filesystem::file_size(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// A deterministic insert+delete workload: a sliding window over a random
/// edge sequence, materialized so every run sees the identical updates.
std::vector<EdgeUpdate> MakeWorkload(NodeId n, EdgeId m, uint64_t window,
                                     uint64_t seed) {
  EdgeList edges = ErdosRenyiGnm(n, m, seed);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream stream(base, window);
  stream.Reset();
  std::vector<EdgeUpdate> out;
  EdgeUpdate u;
  while (stream.Next(&u)) out.push_back(u);
  return out;
}

/// Everything two engines must agree on to count as the same state.
void ExpectEnginesIdentical(DynamicDensest& a, DynamicDensest& b) {
  const DynamicDensest::Answer qa = a.Query();
  const DynamicDensest::Answer qb = b.Query();
  EXPECT_EQ(qa.density, qb.density);  // bit-for-bit, no tolerance
  EXPECT_EQ(qa.upper_bound, qb.upper_bound);
  EXPECT_EQ(qa.size, qb.size);
  EXPECT_EQ(qa.certified, qb.certified);
  EXPECT_EQ(a.DensestNodes(), b.DensestNodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.window_lo(), b.window_lo());
  EXPECT_EQ(a.window_hi(), b.window_hi());
  EXPECT_EQ(a.trim_streak(), b.trim_streak());
  const DynamicDensestStats& sa = a.stats();
  const DynamicDensestStats& sb = b.stats();
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(sa.deletes, sb.deletes);
  EXPECT_EQ(sa.ignored, sb.ignored);
  EXPECT_EQ(sa.level_moves, sb.level_moves);
  EXPECT_EQ(sa.recomputes, sb.recomputes);
  EXPECT_EQ(sa.window_moves, sb.window_moves);
  EXPECT_EQ(sa.structures_rebuilt, sb.structures_rebuilt);
  EXPECT_EQ(sa.trims_deferred, sb.trims_deferred);
  EXPECT_EQ(sa.recomputes_avoided, sb.recomputes_avoided);
  EXPECT_EQ(sa.last_recompute_density, sb.last_recompute_density);
}

TEST(SnapshotTest, RoundTripRestoresStateAndFutureEvolutionExactly) {
  const NodeId kNodes = 80;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 1500, 200, 5);
  const size_t kCut = workload.size() / 2;

  DynamicDensestOptions opt;
  opt.epsilon = 0.5;
  auto original = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(original.ok());
  for (size_t i = 0; i < kCut; ++i) (*original)->Apply(workload[i]);

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(WriteSnapshot(path, **original, kCut).ok());
  auto restored = ReadSnapshot(path, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cursor, kCut);
  ExpectEnginesIdentical(**original, *restored->engine);

  // The strong property: applying the identical suffix to both engines
  // keeps them identical — the snapshot captured adjacency order, levels,
  // window and streak, not merely the answer.
  for (size_t i = kCut; i < workload.size(); ++i) {
    (*original)->Apply(workload[i]);
    restored->engine->Apply(workload[i]);
  }
  ExpectEnginesIdentical(**original, *restored->engine);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CrashRecoveryMatchesUninterruptedRunAtManyOffsets) {
  if (!Failpoints::compiled_in()) {
    GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
  }
  const NodeId kNodes = 70;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 1200, 150, 9);
  DynamicDensestOptions opt;
  opt.epsilon = 0.6;

  ReplayOptions replay_opt;
  replay_opt.query_every = 0;
  replay_opt.batch_size = 64;
  replay_opt.snapshot_every = 100;

  // The reference: one uninterrupted run over the whole workload.
  auto uninterrupted = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(uninterrupted.ok());
  {
    MemoryUpdateStream stream(workload, kNodes);
    ReplayOptions clean = replay_opt;
    clean.snapshot_every = 0;
    ASSERT_TRUE(ReplayUpdates(stream, **uninterrupted, clean).ok());
  }

  // Crash at several distinct apply offsets (the failpoint counts run
  // boundaries, so different `after` values land at different updates),
  // restore from the snapshot on disk, replay the tail, and demand the
  // final state match the uninterrupted run bit for bit.
  for (uint64_t crash_after : {2u, 9u, 23u}) {
    const std::string path =
        TempPath("crash_" + std::to_string(crash_after));
    auto crashed = DynamicDensest::Create(kNodes, opt);
    ASSERT_TRUE(crashed.ok());
    ASSERT_TRUE(Failpoints::Instance()
                    .Set("replay.crash",
                         "after=" + std::to_string(crash_after) + ",times=1")
                    .ok());
    {
      MemoryUpdateStream stream(workload, kNodes);
      ReplayOptions crashing = replay_opt;
      crashing.snapshot_path = path;
      StatusOr<ReplayReport> r = ReplayUpdates(stream, **crashed, crashing);
      ASSERT_FALSE(r.ok());  // it really did die mid-stream
      EXPECT_NE(r.status().message().find("crash"), std::string::npos);
    }
    Failpoints::Instance().ClearAll();

    // Restart: restore the snapshot, resume the stream from its cursor.
    auto restored = ReadSnapshot(path, opt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_GT(restored->cursor, 0u);
    EXPECT_LT(restored->cursor, workload.size());
    {
      MemoryUpdateStream stream(workload, kNodes);
      ReplayOptions resume = replay_opt;
      resume.snapshot_every = 0;
      resume.skip_updates = restored->cursor;
      StatusOr<ReplayReport> r =
          ReplayUpdates(stream, *restored->engine, resume);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(resume.skip_updates + r->updates, workload.size());
    }
    ExpectEnginesIdentical(**uninterrupted, *restored->engine);
    std::remove(path.c_str());
  }
}

TEST(SnapshotTest, CorruptedOrTornSnapshotFailsClosedToFullRebuild) {
  const NodeId kNodes = 50;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 600, 100, 13);
  DynamicDensestOptions opt;
  auto engine = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(engine.ok());
  for (const EdgeUpdate& u : workload) (*engine)->Apply(u);
  const std::string path = TempPath("damage");
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  const auto size = std::filesystem::file_size(path);

  // Flip one byte mid-body: checksum catches it.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    const char x = 0x5a;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  auto corrupted = ReadSnapshot(path, opt);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), Status::Code::kIOError);

  // Torn file (crash mid-write without the atomic rename): rejected.
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  std::filesystem::resize_file(path, size - 17);
  auto torn = ReadSnapshot(path, opt);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), Status::Code::kIOError);

  // Not a snapshot at all.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[80] = "definitely not a snapshot";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto junked = ReadSnapshot(path, opt);
  ASSERT_FALSE(junked.ok());
  EXPECT_EQ(junked.status().code(), Status::Code::kIOError);

  // A header whose body_size claims 2^62 bytes: refused before anything
  // is allocated for the body.
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  std::vector<char> bytes = ReadFileBytes(path);
  const uint64_t huge = uint64_t{1} << 62;
  std::memcpy(bytes.data() + kBodySizeOffset, &huge, sizeof(huge));
  WriteFileBytes(path, bytes);
  auto oversized = ReadSnapshot(path, opt);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), Status::Code::kIOError);

  // A body with a valid checksum whose first degree runs past the body:
  // refused before the adjacency row is sized from it. The adjacency and
  // the level planes close the body, so the first degree sits right
  // before them.
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());
  bytes = ReadFileBytes(path);
  size_t tail = size_t{(*engine)->num_slots()} * kNodes * sizeof(uint16_t);
  for (NodeId u = 0; u < kNodes; ++u) {
    tail += sizeof(uint32_t) +
            (*engine)->adjacency().neighbors(u).size() * sizeof(NodeId);
  }
  const uint32_t runaway_degree = 0xffffffffu;
  std::memcpy(bytes.data() + bytes.size() - tail, &runaway_degree,
              sizeof(runaway_degree));
  const uint64_t checksum =
      Fnv1a64(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  std::memcpy(bytes.data() + kChecksumOffset, &checksum, sizeof(checksum));
  WriteFileBytes(path, bytes);
  auto runaway = ReadSnapshot(path, opt);
  ASSERT_FALSE(runaway.ok());
  EXPECT_EQ(runaway.status().code(), Status::Code::kIOError);

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(ReadSnapshot(path, opt).ok());
}

TEST(SnapshotTest, MismatchedOptionsAreRefusedNotServed) {
  // A snapshot restored under a different epsilon would serve densities
  // whose certificates belong to another threshold grid; the answer
  // cross-check refuses it instead.
  const NodeId kNodes = 40;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 500, 80, 3);
  DynamicDensestOptions wrote;
  wrote.epsilon = 0.75;
  auto engine = DynamicDensest::Create(kNodes, wrote);
  ASSERT_TRUE(engine.ok());
  for (const EdgeUpdate& u : workload) (*engine)->Apply(u);
  const std::string path = TempPath("options");
  ASSERT_TRUE(WriteSnapshot(path, **engine, workload.size()).ok());

  DynamicDensestOptions other = wrote;
  other.epsilon = 0.3;
  EXPECT_FALSE(ReadSnapshot(path, other).ok());
  // The matching options still restore fine.
  EXPECT_TRUE(ReadSnapshot(path, wrote).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedWriteLeavesThePreviousSnapshotIntact) {
  if (!Failpoints::compiled_in()) {
    GTEST_SKIP() << "built with -DDENSEST_FAILPOINTS=OFF";
  }
  const NodeId kNodes = 40;
  std::vector<EdgeUpdate> workload = MakeWorkload(kNodes, 500, 80, 7);
  DynamicDensestOptions opt;
  auto engine = DynamicDensest::Create(kNodes, opt);
  ASSERT_TRUE(engine.ok());
  const size_t kCut = workload.size() / 3;
  for (size_t i = 0; i < kCut; ++i) (*engine)->Apply(workload[i]);
  const std::string path = TempPath("atomic");
  ASSERT_TRUE(WriteSnapshot(path, **engine, kCut).ok());

  // The next snapshot dies mid-write; thanks to temp-file + rename the
  // previous one must still be on disk, whole and restorable.
  for (size_t i = kCut; i < workload.size(); ++i) (*engine)->Apply(workload[i]);
  ASSERT_TRUE(Failpoints::Instance().Set("snapshot.write", "after=0").ok());
  EXPECT_EQ(WriteSnapshot(path, **engine, workload.size()).code(),
            Status::Code::kIOError);
  Failpoints::Instance().ClearAll();

  auto restored = ReadSnapshot(path, opt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cursor, kCut);  // the OLD snapshot, not the torn new one
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoreValidatesDecodedStateInternally) {
  // FromSnapshotState rejects inconsistent pieces outright.
  DynamicDensestOptions opt;
  std::vector<std::vector<NodeId>> asym(3);
  asym[0] = {1};
  // missing the mirror entry 1 -> 0
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   3, opt, std::move(asym), 0,
                   {std::vector<uint16_t>(3, 0)}, 0, DynamicDensestStats{},
                   DynamicDensest::OverloadState{})
                   .ok());
  std::vector<std::vector<NodeId>> self(2);
  self[1] = {1};  // self-loop
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   2, opt, std::move(self), 0,
                   {std::vector<uint16_t>(2, 0)}, 0, DynamicDensestStats{},
                   DynamicDensest::OverloadState{})
                   .ok());
  std::vector<std::vector<NodeId>> empty_adj(2);
  // levels above the ladder
  EXPECT_FALSE(DynamicDensest::FromSnapshotState(
                   2, opt, std::move(empty_adj), 0,
                   {std::vector<uint16_t>(2, 60000)}, 0,
                   DynamicDensestStats{}, DynamicDensest::OverloadState{})
                   .ok());
}

}  // namespace
}  // namespace densest
