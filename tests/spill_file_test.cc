// Tests for the shuffle spill store: round trips, IO accounting, and the
// truncation failure mode (a short read must be an IOError, never a silent
// end-of-data — mirroring the edge streams' status() contract).

#include "io/spill_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <numeric>
#include <vector>

namespace densest {
namespace {

TEST(SpillFileTest, RoundTripsSegments) {
  auto spill = SpillFile::Create("");
  ASSERT_TRUE(spill.ok()) << spill.status().ToString();

  std::vector<uint64_t> run1(1000);
  std::iota(run1.begin(), run1.end(), 0);
  std::vector<uint64_t> run2(500);
  std::iota(run2.begin(), run2.end(), 7000);
  ASSERT_TRUE((*spill)->Append(run1.data(), run1.size() * 8).ok());
  ASSERT_TRUE((*spill)->Append(run2.data(), run2.size() * 8).ok());
  ASSERT_TRUE((*spill)->Flush().ok());
  EXPECT_EQ((*spill)->bytes_written(), 1500u * 8);

  // Read the second run first: every read is positioned.
  std::vector<uint64_t> got(500);
  auto n = (*spill)->ReadAt(1000 * 8, got.data(), got.size() * 8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 500u * 8);
  EXPECT_EQ(got, run2);
  // At the end of the written bytes: 0, not an error.
  auto after = (*spill)->ReadAt(1500 * 8, got.data(), 8);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 0u);

  // First run in two partial reads.
  std::vector<uint64_t> head(600);
  ASSERT_TRUE((*spill)->ReadAt(0, head.data(), 600 * 8).ok());
  std::vector<uint64_t> tail(400);
  ASSERT_TRUE((*spill)->ReadAt(600 * 8, tail.data(), 400 * 8).ok());
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(head, run1);
}

TEST(SpillFileTest, ReadAtServesInterleavedSegmentsThroughOneHandle) {
  auto spill = SpillFile::Create("");
  ASSERT_TRUE(spill.ok());
  std::vector<uint64_t> data(2000);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE((*spill)->Append(data.data(), data.size() * 8).ok());
  ASSERT_TRUE((*spill)->Flush().ok());

  // Interleave positioned reads the way the merge does across runs.
  uint64_t a = 0, b = 0;
  ASSERT_TRUE((*spill)->ReadAt(500 * 8, &a, 8).ok());
  ASSERT_TRUE((*spill)->ReadAt(0, &b, 8).ok());
  EXPECT_EQ(a, 500u);
  EXPECT_EQ(b, 0u);
  // Past the end: 0 bytes, not an error.
  auto past = (*spill)->ReadAt(2000 * 8, &a, 8);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(*past, 0u);
}

TEST(SpillFileTest, ReadAtSurfacesTruncationAsIOError) {
  const std::string path = ::testing::TempDir() + "/spill_readat_trunc.tmp";
  auto spill = SpillFile::CreateAt(path);
  ASSERT_TRUE(spill.ok());
  std::vector<uint64_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE((*spill)->Append(data.data(), data.size() * 8).ok());
  ASSERT_TRUE((*spill)->Flush().ok());
  std::filesystem::resize_file(path, 100 * 8);

  std::vector<uint64_t> buf(1000);
  StatusOr<size_t> n = (*spill)->ReadAt(0, buf.data(), buf.size() * 8);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), Status::Code::kIOError);
  EXPECT_NE(n.status().message().find("truncated"), std::string::npos);
}

TEST(SpillFileTest, FileRemovedOnDestruction) {
  std::string path;
  {
    auto spill = SpillFile::Create("");
    ASSERT_TRUE(spill.ok());
    path = (*spill)->path();
    uint64_t x = 1;
    ASSERT_TRUE((*spill)->Append(&x, 8).ok());
    ASSERT_TRUE((*spill)->Flush().ok());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, CreateInMissingDirectoryFails) {
  auto spill = SpillFile::Create("/nonexistent_densest_dir_xyz");
  EXPECT_FALSE(spill.ok());
  EXPECT_EQ(spill.status().code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace densest
