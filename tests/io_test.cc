// Unit tests for text edge-list IO and the CSV writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/csv_writer.h"
#include "io/edge_list_io.h"

namespace densest {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(IoTest, EdgeListTextRoundTrip) {
  path_ = ::testing::TempDir() + "/edges.txt";
  EdgeList e(4);
  e.Add(0, 1);
  e.Add(2, 3);
  ASSERT_TRUE(WriteEdgeListText(path_, e).ok());
  auto back = ReadEdgeListText(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_edges(), 2u);
  EXPECT_EQ(back->num_nodes(), 4u);
  EXPECT_EQ(back->edges()[1].u, 2u);
}

TEST_F(IoTest, WeightedRoundTrip) {
  path_ = ::testing::TempDir() + "/wedges.txt";
  EdgeList e(2);
  e.Add(0, 1, 3.5);
  ASSERT_TRUE(WriteEdgeListText(path_, e, /*weighted=*/true).ok());
  auto back = ReadEdgeListText(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->edges()[0].w, 3.5);
}

TEST_F(IoTest, SkipsCommentsAndBlankLines) {
  path_ = ::testing::TempDir() + "/comments.txt";
  std::ofstream out(path_);
  out << "# SNAP-style comment\n\n% matrix-market comment\n5 6\n";
  out.close();
  auto back = ReadEdgeListText(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_edges(), 1u);
  EXPECT_EQ(back->num_nodes(), 7u);
}

TEST_F(IoTest, RejectsMalformedLine) {
  path_ = ::testing::TempDir() + "/bad.txt";
  std::ofstream out(path_);
  out << "1 2\nnot an edge\n";
  out.close();
  auto back = ReadEdgeListText(path_);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(back.status().message().find(":2"), std::string::npos);
}

TEST_F(IoTest, RejectsNegativeIds) {
  path_ = ::testing::TempDir() + "/neg.txt";
  std::ofstream out(path_);
  out << "-1 2\n";
  out.close();
  EXPECT_FALSE(ReadEdgeListText(path_).ok());
}

/// Reads a triangle with `extra` appended (or with its first line
/// replaced by `extra` when `replace_first`).
StatusOr<EdgeList> ReadTriangleWith(const std::string& path,
                                    const std::string& extra,
                                    bool replace_first = false) {
  std::ofstream out(path);
  out << (replace_first ? extra : "0 1") << "\n1 2\n2 0\n";
  if (!replace_first) out << extra << "\n";
  out.close();
  return ReadEdgeListText(path);
}

TEST_F(IoTest, RejectsIdsThatDoNotFitANodeId) {
  path_ = ::testing::TempDir() + "/wide_ids.txt";
  // 2^32 - 1 would wrap the node count (max id + 1) to 0; 2^32 + 1 would
  // alias node 1.
  for (const char* line : {"0 4294967295", "0 4294967297", "4294967295 1",
                           "0 99999999999"}) {
    auto back = ReadTriangleWith(path_, line);
    ASSERT_FALSE(back.ok()) << line;
    EXPECT_EQ(back.status().code(), Status::Code::kInvalidArgument) << line;
    EXPECT_NE(back.status().message().find(path_ + ":4"), std::string::npos)
        << back.status().ToString();
  }
  // The largest id that leaves room for the node count still loads.
  auto widest = ReadTriangleWith(path_, "0 4294967294");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->num_nodes(), 4294967295u);
}

TEST_F(IoTest, RejectsWeightsThatDoNotParse) {
  path_ = ::testing::TempDir() + "/bad_weights.txt";
  for (const char* line : {"0 1 abc", "0 1 inf", "0 1 -inf", "0 1 nan",
                           "0 1 2.5x", "0 1 1e999"}) {
    auto back = ReadTriangleWith(path_, line, /*replace_first=*/true);
    ASSERT_FALSE(back.ok()) << line;
    EXPECT_EQ(back.status().code(), Status::Code::kInvalidArgument) << line;
    EXPECT_NE(back.status().message().find(path_ + ":1"), std::string::npos)
        << back.status().ToString();
  }
  auto fine = ReadTriangleWith(path_, "0 1 2.5e-1", /*replace_first=*/true);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_DOUBLE_EQ(fine->edges()[0].w, 0.25);
  EXPECT_DOUBLE_EQ(fine->edges()[1].w, 1.0);
}

TEST_F(IoTest, MissingFileIsIOError) {
  auto r = ReadEdgeListText("/nonexistent/void.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST_F(IoTest, CsvWriterQuotesSpecialValues) {
  path_ = ::testing::TempDir() + "/out.csv";
  {
    auto w = CsvWriter::Open(path_, {"name", "value"});
    ASSERT_TRUE(w.ok());
    w->AddRow({"plain", "1"});
    w->AddRow({"with,comma", "2"});
    w->AddRow({"with\"quote", "3"});
  }
  std::ifstream in(path_);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();
  EXPECT_NE(content.find("name,value\n"), std::string::npos);
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"with\"\"quote\""), std::string::npos);
}

TEST_F(IoTest, CsvNumFormatsCompactly) {
  EXPECT_EQ(CsvWriter::Num(1.5), "1.5");
  EXPECT_EQ(CsvWriter::Num(2), "2");
}

}  // namespace
}  // namespace densest
