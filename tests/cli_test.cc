// Tests for the CLI argument parser and command layer.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/failpoint.h"
#include "gen/planted.h"
#include "io/edge_list_io.h"
#include "stream/file_stream.h"

namespace densest {
namespace {

StatusOr<Args> Parse(std::vector<std::string> tokens) {
  return Args::Parse(tokens);
}

TEST(ArgsTest, PositionalAndFlagsMixed) {
  // Note the grammar: a bare --flag consumes the next token as its value
  // unless that token is another flag, so trailing positionals must come
  // before bare flags (or use --flag=value).
  auto args = Parse({"graph.txt", "out.txt", "--eps=0.5", "--trace"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->positional().size(), 2u);
  EXPECT_EQ(args->positional()[0], "graph.txt");
  EXPECT_EQ(args->positional()[1], "out.txt");
  EXPECT_TRUE(args->Has("eps"));
  EXPECT_TRUE(args->GetBool("trace", false));
}

TEST(ArgsTest, EqualsAndSpaceSeparatedValues) {
  auto args = Parse({"--eps=0.25", "--delta", "4", "--name", "x"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetDouble("eps", 0), 0.25);
  EXPECT_EQ(args->GetDouble("delta", 0), 4.0);
  EXPECT_EQ(args->GetString("name", ""), "x");
}

TEST(ArgsTest, BareFlagIsTrue) {
  auto args = Parse({"--trace"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("trace", false));
  EXPECT_FALSE(args->GetBool("absent", false));
}

TEST(ArgsTest, BareFlagFollowedByFlagStaysTrue) {
  auto args = Parse({"--trace", "--eps=1"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("trace", false));
}

TEST(ArgsTest, TypeErrors) {
  // Each bad value reads as the default, and Check() names it.
  auto eps = Parse({"--eps=abc"});
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(eps->GetDouble("eps", 0.5), 0.5);
  EXPECT_EQ(eps->Check().message(), "--eps expects a number, got 'abc'");
  auto flag = Parse({"--flag=maybe"});
  ASSERT_TRUE(flag.ok());
  EXPECT_FALSE(flag->GetBool("flag", false));
  EXPECT_EQ(flag->Check().message(), "--flag expects a boolean, got 'maybe'");
  // Not an integer, past strtoll's range (ERANGE), below the floor, and
  // above the type's max.
  for (const char* count : {"1.5x", "99999999999999999999", "-1", "256"}) {
    auto args = Parse({std::string("--count=") + count});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->GetInt<uint8_t>("count", 10, 0), 10) << count;
    const Status status = args->Check();
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << count;
    EXPECT_EQ(status.message(), std::string("--count expects an integer in "
                                            "[0, 255], got '") +
                                    count + "'");
  }
  // The first bad value is the one reported.
  auto both = Parse({"--a=x", "--b=y"});
  ASSERT_TRUE(both.ok());
  both->GetDouble("b", 0);
  both->GetDouble("a", 0);
  EXPECT_EQ(both->Check().message(), "--b expects a number, got 'y'");
}

TEST(ArgsTest, MalformedFlagRejected) {
  EXPECT_FALSE(Parse({"--=3"}).ok());
  EXPECT_FALSE(Parse({"--"}).ok());
}

TEST(ArgsTest, UnreadFlagsFailCheck) {
  auto args = Parse({"--known=1", "--typo=2", "--also=3"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetInt<int>("known", 0, 0), 1);
  EXPECT_TRUE(args->Has("typo"));  // Has() is not a read
  EXPECT_EQ(args->Check().message(), "unknown flag(s): --also --typo");
  args->GetString("also", "");
  args->GetString("typo", "");
  EXPECT_TRUE(args->Check().ok());
}

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/cli_graph.txt";
    // Sparse background plus a planted near-clique of 20 nodes.
    PlantedGraph pg = PlantDenseBlocks(500, 1000, {{20, 1.0}}, 3);
    ASSERT_TRUE(WriteEdgeListText(path_, pg.edges).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string Run(const std::string& command,
                  std::vector<std::string> tokens, Status* status) {
    tokens.insert(tokens.begin(), path_);
    auto args = Args::Parse(tokens);
    EXPECT_TRUE(args.ok());
    std::ostringstream out;
    *status = RunCliCommand(command, *args, out);
    return out.str();
  }

  std::string path_;
};

TEST_F(CliCommandTest, StatsPrintsCounts) {
  Status status;
  std::string out = Run("stats", {}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("|V|=500"), std::string::npos);
  EXPECT_NE(out.find("power-law"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedFindsPlantedClique) {
  Status status;
  std::string out = Run("undirected", {"--eps=0.1"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 1"), std::string::npos);
  // The 20-clique (plus any background edges that landed inside it).
  EXPECT_NE(out.find("rho=9."), std::string::npos);
  EXPECT_NE(out.find("|S|=20"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedMinSizeUsesAlgorithm2) {
  Status status;
  std::string out = Run("undirected", {"--min-size=50"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 2"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedSketchPath) {
  Status status;
  std::string out =
      Run("undirected", {"--sketch-buckets=512", "--eps=0.5"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("sketched"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedTraceAndOutputFile) {
  std::string out_path = ::testing::TempDir() + "/cli_nodes.txt";
  Status status;
  std::string out = Run(
      "undirected", {"--trace", "--output=" + out_path, "--eps=0.1"},
      &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("pass  nodes"), std::string::npos);
  std::ifstream nodes(out_path);
  ASSERT_TRUE(nodes.good());
  int count = 0;
  std::string line;
  while (std::getline(nodes, line)) ++count;
  EXPECT_EQ(count, 20);  // the planted clique
  std::remove(out_path.c_str());
}

TEST_F(CliCommandTest, ExactMatchesKnownOptimum) {
  Status status;
  std::string out = Run("exact", {}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("rho*=9."), std::string::npos);
  EXPECT_NE(out.find("|S*|=20"), std::string::npos);
}

TEST_F(CliCommandTest, EnumerateListsSubgraphs) {
  Status status;
  std::string out =
      Run("enumerate", {"--count=2", "--min-density=1.5"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("dense subgraphs"), std::string::npos);
  EXPECT_NE(out.find("#1"), std::string::npos);
}

TEST_F(CliCommandTest, DirectedCSearchRuns) {
  Status status;
  std::string out = Run("directed", {"--eps=1"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("c-search"), std::string::npos);
}

TEST_F(CliCommandTest, DirectedSingleC) {
  Status status;
  std::string out = Run("directed", {"--c=1", "--trace"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 3"), std::string::npos);
  EXPECT_NE(out.find("peel"), std::string::npos);
}

TEST_F(CliCommandTest, MapReduceUndirectedWithSpillAndTrace) {
  Status status;
  std::string out =
      Run("mapreduce", {"--eps=1", "--spill-budget=4096", "--trace"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("mapreduce algorithm 1"), std::string::npos);
  EXPECT_NE(out.find("input scans"), std::string::npos);
  EXPECT_NE(out.find("sim_sec"), std::string::npos);
}

TEST_F(CliCommandTest, MapReduceDirectedSingleC) {
  Status status;
  std::string out = Run("mapreduce", {"--directed", "--c=2"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("mapreduce algorithm 3"), std::string::npos);
}

TEST(CliMapReduceTest, RunsOutOfCoreOnBinaryInput) {
  // generate --format=bin, then mapreduce the file: the driver streams it
  // from disk and must agree with the streaming algorithm's CLI path.
  std::string path = ::testing::TempDir() + "/cli_mr.bin";
  auto gen_args = Args::Parse({"er", path, "--nodes=200", "--edges=900",
                               "--seed=9", "--format=bin"});
  ASSERT_TRUE(gen_args.ok());
  std::ostringstream gen_out;
  ASSERT_TRUE(RunCliCommand("generate", *gen_args, gen_out).ok());

  auto mr_args = Args::Parse({path, "--eps=0.5", "--spill-budget=1024"});
  ASSERT_TRUE(mr_args.ok());
  std::ostringstream mr_out;
  Status status = RunCliCommand("mapreduce", *mr_args, mr_out);
  ASSERT_TRUE(status.ok()) << status.ToString();

  auto und_args = Args::Parse({path, "--eps=0.5"});
  std::ostringstream und_out;
  ASSERT_TRUE(RunCliCommand("undirected", *und_args, und_out).ok());
  // Both report the same Summarize(...) line; compare the rho=... token.
  auto rho_of = [](const std::string& s) {
    size_t at = s.find("rho=");
    return s.substr(at, s.find(' ', at) - at);
  };
  EXPECT_EQ(rho_of(mr_out.str()), rho_of(und_out.str()));
  std::remove(path.c_str());
}

/// `densest_cli mapreduce path` at eps 0.5, or as Algorithm 3 at c = 1
/// when `directed`: returns the output and sets `status`.
std::string RunMapReduce(const std::string& path, bool directed,
                         Status* status) {
  std::vector<std::string> tokens = {path, "--eps=0.5"};
  if (directed) tokens = {path, "--directed", "--c=1"};
  auto args = Args::Parse(tokens);
  EXPECT_TRUE(args.ok());
  std::ostringstream out;
  *status = RunCliCommand("mapreduce", *args, out);
  return out.str();
}

TEST(CliMapReduceTest, RejectsWeightedTextAndAcceptsUnitWeights) {
  // 1500 random unit edges, a unit 30-clique and a 10-cycle of weight 100:
  // dropping the weights would report the clique under a band the cycle
  // breaks.
  PlantedGraph pg = PlantDenseBlocks(400, 1500, {{30, 1.0}}, 5);
  EdgeList weighted = pg.edges;
  for (NodeId u = 0; u < 10; ++u) weighted.Add(u, (u + 1) % 10, 100.0);
  const std::string dir = ::testing::TempDir();
  const std::string w_path = dir + "/cli_mr_weighted.txt";
  const std::string plain_path = dir + "/cli_mr_plain.txt";
  const std::string ones_path = dir + "/cli_mr_ones.txt";
  ASSERT_TRUE(WriteEdgeListText(w_path, weighted, true).ok());
  ASSERT_TRUE(WriteEdgeListText(plain_path, pg.edges, false).ok());
  ASSERT_TRUE(WriteEdgeListText(ones_path, pg.edges, true).ok());

  for (bool directed : {false, true}) {
    Status status;
    std::string out = RunMapReduce(w_path, directed, &status);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << directed;
    EXPECT_NE(status.message().find("unit weights"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(out.find("rho="), std::string::npos) << out;

    // "u v 1" lines are the unit graph: same answer as "u v" lines.
    Status plain_status, ones_status;
    std::string plain = RunMapReduce(plain_path, directed, &plain_status);
    std::string ones = RunMapReduce(ones_path, directed, &ones_status);
    ASSERT_TRUE(plain_status.ok()) << plain_status.ToString();
    ASSERT_TRUE(ones_status.ok()) << ones_status.ToString();
    EXPECT_NE(plain.find("rho="), std::string::npos);
    EXPECT_EQ(ones, plain);
  }
  std::remove(w_path.c_str());
  std::remove(plain_path.c_str());
  std::remove(ones_path.c_str());
}

TEST_F(CliCommandTest, DynamicInsertOnlyReplayWithCheckpoints) {
  Status status;
  std::string out = Run(
      "dynamic", {"--query-every=200", "--checkpoint-every=500"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("insert-only"), std::string::npos);
  EXPECT_NE(out.find("certified rho* <"), std::string::npos);
  EXPECT_NE(out.find("band=OK"), std::string::npos);
  EXPECT_NE(out.find("p99="), std::string::npos);
}

TEST_F(CliCommandTest, DynamicSlidingWindowReplay) {
  Status status;
  std::string out = Run(
      "dynamic",
      {"--window=300", "--eps=0.5", "--fallback=rebuild", "--query-every=0"},
      &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("sliding window 300"), std::string::npos);
  EXPECT_NE(out.find("del"), std::string::npos);
}

TEST_F(CliCommandTest, DynamicNeverFallbackReportsUncertified) {
  // The planted clique's density exceeds the boot window, and
  // --fallback=never forbids re-centering: the report must say so instead
  // of printing an impossible certified bound.
  Status status;
  std::string out =
      Run("dynamic", {"--fallback=never", "--query-every=0"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("UNCERTIFIED"), std::string::npos);
  EXPECT_EQ(out.find("certified rho* <"), std::string::npos);
}

TEST_F(CliCommandTest, DynamicRejectsBadFlagValues) {
  Status status;
  Run("dynamic", {"--fallback=sometimes"}, &status);
  ASSERT_FALSE(status.ok());
  Run("dynamic", {"--checkpoints=psychic"}, &status);
  ASSERT_FALSE(status.ok());
  Run("dynamic", {"--window=-1"}, &status);
  ASSERT_FALSE(status.ok());
}

TEST(CliDynamicTest, RunsOnBinaryInput) {
  std::string path = ::testing::TempDir() + "/cli_dyn.bin";
  auto gen_args = Args::Parse({"er", path, "--nodes=200", "--edges=900",
                               "--seed=9", "--format=bin"});
  ASSERT_TRUE(gen_args.ok());
  std::ostringstream gen_out;
  ASSERT_TRUE(RunCliCommand("generate", *gen_args, gen_out).ok());

  auto dyn_args = Args::Parse({path, "--checkpoint-every=400"});
  ASSERT_TRUE(dyn_args.ok());
  std::ostringstream dyn_out;
  Status status = RunCliCommand("dynamic", *dyn_args, dyn_out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(dyn_out.str().find("band=OK"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliDynamicTest, ServeCountsOnlyItsOwnIoRetries) {
  // `serve` prints the retries of its own stream, not the process-wide
  // io.retries counters that every earlier command in the process fed.
  if (!Failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = ::testing::TempDir() + "/cli_serve_retry.bin";
  auto gen_args = Args::Parse({"er", path, "--nodes=200", "--edges=900",
                               "--seed=9", "--format=bin"});
  ASSERT_TRUE(gen_args.ok());
  std::ostringstream gen_out;
  ASSERT_TRUE(RunCliCommand("generate", *gen_args, gen_out).ok());

  for (const std::string command : {"dynamic", "serve"}) {
    auto args = Args::Parse(
        {path, "--failpoint=edge_stream.read:times=2,kind=unavailable"});
    ASSERT_TRUE(args.ok());
    std::ostringstream out;
    const Status status = RunCliCommand(command, *args, out);
    ASSERT_TRUE(status.ok()) << command << ": " << status.ToString();
    EXPECT_NE(out.str().find("io retries: 2 (1 healed, 0 exhausted)"),
              std::string::npos)
        << command << "\n"
        << out.str();
  }
  Failpoints::Instance().ClearAll();
  std::remove(path.c_str());
}

TEST_F(CliCommandTest, NonFiniteEpsilonAndDeltaRejected) {
  // NaN slips through a bare `< 0` test: each of these used to run to its
  // pass cap (or over an empty c-grid) and report an answer.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"undirected", {"--eps=nan"}},
       {"undirected", {"--eps=inf", "--min-size=5"}},
       {"undirected", {"--eps=nan", "--sketch-buckets=512"}},
       {"directed", {"--eps=nan", "--c=1"}},
       {"directed", {"--eps=inf"}},
       {"directed", {"--delta=nan"}},
       {"directed", {"--delta=inf"}},
       // An explicit --c runs Algorithm 3, so a bad ratio fails instead
       // of falling back to a c-search (or, for inf, never peeling S).
       {"directed", {"--c=-2"}},
       {"directed", {"--c=0"}},
       {"directed", {"--c=nan"}},
       {"directed", {"--c=inf"}},
       {"mapreduce", {"--eps=nan"}},
       {"mapreduce", {"--eps=nan", "--directed", "--c=2"}},
       {"mapreduce", {"--directed", "--c=inf"}},
       {"mapreduce", {"--directed", "--c=nan"}}};
  for (const auto& [command, flags] : cases) {
    Status status;
    const std::string out = Run(command, flags, &status);
    std::string label = command;
    for (const std::string& flag : flags) label += " " + flag;
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << label;
    EXPECT_EQ(out.find("passes="), std::string::npos) << label << "\n" << out;
  }
}

TEST_F(CliCommandTest, UnknownFlagRejected) {
  Status status;
  const std::string out = Run("undirected", {"--epsilonn=1"}, &status);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("epsilonn"), std::string::npos);
  EXPECT_EQ(out, "");  // rejected before the run, not after it
}

TEST_F(CliCommandTest, FlagsOffTheirPathAreRejected) {
  // Each of these flags is valid for its command, but not on the path the
  // other flags or the input pick; a flag that changes nothing must fail,
  // not be silently ignored.
  const std::string gen_path = ::testing::TempDir() + "/cli_gen_path.txt";
  const std::string bin_path = ::testing::TempDir() + "/cli_graph.bin";
  {
    auto edges = ReadEdgeListText(path_);
    ASSERT_TRUE(edges.ok());
    ASSERT_TRUE(WriteBinaryEdgeFile(bin_path, *edges, false).ok());
  }
  std::remove(gen_path.c_str());
  struct Case {
    std::string command;
    std::vector<std::string> tokens;
    std::string ignored;
  };
  const std::vector<Case> cases = {
      {"mapreduce", {path_, "--c=4"}, "c"},
      {"directed", {path_, "--c=1", "--delta=4"}, "delta"},
      {"directed", {path_, "--trace"}, "trace"},
      {"undirected", {path_, "--min-size=5", "--compact-below=10"},
       "compact-below"},
      {"undirected", {path_, "--sketch-buckets=64", "--compact-below=10"},
       "compact-below"},
      {"undirected", {path_, "--sketch-tables=3"}, "sketch-tables"},
      {"undirected", {path_, "--min-size=5", "--sketch-buckets=64"},
       "sketch-buckets"},
      {"generate", {"flickr-sim", gen_path, "--nodes=5"}, "nodes"},
      {"generate", {"er", gen_path, "--exponent=3"}, "exponent"},
      {"dynamic", {path_, "--evict-batch=4"}, "evict-batch"},
      {"dynamic", {path_, "--retry-attempts=2"}, "retry-attempts"},
      {"serve", {path_, "--evict-batch=4"}, "evict-batch"},
  };
  for (const Case& c : cases) {
    std::string label = c.command;
    for (const std::string& token : c.tokens) label += " " + token;
    auto args = Args::Parse(c.tokens);
    ASSERT_TRUE(args.ok()) << label;
    std::ostringstream out;
    const Status status = RunCliCommand(c.command, *args, out);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << label;
    EXPECT_EQ(status.message(), "unknown flag(s): --" + c.ignored) << label;
    EXPECT_EQ(out.str(), "") << label;  // nothing ran
    EXPECT_FALSE(std::filesystem::exists(gen_path)) << label;
  }
  // The same flags on their own paths still run.
  const std::vector<std::pair<std::string, std::vector<std::string>>> valid =
      {{"mapreduce", {path_, "--directed", "--c=4"}},
       {"directed", {path_, "--delta=4"}},
       {"directed", {path_, "--c=1", "--trace"}},
       {"undirected", {path_, "--compact-below=10", "--trace"}},
       {"undirected", {path_, "--sketch-buckets=64", "--sketch-tables=3"}},
       {"undirected", {path_, "--min-size=0", "--sketch-buckets=64"}},
       {"undirected", {path_, "--min-size=5", "--trace"}},
       {"generate", {"er", gen_path, "--nodes=50", "--edges=100"}},
       {"generate",
        {"chung-lu", gen_path, "--nodes=50", "--edges=100", "--exponent=3"}},
       {"dynamic", {path_, "--window=500", "--evict-batch=4"}},
       {"dynamic", {bin_path, "--retry-attempts=2", "--retry-base-ms=0"}},
       {"serve", {path_, "--window=500", "--evict-batch=4"}}};
  for (const auto& [command, tokens] : valid) {
    std::string label = command;
    for (const std::string& token : tokens) label += " " + token;
    auto args = Args::Parse(tokens);
    ASSERT_TRUE(args.ok()) << label;
    std::ostringstream out;
    const Status status = RunCliCommand(command, *args, out);
    EXPECT_TRUE(status.ok()) << label << ": " << status.ToString();
  }
  std::remove(gen_path.c_str());
  std::remove(bin_path.c_str());
}

TEST_F(CliCommandTest, OutOfRangeIntegerFlagsFailBeforeAnyWork) {
  // Each value used to wrap through a cast: --nodes=-5 wrote a graph of
  // 4294967291 nodes, --edges=-1 never returned, --count=-1 lifted the cap
  // and --mappers=4294967296 ran one mapper.
  const std::string gen_path = ::testing::TempDir() + "/cli_gen_range.txt";
  struct Case {
    std::string command;
    std::vector<std::string> tokens;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {"generate", {"er", gen_path, "--nodes=-5", "--edges=10"}, "nodes"},
      {"generate", {"er", gen_path, "--nodes=100", "--edges=-1"}, "edges"},
      {"enumerate", {path_, "--count=-1"}, "count"},
      {"undirected", {path_, "--min-size=-5"}, "min-size"},
      {"undirected", {path_, "--sketch-buckets=-4"}, "sketch-buckets"},
      {"undirected", {path_, "--compact-below=-1"}, "compact-below"},
      {"mapreduce", {path_, "--mappers=4294967296"}, "mappers"},
      {"undirected", {path_, "--sketch-buckets=99999999999"},
       "sketch-buckets"},
      {"chaos", {"--seed=-1"}, "seed"},
  };
  for (const Case& c : cases) {
    std::string label = c.command;
    for (const std::string& token : c.tokens) label += " " + token;
    auto args = Args::Parse(c.tokens);
    ASSERT_TRUE(args.ok()) << label;
    std::ostringstream out;
    const Status status = RunCliCommand(c.command, *args, out);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << label;
    EXPECT_EQ(status.message().rfind("--" + c.flag + " expects an integer", 0),
              0u)
        << label << ": " << status.ToString();
    EXPECT_EQ(out.str(), "") << label;
    EXPECT_FALSE(std::filesystem::exists(gen_path)) << label;
  }
}

TEST_F(CliCommandTest, UnknownCommandRejected) {
  Status status;
  Run("frobnicate", {}, &status);
  ASSERT_FALSE(status.ok());
}

TEST(CliGenerateTest, GenerateErRoundTrips) {
  std::string path = ::testing::TempDir() + "/cli_gen.txt";
  auto args = Args::Parse(
      {"er", path, "--nodes=100", "--edges=300", "--seed=7"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  Status status = RunCliCommand("generate", *args, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("|E|=300"), std::string::npos);
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 300u);
  std::remove(path.c_str());
}

TEST(CliGenerateTest, ErRejectsMoreEdgesThanPairs) {
  // 10 nodes have 45 pairs: the sampler used to draw forever for a 46th.
  const std::string gen_path = ::testing::TempDir() + "/cli_gen_pairs.txt";
  auto args = Args::Parse({"er", gen_path, "--nodes=10", "--edges=46"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  const Status status = RunCliCommand("generate", *args, out);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "--edges=46 exceeds the 45 node pairs of --nodes=10");
  EXPECT_EQ(out.str(), "");
  EXPECT_FALSE(std::filesystem::exists(gen_path));
  // Exactly the pair count is the complete graph.
  auto full = Args::Parse({"er", gen_path, "--nodes=10", "--edges=45"});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(RunCliCommand("generate", *full, out).ok());
  EXPECT_NE(out.str().find("|E|=45"), std::string::npos) << out.str();
  std::remove(gen_path.c_str());
}

TEST(CliChaosTest, RejectsMoreEdgesThanPairs) {
  // 10 nodes have 45 pairs: the workload's sampler used to draw forever for
  // a 46th.
  auto args = Args::Parse({"--nodes=10", "--edges=46"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  const Status status = RunCliCommand("chaos", *args, out);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "chaos: edges=46 exceeds the 45 node pairs of nodes=10");
}

TEST(CliGenerateTest, GenerateBinaryFormat) {
  std::string path = ::testing::TempDir() + "/cli_gen.bin";
  auto args = Args::Parse({"er", path, "--nodes=50", "--edges=100",
                           "--format=bin"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCliCommand("generate", *args, out).ok());

  // stats must be able to read it back.
  auto stat_args = Args::Parse({path});
  std::ostringstream stats_out;
  Status status = RunCliCommand("stats", *stat_args, stats_out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(stats_out.str().find("|E|=100"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliGenerateTest, TruncatedBinaryFileRejected) {
  // A .bin whose header promises more edges than its body holds must fail
  // loading with an IOError, not silently analyze a partial graph.
  std::string path = ::testing::TempDir() + "/cli_trunc.bin";
  auto args = Args::Parse({"er", path, "--nodes=2000", "--edges=30000",
                           "--format=bin"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCliCommand("generate", *args, out).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5000 * 8);

  auto run_args = Args::Parse({path, "--eps=0.5"});
  std::ostringstream run_out;
  Status status = RunCliCommand("undirected", *run_args, run_out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(CliCorruptInputTest, OutOfRangeBinaryRecordFailsEveryCommand) {
  // A 4-node, 3-edge file whose last record names node 50000000: every
  // command must fail on it rather than report a subgraph (or crash).
  const std::string path = ::testing::TempDir() + "/cli_out_of_range.bin";
  BinaryEdgeFileHeader header;
  header.num_nodes = 4;
  header.num_edges = 3;
  const uint32_t records[3][2] = {{0, 1}, {1, 2}, {50000000, 3}};
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  ASSERT_EQ(std::fwrite(records, sizeof(records), 1, f), 1u);
  std::fclose(f);

  const std::vector<std::pair<std::string, std::string>> runs = {
      {"undirected", "--eps=0.5"}, {"directed", "--c=1"},
      {"mapreduce", "--eps=1"}};
  for (const auto& [command, flag] : runs) {
    auto args = Args::Parse({path, flag});
    ASSERT_TRUE(args.ok());
    std::ostringstream out;
    const Status status = RunCliCommand(command, *args, out);
    EXPECT_EQ(status.code(), Status::Code::kIOError) << command;
    EXPECT_EQ(out.str().find("rho="), std::string::npos) << out.str();
  }
  std::remove(path.c_str());
}

TEST(CliCorruptInputTest, OversizedTextNodeIdFails) {
  // Node 2^32 - 1 would wrap the node count to 0.
  const std::string path = ::testing::TempDir() + "/cli_wide_id.txt";
  {
    std::ofstream out(path);
    out << "0 1\n1 2\n2 0\n0 4294967295\n";
  }
  auto args = Args::Parse({path});
  ASSERT_TRUE(args.ok());
  std::ostringstream out;
  const Status status = RunCliCommand("undirected", *args, out);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find(path + ":4"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(out.str().find("rho="), std::string::npos) << out.str();
  std::remove(path.c_str());
}

TEST(CliGenerateTest, RejectsUnknownDatasetAndFormat) {
  std::ostringstream out;
  auto bad_name = Args::Parse({"nope", "/tmp/x.txt"});
  EXPECT_FALSE(RunCliCommand("generate", *bad_name, out).ok());
  auto bad_format = Args::Parse({"er", "/tmp/x.txt", "--format=xml"});
  EXPECT_FALSE(RunCliCommand("generate", *bad_format, out).ok());
}

TEST(CliUsageTest, MentionsAllCommands) {
  std::string usage = CliUsage();
  for (const char* cmd :
       {"stats", "undirected", "directed", "exact", "enumerate", "generate"}) {
    EXPECT_NE(usage.find(cmd), std::string::npos) << cmd;
  }
}

}  // namespace
}  // namespace densest
