// Tests for the incremental densest-subgraph maintenance subsystem: the
// edge-key hash set, the dynamic adjacency, the degree-level invariants
// under churn, the engine's certified approximation band against the exact
// solver, the insert-only equivalence with batch Algorithm 1 across every
// stream type, and the replay driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "dynamic/degree_levels.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "flow/goldberg.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/undirected_graph.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

constexpr double kTol = 1e-9;

// ------------------------------------------------------------ EdgeKeySet --

TEST(EdgeKeySetTest, InsertEraseChurnMatchesReference) {
  EdgeKeySet set;
  std::set<uint64_t> reference;
  Rng rng(42);
  for (int step = 0; step < 50000; ++step) {
    // A small universe forces constant collisions of intent (not hash):
    // most operations hit existing keys.
    const NodeId u = static_cast<NodeId>(rng.UniformU64(40));
    const NodeId v = static_cast<NodeId>(rng.UniformU64(40));
    if (u == v) continue;
    const uint64_t key = EdgeKeySet::Key(u, v);
    if (rng.Bernoulli(0.55)) {
      EXPECT_EQ(set.Insert(key), reference.insert(key).second);
    } else {
      EXPECT_EQ(set.Erase(key), reference.erase(key) > 0);
    }
    EXPECT_EQ(set.size(), reference.size());
  }
  for (uint64_t key : reference) EXPECT_TRUE(set.Contains(key));
}

TEST(EdgeKeySetTest, GrowsThroughManyInserts) {
  EdgeKeySet set;
  for (NodeId i = 0; i < 5000; ++i) {
    EXPECT_TRUE(set.Insert(EdgeKeySet::Key(i, i + 1)));
  }
  EXPECT_EQ(set.size(), 5000u);
  for (NodeId i = 0; i < 5000; ++i) {
    EXPECT_TRUE(set.Contains(EdgeKeySet::Key(i + 1, i)));  // canonical key
    EXPECT_FALSE(set.Insert(EdgeKeySet::Key(i, i + 1)));
  }
}

// ------------------------------------------------------ DynamicAdjacency --

TEST(DynamicAdjacencyTest, RejectsDuplicatesSelfLoopsAndOutOfRange) {
  DynamicAdjacency adj(10);
  EXPECT_TRUE(adj.Insert(1, 2));
  EXPECT_FALSE(adj.Insert(2, 1));  // same undirected edge
  EXPECT_FALSE(adj.Insert(3, 3));  // self-loop
  EXPECT_FALSE(adj.Insert(1, 10));  // out of range
  EXPECT_EQ(adj.num_edges(), 1u);
  EXPECT_FALSE(adj.Erase(1, 3));  // absent
  EXPECT_TRUE(adj.Erase(2, 1));
  EXPECT_EQ(adj.num_edges(), 0u);
  EXPECT_EQ(adj.degree(1), 0u);
  EXPECT_EQ(adj.degree(2), 0u);
}

TEST(DynamicAdjacencyTest, ToEdgeListSnapshotsCanonically) {
  DynamicAdjacency adj(5);
  adj.Insert(3, 1);
  adj.Insert(0, 4);
  adj.Insert(1, 2);
  adj.Erase(1, 2);
  EdgeList edges = adj.ToEdgeList();
  EXPECT_EQ(edges.num_edges(), 2u);
  for (const Edge& e : edges.edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(adj.Contains(e.u, e.v));
  }
}

// ---------------------------------------------------------- DegreeLevels --

/// Brute-force check of everything a DegreeLevels structure maintains:
/// counter exactness, both invariants, and the level-set aggregates that
/// FindBestLevel reads.
void VerifyStructure(const DegreeLevels& levels, const DynamicAdjacency& adj,
                     double d, double eps) {
  const NodeId n = adj.num_nodes();
  const double promote = 2.0 * (1.0 + eps) * d;
  const double demote = 2.0 * d;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t lv = levels.level(v);
    ASSERT_LE(lv, levels.levels());
    uint32_t up = 0;
    uint32_t near = 0;
    for (NodeId x : adj.neighbors(v)) {
      if (levels.level(x) >= lv) ++up;
      if (levels.level(x) + 1 >= lv) ++near;
    }
    ASSERT_EQ(levels.up_deg(v), up) << "node " << v;
    ASSERT_EQ(levels.near_deg(v), near) << "node " << v;
    if (lv < levels.levels()) {
      ASSERT_LT(static_cast<double>(up), promote)
          << "promote invariant violated at node " << v;
    }
    if (lv > 0) {
      ASSERT_GE(static_cast<double>(near), demote)
          << "demote invariant violated at node " << v;
    }
  }
  // FindBestLevel's density must be the real induced density of the level
  // set it names.
  const DegreeLevels::BestLevel best = levels.FindBestLevel();
  std::vector<NodeId> members = levels.CollectLevelSet(best.level);
  ASSERT_EQ(members.size(), best.nodes);
  std::set<NodeId> member_set(members.begin(), members.end());
  EdgeId induced = 0;
  const EdgeList snapshot = adj.ToEdgeList();
  for (const Edge& e : snapshot.edges()) {
    if (member_set.count(e.u) != 0 && member_set.count(e.v) != 0) ++induced;
  }
  ASSERT_EQ(induced, best.edges);
  if (best.nodes > 0) {
    ASSERT_NEAR(best.density,
                static_cast<double>(induced) / static_cast<double>(best.nodes),
                kTol);
  }
}

TEST(DegreeLevelsTest, InvariantsHoldUnderRandomChurn) {
  const NodeId n = 60;
  const double eps = 0.5;
  for (double d : {0.25, 1.0, 4.0}) {
    DynamicAdjacency adj(n);
    DegreeLevels levels(n, d, eps, 16);
    Rng rng(static_cast<uint64_t>(d * 1000) + 1);
    for (int step = 0; step < 4000; ++step) {
      const NodeId u = static_cast<NodeId>(rng.UniformU64(n));
      const NodeId v = static_cast<NodeId>(rng.UniformU64(n));
      if (u == v) continue;
      if (rng.Bernoulli(0.6)) {
        if (adj.Insert(u, v)) levels.OnInsert(u, v, adj);
      } else {
        if (adj.Erase(u, v)) levels.OnDelete(u, v, adj);
      }
      if (step % 500 == 499) VerifyStructure(levels, adj, d, eps);
    }
    VerifyStructure(levels, adj, d, eps);
  }
}

TEST(DegreeLevelsTest, RebuildSatisfiesInvariants) {
  const NodeId n = 80;
  const double eps = 0.3;
  EdgeList edges = ErdosRenyiGnm(n, 600, 5);
  DynamicAdjacency adj(n);
  for (const Edge& e : edges.edges()) adj.Insert(e.u, e.v);
  for (double d : {0.25, 2.0, 8.0}) {
    DegreeLevels levels(n, d, eps, 20);
    levels.Rebuild(adj);
    VerifyStructure(levels, adj, d, eps);
  }
}

TEST(DegreeLevelsTest, SingleEdgeClimbsToTopAtBaseThreshold) {
  // The slot-0 certificate must be nonempty whenever any edge exists:
  // that's what makes "no certifying slot" synonymous with an empty graph.
  DynamicAdjacency adj(4);
  DegreeLevels levels(4, 0.25, 0.5, 8);
  adj.Insert(0, 1);
  levels.OnInsert(0, 1, adj);
  EXPECT_GT(levels.top_count(), 0u);
  adj.Erase(0, 1);
  levels.OnDelete(0, 1, adj);
  EXPECT_EQ(levels.top_count(), 0u);
  VerifyStructure(levels, adj, 0.25, 0.5);
}

// -------------------------------------------------------- DynamicDensest --

TEST(DynamicDensestTest, CreateValidatesArguments) {
  EXPECT_FALSE(DynamicDensest::Create(0).ok());
  DynamicDensestOptions opt;
  opt.epsilon = 0.001;
  EXPECT_FALSE(DynamicDensest::Create(10, opt).ok());
  opt.epsilon = 1.5;
  EXPECT_FALSE(DynamicDensest::Create(10, opt).ok());
  opt.epsilon = std::nan("");
  EXPECT_FALSE(DynamicDensest::Create(10, opt).ok());
  opt.epsilon = 0.5;
  EXPECT_TRUE(DynamicDensest::Create(10, opt).ok());
  for (double bad : {-0.5, std::nan(""), static_cast<double>(INFINITY)}) {
    DynamicDensestOptions recompute;
    recompute.recompute_epsilon = bad;
    EXPECT_FALSE(DynamicDensest::Create(10, recompute).ok()) << bad;
  }
}

TEST(DynamicDensestTest, EmptyGraphAnswersZeroCertified) {
  auto engine = DynamicDensest::Create(16);
  ASSERT_TRUE(engine.ok());
  const DynamicDensest::Answer a = (*engine)->Query();
  EXPECT_EQ(a.density, 0);
  EXPECT_TRUE(a.certified);
  EXPECT_TRUE((*engine)->DensestNodes().empty());
}

TEST(DynamicDensestTest, IgnoresDuplicatesSelfLoopsAndAbsentDeletes) {
  auto engine = DynamicDensest::Create(8);
  ASSERT_TRUE(engine.ok());
  (*engine)->Apply(InsertUpdate(0, 1));
  (*engine)->Apply(InsertUpdate(1, 0));   // duplicate
  (*engine)->Apply(InsertUpdate(2, 2));   // self-loop
  (*engine)->Apply(InsertUpdate(3, 99));  // out of range
  (*engine)->Apply(DeleteUpdate(4, 5));   // absent
  EXPECT_EQ((*engine)->stats().inserts, 1u);
  EXPECT_EQ((*engine)->stats().ignored, 4u);
  EXPECT_EQ((*engine)->num_edges(), 1u);
}

/// Asserts the engine's certified sandwich against the exact solver.
void CheckBand(DynamicDensest& engine) {
  const DynamicDensest::Answer a = engine.Query();
  EdgeList edges = engine.CurrentEdges();
  if (edges.empty()) {
    EXPECT_EQ(a.density, 0);
    return;
  }
  UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);
  auto exact = ExactDensestSubgraph(g);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(a.certified);
  EXPECT_LE(a.density, exact->density * (1 + kTol) + kTol);
  EXPECT_LE(exact->density, a.upper_bound * (1 + kTol) + kTol);
  // The worst case the band promises: upper / lower <= 2(1+eps)^3.
  EXPECT_LE(a.upper_bound / std::max(a.density, 1e-30),
            engine.ApproxBand() * (1 + kTol));
  // And the served set really has the served density.
  std::vector<NodeId> nodes = engine.DensestNodes();
  EXPECT_EQ(nodes.size(), a.size);
  std::set<NodeId> in(nodes.begin(), nodes.end());
  EdgeId induced = 0;
  for (const Edge& e : edges.edges()) {
    if (in.count(e.u) != 0 && in.count(e.v) != 0) ++induced;
  }
  EXPECT_NEAR(a.density,
              static_cast<double>(induced) / static_cast<double>(nodes.size()),
              kTol);
}

TEST(DynamicDensestTest, HysteresisSuppressesBoundaryTrimThrash) {
  // Grow a clique edge by edge: the certifying slot climbs far above the
  // window's low end, so the trim condition starts holding. With
  // trim_hysteresis=1 (the legacy immediate-trim behavior) each excursion
  // moves the window right away; with a large hysteresis the drift is
  // deferred, counted, and — when density falls back — fully avoided.
  const NodeId kClique = 40;
  auto grow = [](DynamicDensest& engine) {
    uint64_t ts = 0;
    for (NodeId u = 0; u < kClique; ++u) {
      for (NodeId v = u + 1; v < kClique; ++v) {
        engine.Apply(InsertUpdate(u, v, ++ts));
      }
    }
    return ts;
  };

  DynamicDensestOptions immediate;
  immediate.epsilon = 0.3;
  immediate.trim_hysteresis = 1;
  auto eager = DynamicDensest::Create(kClique, immediate);
  ASSERT_TRUE(eager.ok());
  grow(**eager);

  DynamicDensestOptions lazy = immediate;
  lazy.trim_hysteresis = 1u << 30;  // defer forever
  auto deferred = DynamicDensest::Create(kClique, lazy);
  ASSERT_TRUE(deferred.ok());
  uint64_t ts = grow(**deferred);

  // The workload hits the trim condition (else this test is vacuous), the
  // eager engine acted on it, the deferred one only counted it.
  EXPECT_GT((*deferred)->stats().trims_deferred, 0u);
  EXPECT_EQ((*deferred)->stats().recomputes_avoided, 0u);
  EXPECT_GT((*eager)->stats().window_moves,
            (*deferred)->stats().window_moves);
  EXPECT_GE((*eager)->window_lo(), (*deferred)->window_lo());
  // Both serve correct certified answers — hysteresis trades maintenance
  // cost only, never the band.
  CheckBand(**eager);
  CheckBand(**deferred);

  // A transient excursion: grow a fresh engine only until the drift streak
  // has clearly formed (full growth would end on a re-centering that
  // resets it), then let density fall back. The streak dies without ever
  // trimming — that is the avoided recompute.
  auto probe = DynamicDensest::Create(kClique, lazy);
  ASSERT_TRUE(probe.ok());
  std::vector<std::pair<NodeId, NodeId>> inserted;
  ts = 0;
  for (NodeId u = 0; u < kClique && (*probe)->trim_streak() < 8; ++u) {
    for (NodeId v = u + 1; v < kClique && (*probe)->trim_streak() < 8; ++v) {
      (*probe)->Apply(InsertUpdate(u, v, ++ts));
      inserted.emplace_back(u, v);
    }
  }
  ASSERT_GE((*probe)->trim_streak(), 8u) << "workload never armed the streak";
  for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
    (*probe)->Apply(DeleteUpdate(it->first, it->second, ++ts));
    if ((*probe)->stats().recomputes_avoided > 0) break;
  }
  EXPECT_GT((*probe)->stats().recomputes_avoided, 0u);
  EXPECT_EQ((*probe)->trim_streak(), 0u);
  CheckBand(**probe);
}

TEST(DynamicDensestTest, BandHoldsUnderInsertDeleteChurn) {
  for (DynamicFallback fallback :
       {DynamicFallback::kRecompute, DynamicFallback::kRebuildOnly}) {
    for (double eps : {0.3, 0.8}) {
      DynamicDensestOptions opt;
      opt.epsilon = eps;
      opt.fallback = fallback;
      opt.window_radius = 1;  // small window: force window moves
      auto engine = DynamicDensest::Create(48, opt);
      ASSERT_TRUE(engine.ok());
      Rng rng(static_cast<uint64_t>(eps * 100) +
              (fallback == DynamicFallback::kRecompute ? 7 : 77));
      for (int step = 0; step < 3000; ++step) {
        const NodeId u = static_cast<NodeId>(rng.UniformU64(48));
        const NodeId v = static_cast<NodeId>(rng.UniformU64(48));
        // Bias toward a hot clique so density actually climbs and falls.
        const bool in_core = rng.Bernoulli(0.5);
        const NodeId uu = in_core ? u % 12 : u;
        const NodeId vv = in_core ? v % 12 : v;
        (*engine)->Apply(rng.Bernoulli(0.65) ? InsertUpdate(uu, vv)
                                             : DeleteUpdate(uu, vv));
        if (step % 250 == 249) CheckBand(**engine);
      }
      CheckBand(**engine);
      EXPECT_GT((*engine)->stats().window_moves, 0u);
    }
  }
}

TEST(DynamicDensestTest, DeleteToEmptyReturnsToZero) {
  auto engine = DynamicDensest::Create(30);
  ASSERT_TRUE(engine.ok());
  EdgeList edges = ErdosRenyiGnm(30, 200, 9);
  for (const Edge& e : edges.edges()) {
    (*engine)->Apply(InsertUpdate(e.u, e.v));
  }
  EXPECT_GT((*engine)->Query().density, 0);
  for (const Edge& e : edges.edges()) {
    (*engine)->Apply(DeleteUpdate(e.u, e.v));
  }
  EXPECT_EQ((*engine)->num_edges(), 0u);
  const DynamicDensest::Answer a = (*engine)->Query();
  EXPECT_EQ(a.density, 0);
  EXPECT_TRUE(a.certified);
}

TEST(DynamicDensestTest, NeverFallbackServesUncertifiedWhenDegraded) {
  DynamicDensestOptions opt;
  opt.fallback = DynamicFallback::kNever;
  opt.window_radius = 0;  // window [0, 1]: a clique degrades it immediately
  auto engine = DynamicDensest::Create(24, opt);
  ASSERT_TRUE(engine.ok());
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) {
      (*engine)->Apply(InsertUpdate(u, v));
    }
  }
  const DynamicDensest::Answer a = (*engine)->Query();
  EXPECT_FALSE(a.certified);
  EXPECT_GT(a.density, 0);  // best-effort answer is still served
  EXPECT_EQ((*engine)->stats().recomputes, 0u);
}

// Satellite: insert-only dynamic equivalence. Replaying ANY EdgeStream as
// insertions and querying at the end must land within the approximation
// band of RunAlgorithm1 on the same edges, across all stream types. Every
// recompute runs on the service's own one-thread engine, so no recompute
// thread count is left to vary.
TEST(DynamicDensestTest, InsertOnlyReplayMatchesBatchAcrossStreamsAndThreads) {
  const std::string bin_path =
      (std::filesystem::temp_directory_path() / "dynamic_equiv_test.bin")
          .string();
  EdgeList er = ErdosRenyiGnm(400, 3000, 21);
  ASSERT_TRUE(WriteBinaryEdgeFile(bin_path, er, /*weighted=*/false).ok());
  UndirectedGraph er_graph = UndirectedGraph::FromEdgeList(er);

  EdgeListStream list_stream(er);
  UndirectedGraphStream graph_stream(er_graph);
  auto file_stream = BinaryFileEdgeStream::Open(bin_path);
  ASSERT_TRUE(file_stream.ok());
  GnpEdgeStream gnp_stream(300, 0.03, 99);
  CirculantEdgeStream circ_stream(256, 8);

  struct Case {
    const char* name;
    EdgeStream* stream;
  };
  const Case cases[] = {
      {"edge_list", &list_stream},
      {"csr_graph", &graph_stream},
      {"binary_file", file_stream->get()},
      {"gnp", &gnp_stream},
      {"circulant", &circ_stream},
  };
  const double batch_eps = 0.5;

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Algorithm1Options a1;
    a1.epsilon = batch_eps;
    a1.record_trace = false;
    auto batch = RunAlgorithm1(*c.stream, a1);
    ASSERT_TRUE(batch.ok());

    DynamicDensestOptions opt;
    opt.window_radius = 1;
    auto engine = DynamicDensest::Create(c.stream->num_nodes(), opt);
    ASSERT_TRUE(engine.ok());
    InsertReplayUpdateStream replay(*c.stream);
    replay.Reset();
    EdgeUpdate u;
    while (replay.Next(&u)) (*engine)->Apply(u);
    ASSERT_TRUE(replay.status().ok());

    const DynamicDensest::Answer a = (*engine)->Query();
    ASSERT_TRUE(a.certified);
    // Both answers sandwich rho*: dynamic <= rho* <= (2+2eps) batch and
    // batch <= rho* < dynamic upper bound.
    EXPECT_LE(a.density, (2 + 2 * batch_eps) * batch->density * (1 + kTol));
    EXPECT_LE(batch->density, a.upper_bound * (1 + kTol));
    // The dynamic answer's own band around rho*.
    EXPECT_LE(batch->density / (2 + 2 * batch_eps),
              a.upper_bound * (1 + kTol));
  }
  std::remove(bin_path.c_str());
}

// ----------------------------------------------------------- ReplayUpdates --

TEST(ReplayTest, InsertOnlyReplayReportsAndStaysInBand) {
  EdgeList edges = ErdosRenyiGnm(120, 900, 13);
  EdgeListStream base(edges);
  InsertReplayUpdateStream updates(base);
  auto engine = DynamicDensest::Create(base.num_nodes());
  ASSERT_TRUE(engine.ok());
  ReplayOptions opt;
  opt.query_every = 100;
  opt.checkpoint_every = 300;
  opt.checkpoint_mode = CheckpointMode::kExactFlow;
  auto report = ReplayUpdates(updates, **engine, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->updates, edges.num_edges());
  EXPECT_TRUE(report->band_ok);
  EXPECT_EQ(report->checkpoints.size(), edges.num_edges() / 300);
  EXPECT_GT(report->queries, 0u);
  EXPECT_GT(report->updates_per_sec, 0);
  EXPECT_GE(report->max_observed_error, 1.0);
  EXPECT_LE(report->max_observed_error,
            (*engine)->ApproxBand() * (1 + kTol));
  EXPECT_EQ(report->final_edges, edges.num_edges());
}

TEST(ReplayTest, SlidingWindowReplayStaysInBand) {
  EdgeList edges = ErdosRenyiGnm(100, 2000, 17);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream updates(base, 500);
  auto engine = DynamicDensest::Create(base.num_nodes());
  ASSERT_TRUE(engine.ok());
  ReplayOptions opt;
  opt.query_every = 128;
  opt.checkpoint_every = 700;
  auto report = ReplayUpdates(updates, **engine, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->band_ok);
  EXPECT_GT(report->engine_stats.deletes, 0u);
  EXPECT_EQ(report->final_edges, 500u);
}

TEST(ReplayTest, BatchCheckpointsWork) {
  EdgeList edges = ErdosRenyiGnm(200, 1500, 23);
  EdgeListStream base(edges);
  InsertReplayUpdateStream updates(base);
  auto engine = DynamicDensest::Create(base.num_nodes());
  ASSERT_TRUE(engine.ok());
  ReplayOptions opt;
  opt.checkpoint_every = 500;
  opt.checkpoint_mode = CheckpointMode::kBatchAlgorithm1;
  auto report = ReplayUpdates(updates, **engine, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->band_ok);
  EXPECT_FALSE(report->checkpoints.empty());
}

TEST(ReplayTest, TruncatedUpdateFileFailsTheReplay) {
  std::vector<EdgeUpdate> updates;
  for (uint32_t i = 0; i < 200; ++i) {
    updates.push_back(InsertUpdate(i % 40, (i + 1) % 40, i + 1));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "dynamic_trunc_replay.bin")
          .string();
  ASSERT_TRUE(WriteBinaryUpdateFile(path, 40, updates).ok());
  std::filesystem::resize_file(
      path, sizeof(BinaryUpdateFileHeader) + 150 * sizeof(EdgeUpdate));
  auto stream = BinaryFileUpdateStream::Open(path);
  ASSERT_TRUE(stream.ok());
  auto engine = DynamicDensest::Create(40);
  ASSERT_TRUE(engine.ok());
  auto report = ReplayUpdates(**stream, **engine, ReplayOptions{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace densest
