// Copyright 2026 The densest Authors.
// Reader-pool stress over the epoch-published serving plane, written to
// fail loudly under ThreadSanitizer if the seqlock discipline regresses:
// one writer replays a sliding-window workload through the production
// publish seam (ReplayUpdates -> AnswerPlane::Publish) while raw reader
// threads hammer ReadAnswer/ReadMembership/ReadSnapshot and a QueryService
// client submits batches — all concurrently. After the join, every single
// observation must be bit-exact against the writer's recorded publication
// log: one publication's payload, never a blend of two. The assertions
// catch torn reads even without TSan; the cross-thread access pattern is
// what makes a memory-ordering regression visible to the race detector.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dynamic/dynamic_densest.h"
#include "dynamic/replay.h"
#include "gen/erdos_renyi.h"
#include "gtest/gtest.h"
#include "serve/answer_plane.h"
#include "serve/query_service.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {
namespace {

// TSan runs every schedule ~5-20x slower; fewer, smaller rounds keep the
// suite fast while still crossing the interesting interleavings.
#ifdef DENSEST_TSAN
constexpr int kRounds = 2;
constexpr EdgeId kEdges = 800;
#else
constexpr int kRounds = 4;
constexpr EdgeId kEdges = 2000;
#endif
constexpr NodeId kNodes = 120;
constexpr uint64_t kWindow = 400;
constexpr int kRawReaders = 3;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One thing some thread observed mid-replay, checked post-join against
/// the writer log.
struct Observed {
  Answer answer;
  bool has_member = false;
  NodeId node = 0;
  bool member = false;
  bool has_snapshot = false;
  uint64_t prefix_updates = 0;
  std::vector<NodeId> members;
};

/// Bit-exact check of one observation against the publication its epoch
/// names. Epoch 0 (pre-first-publish) must be the default empty answer.
testing::AssertionResult MatchesLog(const Observed& ob,
                                    const std::vector<PlaneSnapshot>& log) {
  const Answer& got = ob.answer;
  Answer want;  // epoch 0: the default
  uint64_t want_prefix = 0;
  const std::vector<NodeId>* want_members = nullptr;
  if (got.epoch > 0) {
    if (got.epoch > log.size()) {
      return testing::AssertionFailure()
             << "epoch " << got.epoch << " beyond " << log.size()
             << " publications";
    }
    const PlaneSnapshot& entry = log[got.epoch - 1];
    want = entry.answer;
    want.epoch = got.epoch;
    want_prefix = entry.prefix_updates;
    want_members = &entry.members;
  }
  if (!SameBits(got.density, want.density) ||
      !SameBits(got.upper_bound, want.upper_bound) ||
      got.size != want.size || got.certified != want.certified ||
      got.stale != want.stale) {
    return testing::AssertionFailure()
           << "torn answer at epoch " << got.epoch << ": got density "
           << got.density << " size " << got.size << ", log says "
           << want.density << " size " << want.size;
  }
  if (ob.has_member) {
    const bool member =
        want_members != nullptr &&
        std::binary_search(want_members->begin(), want_members->end(),
                           ob.node);
    if (ob.member != member) {
      return testing::AssertionFailure()
             << "membership of node " << ob.node << " at epoch " << got.epoch
             << " disagrees with the log";
    }
  }
  if (ob.has_snapshot) {
    if (ob.prefix_updates != want_prefix ||
        (want_members != nullptr ? ob.members != *want_members
                                 : !ob.members.empty())) {
      return testing::AssertionFailure()
             << "snapshot at epoch " << got.epoch
             << " disagrees with the log (prefix " << ob.prefix_updates
             << " vs " << want_prefix << ")";
    }
  }
  return testing::AssertionSuccess();
}

std::vector<EdgeUpdate> MakeWorkload(uint64_t seed) {
  EdgeList edges = ErdosRenyiGnm(kNodes, kEdges, seed);
  EdgeListStream base(edges);
  SlidingWindowUpdateStream windowed(base, kWindow);
  std::vector<EdgeUpdate> updates;
  windowed.Reset();
  EdgeUpdate u;
  while (windowed.Next(&u)) updates.push_back(u);
  return updates;
}

TEST(ServeStressTest, ConcurrentReadersSeeOnlyWholePublications) {
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<EdgeUpdate> updates =
        MakeWorkload(91 + static_cast<uint64_t>(round));
    auto engine = DynamicDensest::Create(kNodes);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    MemoryUpdateStream stream(updates, kNodes);

    AnswerPlane plane(kNodes);
    plane.EnableWriterLog();
    QueryServiceOptions qopt;
    qopt.num_readers = 2;
    QueryService service(plane, qopt);

    std::atomic<bool> stop{false};
    // The writer spins on this before replaying: a 3k-update replay can
    // finish before std::thread even schedules a reader, and a stress
    // with no overlap stresses nothing.
    std::atomic<int> ready{0};
    std::vector<std::vector<Observed>> observed(kRawReaders + 1);

    // Raw readers: all three read paths, recorded verbatim.
    std::vector<std::thread> readers;
    for (int t = 0; t < kRawReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(Mix64(1000 + static_cast<uint64_t>(t)));
        std::vector<Observed>& mine = observed[static_cast<size_t>(t)];
        ready.fetch_add(1, std::memory_order_release);
        while (!stop.load(std::memory_order_acquire)) {
          Observed ob;
          switch (rng.UniformU64(3)) {
            case 0:
              ob.answer = plane.ReadAnswer();
              break;
            case 1: {
              ob.node = static_cast<NodeId>(rng.UniformU64(kNodes));
              const AnswerPlane::Membership m = plane.ReadMembership(ob.node);
              ob.answer = m.answer;
              ob.member = m.member;
              ob.has_member = true;
              break;
            }
            default: {
              PlaneSnapshot snap = plane.ReadSnapshot();
              ob.answer = snap.answer;
              ob.prefix_updates = snap.prefix_updates;
              ob.members = std::move(snap.members);
              ob.has_snapshot = true;
              break;
            }
          }
          mine.push_back(std::move(ob));
        }
      });
    }

    // A batched client through the pool, same recording.
    std::thread client([&] {
      Rng rng(Mix64(77));
      std::vector<Observed>& mine = observed.back();
      std::vector<ServeResult> results;
      ready.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<ServeQuery> batch(4);
        for (ServeQuery& q : batch) {
          const uint64_t draw = rng.UniformU64(3);
          q.kind = draw == 0   ? ServeQuery::Kind::kDensity
                   : draw == 1 ? ServeQuery::Kind::kMembership
                               : ServeQuery::Kind::kSnapshot;
          q.node = static_cast<NodeId>(rng.UniformU64(kNodes));
        }
        const Status s = service.QueryBatch(batch, &results);
        if (s.code() == Status::Code::kUnavailable) continue;  // backpressure
        ASSERT_TRUE(s.ok()) << s.ToString();
        for (size_t i = 0; i < results.size(); ++i) {
          Observed ob;
          ob.answer = results[i].answer;
          if (batch[i].kind == ServeQuery::Kind::kMembership) {
            ob.has_member = true;
            ob.node = batch[i].node;
            ob.member = results[i].member;
          } else if (batch[i].kind == ServeQuery::Kind::kSnapshot) {
            ob.has_snapshot = true;
            ob.prefix_updates = results[i].prefix_updates;
            ob.members = std::move(results[i].nodes);
          }
          mine.push_back(std::move(ob));
        }
      }
    });

    // The writer: the production publish seam, small cadence so the
    // readers race many publications.
    while (ready.load(std::memory_order_acquire) < kRawReaders + 1) {
      std::this_thread::yield();
    }
    ReplayOptions ropt;
    ropt.query_every = 0;
    ropt.publish = &plane;
    ropt.publish_every = 32;
    auto report = ReplayUpdates(stream, **engine, ropt);

    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    client.join();
    service.Stop();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // Post-join the log is plain memory; audit every observation.
    const std::vector<PlaneSnapshot>& log = plane.writer_log();
    EXPECT_GT(log.size(), 0u);
    uint64_t audited = 0;
    for (const std::vector<Observed>& per_thread : observed) {
      for (const Observed& ob : per_thread) {
        ASSERT_TRUE(MatchesLog(ob, log));
        ++audited;
      }
    }
    EXPECT_GT(audited, 0u);
    // Epochs in the log are the writer's publication order, 1..k.
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].answer.epoch, i + 1);
    }
  }
}

}  // namespace
}  // namespace densest
