#include "dynamic/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/retry.h"
#include "dynamic/replay.h"
#include "dynamic/snapshot.h"
#include "gen/erdos_renyi.h"
#include "serve/answer_plane.h"
#include "stream/memory_stream.h"
#include "stream/update_stream.h"

namespace densest {

namespace {

/// Clears the registry on every exit path: a failed schedule must not leave
/// armed failpoints behind for the caller's next IO operation to trip over.
struct FailpointGuard {
  ~FailpointGuard() { Failpoints::Instance().ClearAll(); }
};

/// The same deterministic insert+delete workload shape the crash-recovery
/// tests use: a sliding window over a random edge sequence, materialized so
/// the reference and chaos runs see identical updates.
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

Status ScheduleError(uint32_t index, uint64_t seed, const std::string& what) {
  return Status::Internal(
      "chaos schedule #" + std::to_string(index) + ": " + what +
      " (replay deterministically with --schedules=1 --seed=" +
      std::to_string(seed) + ")");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-exact equality of everything two engines can disagree on — the same
/// criteria the snapshot round-trip tests enforce. Stats match too: a
/// restored snapshot carries the writer's counters and the re-applied
/// suffix regenerates the rest deterministically.
Status CompareEngines(const DynamicDensest& ref, const DynamicDensest& got) {
  const DynamicDensest::Answer qa = ref.Query();
  const DynamicDensest::Answer qb = got.Query();
  if (!SameBits(qa.density, qb.density)) {
    return Status::Internal("final density diverged: " +
                            std::to_string(qa.density) + " vs " +
                            std::to_string(qb.density));
  }
  if (!SameBits(qa.upper_bound, qb.upper_bound)) {
    return Status::Internal("final upper bound diverged: " +
                            std::to_string(qa.upper_bound) + " vs " +
                            std::to_string(qb.upper_bound));
  }
  if (qa.size != qb.size || qa.certified != qb.certified ||
      qa.stale != qb.stale) {
    return Status::Internal("final answer shape diverged");
  }
  if (ref.DensestNodes() != got.DensestNodes()) {
    return Status::Internal("densest node sets diverged");
  }
  if (ref.num_edges() != got.num_edges()) {
    return Status::Internal("live edge counts diverged: " +
                            std::to_string(ref.num_edges()) + " vs " +
                            std::to_string(got.num_edges()));
  }
  if (ref.window_lo() != got.window_lo() ||
      ref.window_hi() != got.window_hi() ||
      ref.trim_streak() != got.trim_streak()) {
    return Status::Internal("threshold window placement diverged");
  }
  const DynamicDensestStats& sa = ref.stats();
  const DynamicDensestStats& sb = got.stats();
  if (sa.inserts != sb.inserts || sa.deletes != sb.deletes ||
      sa.ignored != sb.ignored || sa.level_moves != sb.level_moves ||
      sa.recomputes != sb.recomputes || sa.window_moves != sb.window_moves ||
      sa.structures_rebuilt != sb.structures_rebuilt ||
      sa.trims_deferred != sb.trims_deferred ||
      sa.recomputes_avoided != sb.recomputes_avoided ||
      !SameBits(sa.last_recompute_density, sb.last_recompute_density)) {
    return Status::Internal("maintenance stats diverged");
  }
  return Status::OK();
}

Status Arm(const std::string& name, const std::string& spec) {
  return Failpoints::Instance().Set(name, spec);
}

/// An observed reader snapshot must be one writer publication verbatim:
/// the epoch it carries names exactly one entry of the writer log, and
/// every field — scalars bit-for-bit, membership list element-for-element
/// — must match it. Any difference is a torn read the seqlock failed to
/// catch.
Status VerifyObservedSnapshot(const PlaneSnapshot& got,
                              const std::vector<PlaneSnapshot>& log) {
  const uint64_t e = got.answer.epoch;
  if (e == 0 || e > log.size()) {
    return Status::Internal("reader observed epoch " + std::to_string(e) +
                            " but the writer published " +
                            std::to_string(log.size()));
  }
  const PlaneSnapshot& want = log[e - 1];
  if (!SameBits(want.answer.density, got.answer.density) ||
      !SameBits(want.answer.upper_bound, got.answer.upper_bound) ||
      want.answer.size != got.answer.size ||
      want.answer.certified != got.answer.certified ||
      want.answer.stale != got.answer.stale ||
      want.prefix_updates != got.prefix_updates ||
      want.members != got.members) {
    return Status::Internal("torn read: snapshot at epoch " +
                            std::to_string(e) +
                            " differs from the writer's publication");
  }
  return Status::OK();
}

/// The end-to-end serving guarantee: re-derive the live edge set after the
/// first `prefix_updates` workload updates (mirroring DynamicAdjacency's
/// ignore rules: no self-loops, duplicate inserts and absent deletes are
/// no-ops) and check the observed answer against it — the witnessing
/// set's exact induced density equals the served density bit-for-bit and
/// sits under the certified upper bound.
Status VerifyObservedPrefix(const PlaneSnapshot& snap,
                            const std::vector<EdgeUpdate>& workload) {
  if (snap.prefix_updates > workload.size()) {
    return Status::Internal(
        "observed snapshot names prefix " +
        std::to_string(snap.prefix_updates) + " beyond the " +
        std::to_string(workload.size()) + "-update workload");
  }
  std::set<std::pair<NodeId, NodeId>> live;
  for (uint64_t i = 0; i < snap.prefix_updates; ++i) {
    const EdgeUpdate& u = workload[i];
    if (u.u == u.v) continue;
    const std::pair<NodeId, NodeId> key{std::min(u.u, u.v),
                                        std::max(u.u, u.v)};
    if (u.is_insert()) {
      live.insert(key);
    } else {
      live.erase(key);
    }
  }
  const std::vector<NodeId>& s = snap.members;
  EdgeId induced = 0;
  for (const auto& [a, b] : live) {
    if (std::binary_search(s.begin(), s.end(), a) &&
        std::binary_search(s.begin(), s.end(), b)) {
      ++induced;
    }
  }
  const double density =
      s.empty() ? 0.0
                : static_cast<double>(induced) / static_cast<double>(s.size());
  if (!SameBits(density, snap.answer.density)) {
    return Status::Internal(
        "served density at epoch " + std::to_string(snap.answer.epoch) +
        " (" + std::to_string(snap.answer.density) +
        ") is not the witnessing set's induced density at prefix " +
        std::to_string(snap.prefix_updates) + " (" + std::to_string(density) +
        ")");
  }
  if (snap.answer.certified && density > snap.answer.upper_bound &&
      induced > 0) {
    return Status::Internal("served density exceeds its certified bound at epoch " +
                            std::to_string(snap.answer.epoch));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ChaosReport> RunChaos(const ChaosOptions& options) {
  if (options.schedules == 0) {
    return Status::InvalidArgument("chaos: schedules must be >= 1");
  }
  if (options.nodes < 2 || options.edges == 0 || options.window == 0) {
    return Status::InvalidArgument(
        "chaos: need nodes >= 2, edges >= 1, window >= 1");
  }
  if (options.edges > NodePairs(options.nodes)) {
    return Status::InvalidArgument(
        "chaos: edges=" + std::to_string(options.edges) + " exceeds the " +
        std::to_string(NodePairs(options.nodes)) + " node pairs of nodes=" +
        std::to_string(options.nodes));
  }
  if (options.checkpoint_every == 0 || options.snapshot_every == 0 ||
      options.batch_size == 0) {
    return Status::InvalidArgument(
        "chaos: checkpoint_every, snapshot_every and batch_size must be >= 1");
  }
  const std::string scratch =
      options.scratch_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options.scratch_dir;

  ChaosReport report;
  report.failpoints_compiled_in = Failpoints::compiled_in();

  FailpointGuard guard;
  for (uint32_t index = 0; index < options.schedules; ++index) {
    // seed + index, so schedule i reruns alone as schedule #0 of a
    // 1-schedule invocation seeded with this value.
    const uint64_t seed = options.seed + index;
    Rng rng(Mix64(seed));

    ChaosScheduleOutcome outcome;
    outcome.index = index;
    outcome.seed = seed;

    const std::vector<EdgeUpdate> workload =
        MakeWorkload(options.nodes, options.edges, options.window,
                     rng.NextU64());
    outcome.updates = workload.size();

    const std::string prefix =
        (std::filesystem::path(scratch) /
         ("densest_chaos_" + std::to_string(seed)))
            .string();
    const std::string update_path = prefix + ".updates";
    const std::string snapshot_path = prefix + ".snap";
    std::remove(snapshot_path.c_str());

    Failpoints::Instance().ClearAll();
    if (Status s = WriteBinaryUpdateFile(update_path, options.nodes, workload);
        !s.ok()) {
      return s;
    }

    DynamicDensestOptions opt;
    opt.epsilon = options.epsilon;

    ReplayOptions base;
    base.query_every = 0;
    base.batch_size = options.batch_size;
    base.checkpoint_every = options.checkpoint_every;
    base.checkpoint_mode = CheckpointMode::kExactFlow;
    base.check_invariants = true;

    // Reference: one uninterrupted fault-free run over the whole workload.
    std::unique_ptr<DynamicDensest> reference;
    {
      StatusOr<std::unique_ptr<DynamicDensest>> created =
          DynamicDensest::Create(options.nodes, opt);
      if (!created.ok()) return created.status();
      reference = std::move(*created);
      MemoryUpdateStream mem(workload, options.nodes);
      StatusOr<ReplayReport> r = ReplayUpdates(mem, *reference, base);
      if (!r.ok()) {
        return ScheduleError(index, seed,
                             "reference run failed: " + r.status().ToString());
      }
      if (!r->band_ok) {
        return ScheduleError(index, seed,
                             "reference run left the certified band");
      }
      outcome.band_checks += r->checkpoints.size();
      report.total_invariant_audits += r->checkpoints.size();
    }

    // Chaos run: the identical updates from disk, random faults armed per
    // segment, every kill recovered the way a restarted process would.
    std::unique_ptr<DynamicDensest> engine;
    {
      StatusOr<std::unique_ptr<DynamicDensest>> created =
          DynamicDensest::Create(options.nodes, opt);
      if (!created.ok()) return created.status();
      engine = std::move(*created);
    }

    // The serving plane lives across every chaos segment (one process
    // restart does not reset the serving tier), so epochs stay monotone
    // through kills and resumes. Readers snapshot it the whole time and
    // record each new epoch they see; the oracle below replays their
    // observations against the writer log and the workload.
    std::unique_ptr<AnswerPlane> plane;
    std::vector<std::thread> readers;
    std::vector<std::vector<PlaneSnapshot>> observed(options.reader_threads);
    std::atomic<bool> readers_stop{false};
    if (options.reader_threads > 0) {
      plane = std::make_unique<AnswerPlane>(options.nodes);
      plane->EnableWriterLog();
      for (uint32_t t = 0; t < options.reader_threads; ++t) {
        readers.emplace_back([&, t] {
          std::vector<PlaneSnapshot>& mine = observed[t];
          while (!readers_stop.load(std::memory_order_acquire)) {
            PlaneSnapshot snap = plane->ReadSnapshot();
            if (snap.answer.epoch != 0 &&
                (mine.empty() ||
                 mine.back().answer.epoch != snap.answer.epoch)) {
              mine.push_back(std::move(snap));
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        });
      }
    }
    // Joins on every exit path: the threads capture locals by reference.
    struct ReaderJoin {
      std::atomic<bool>& stop;
      std::vector<std::thread>& threads;
      ~ReaderJoin() {
        stop.store(true, std::memory_order_release);
        for (std::thread& t : threads) {
          if (t.joinable()) t.join();
        }
      }
    } reader_join{readers_stop, readers};

    uint64_t cursor = 0;
    uint32_t faults_left =
        Failpoints::compiled_in() ? options.max_faults : 0;
    bool finished = false;
    while (!finished) {
      // A fresh stream per segment: a dead-disk fault poisons the previous
      // one with a sticky status, exactly like a real restart would see.
      StatusOr<std::unique_ptr<BinaryFileUpdateStream>> stream =
          BinaryFileUpdateStream::Open(update_path);
      if (!stream.ok()) return stream.status();
      RetryPolicy retry;
      retry.max_attempts = 4;
      retry.base_delay_ms = 0.01;  // real sleeps; keep the soak fast
      retry.max_delay_ms = 0.05;
      retry.jitter_seed = rng.NextU64() | 1;  // decorrelated jitter path
      (*stream)->set_retry_policy(retry);

      const uint64_t remaining = workload.size() - cursor;
      // Evaluation-count estimates for after=N draws: the read failpoint
      // fires once per NextBatch, the crash failpoint once per apply run
      // (>= batches, since runs split at checkpoint/snapshot boundaries).
      const uint64_t est_batches = remaining / options.batch_size + 1;
      const uint64_t est_snaps = remaining / options.snapshot_every + 1;
      // Only an armed kill may abort this segment; any other failure is a
      // genuine bug, never something to silently "recover" from.
      bool kill_armed = false;
      if (faults_left > 0 && rng.Bernoulli(0.85)) {
        Status armed = Status::OK();
        switch (rng.UniformInt(0, 3)) {
          case 0:  // process death between apply runs
            armed = Arm("replay.crash",
                        "after=" + std::to_string(rng.UniformU64(est_batches)) +
                            ",times=1");
            kill_armed = true;
            break;
          case 1:  // dead disk under the update stream: sticky IOError
            armed = Arm("update_stream.read",
                        "after=" + std::to_string(rng.UniformU64(est_batches)) +
                            ",times=1,kind=io");
            kill_armed = true;
            break;
          case 2:  // torn update file: short read -> sticky IOError
            armed = Arm("update_stream.read",
                        "after=" + std::to_string(rng.UniformU64(est_batches)) +
                            ",times=1,kind=short");
            kill_armed = true;
            break;
          default:  // transient stream fault; retry-with-backoff heals it
                    // in-line (times < max_attempts), no kill
            armed = Arm("update_stream.read",
                        "after=" + std::to_string(rng.UniformU64(est_batches)) +
                            ",times=" + std::to_string(rng.UniformInt(1, 3)) +
                            ",kind=unavailable");
            break;
        }
        if (!armed.ok()) return armed;
        ++outcome.faults_injected;
        --faults_left;
      }
      if (faults_left > 0 && rng.Bernoulli(0.4)) {
        // A lost checkpoint write: replay must degrade gracefully and only
        // a later restart gets more expensive.
        if (Status s =
                Arm("snapshot.write",
                    "after=" + std::to_string(rng.UniformU64(est_snaps)) +
                        ",times=1");
            !s.ok()) {
          return s;
        }
        ++outcome.faults_injected;
        --faults_left;
      }

      ReplayOptions ropt = base;
      ropt.snapshot_every = options.snapshot_every;
      ropt.snapshot_path = snapshot_path;
      ropt.skip_updates = cursor;
      ropt.publish = plane.get();
      StatusOr<ReplayReport> r = ReplayUpdates(**stream, *engine, ropt);
      Failpoints::Instance().ClearAll();
      if (r.ok()) {
        if (!r->band_ok) {
          return ScheduleError(index, seed,
                               "chaos run left the certified band");
        }
        if (cursor + r->updates != workload.size()) {
          return ScheduleError(index, seed, "chaos run ended short");
        }
        outcome.band_checks += r->checkpoints.size();
        report.total_invariant_audits += r->checkpoints.size();
        finished = true;
      } else if (kill_armed &&
                 (r.status().code() == Status::Code::kIOError ||
                  r.status().code() == Status::Code::kUnavailable)) {
        ++outcome.kills;
        // Sometimes the snapshot itself is unreadable at the worst moment.
        if (faults_left > 0 && rng.Bernoulli(0.3)) {
          if (Status s = Arm("snapshot.read", "times=1"); !s.ok()) return s;
          ++outcome.faults_injected;
          ++outcome.snapshot_read_faults;
          --faults_left;
        }
        StatusOr<RestoredEngine> restored = ReadSnapshot(snapshot_path, opt);
        Failpoints::Instance().ClearAll();
        if (restored.ok()) {
          engine = std::move(restored->engine);
          cursor = restored->cursor;
        } else {
          // No usable snapshot: degrade to a full replay from scratch.
          StatusOr<std::unique_ptr<DynamicDensest>> fresh =
              DynamicDensest::Create(options.nodes, opt);
          if (!fresh.ok()) return fresh.status();
          engine = std::move(*fresh);
          cursor = 0;
          ++outcome.full_rebuilds;
        }
      } else {
        return ScheduleError(index, seed,
                             "chaos run failed: " + r.status().ToString());
      }
    }

    // Serving oracle: stop the readers, then hold every snapshot they
    // observed against (a) the writer's publication log — bit-for-bit, so
    // any torn read fails loudly — and (b) an independent re-derivation
    // from the workload prefix the snapshot names. Each distinct epoch is
    // re-derived once; the log match runs on every observation.
    if (plane != nullptr) {
      readers_stop.store(true, std::memory_order_release);
      for (std::thread& t : readers) {
        if (t.joinable()) t.join();
      }
      const std::vector<PlaneSnapshot>& log = plane->writer_log();
      std::set<uint64_t> derived_epochs;
      for (const std::vector<PlaneSnapshot>& mine : observed) {
        for (const PlaneSnapshot& snap : mine) {
          if (Status s = VerifyObservedSnapshot(snap, log); !s.ok()) {
            return ScheduleError(index, seed, s.message());
          }
          ++outcome.reader_snapshots;
          if (derived_epochs.insert(snap.answer.epoch).second) {
            if (Status s = VerifyObservedPrefix(snap, workload); !s.ok()) {
              return ScheduleError(index, seed, s.message());
            }
          }
        }
      }
    }

    // The oracle: the survivor must be indistinguishable from the engine
    // that never saw a fault, and structurally sound on top of it.
    if (Status s = engine->CheckInvariants(); !s.ok()) {
      return ScheduleError(index, seed,
                           "post-run invariant violation: " + s.message());
    }
    ++report.total_invariant_audits;
    if (Status s = CompareEngines(*reference, *engine); !s.ok()) {
      return ScheduleError(index, seed, s.message());
    }

    std::remove(update_path.c_str());
    std::remove(snapshot_path.c_str());

    if (options.log != nullptr) {
      *options.log << "schedule #" << index << " seed=" << seed << ": "
                   << outcome.updates << " updates, "
                   << outcome.faults_injected << " faults, " << outcome.kills
                   << " kills (" << outcome.full_rebuilds
                   << " full rebuilds), " << outcome.band_checks
                   << " band checks, " << outcome.reader_snapshots
                   << " reader snapshots — identical to reference\n";
    }
    ++report.schedules;
    report.total_faults += outcome.faults_injected;
    report.total_kills += outcome.kills;
    report.total_full_rebuilds += outcome.full_rebuilds;
    report.total_band_checks += outcome.band_checks;
    report.total_reader_snapshots += outcome.reader_snapshots;
    report.outcomes.push_back(outcome);
    if (options.stats_every != 0 && options.stats_hook &&
        report.schedules % options.stats_every == 0) {
      options.stats_hook(report.schedules);
    }
  }
  return report;
}

}  // namespace densest
