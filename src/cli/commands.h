// Copyright 2026 The densest Authors.
// The densest_cli command layer. Each command takes parsed Args and writes
// human-readable output to a stream, so the whole surface is testable
// without spawning processes.

#ifndef DENSEST_CLI_COMMANDS_H_
#define DENSEST_CLI_COMMANDS_H_

#include <ostream>
#include <string>

#include "cli/args.h"
#include "common/status.h"

namespace densest {

/// Dispatches `command` with `args`; returns the command's status.
/// Known commands: stats, undirected, directed, mapreduce, dynamic, serve,
/// chaos, exact, enumerate, generate.
Status RunCliCommand(const std::string& command, const Args& args,
                     std::ostream& out);

/// `stats <graph>`: prints |V|, |E|, degree stats.
/// Flags: --directed.
Status CmdStats(const Args& args, std::ostream& out);

/// `undirected <graph>`: Algorithm 1 (or Algorithm 2 with --min-size, or
/// the sketched variant with --sketch-buckets).
/// Flags: --eps (0.5), --min-size, --sketch-buckets, --sketch-tables (5),
///        --compact-below, --trace, --output (write the subgraph's nodes).
Status CmdUndirected(const Args& args, std::ostream& out);

/// `directed <graph>`: Algorithm 3. With --c runs a single ratio; without
/// it searches c in powers of --delta (2).
/// Flags: --eps (0.5), --c, --delta, --trace.
Status CmdDirected(const Args& args, std::ostream& out);

/// `mapreduce <graph>`: the simulated-cluster MapReduce drivers. A .bin
/// graph streams from disk, and each job's resident shuffle is bounded by
/// the spill budget (the removal job's surviving edges still live in
/// memory between passes — see mapreduce/mr_densest.h).
/// Flags: --eps (1.0), --directed, --c (1.0, directed only),
///        --spill-budget (bytes, 0 = in-memory shuffle), --mappers (2000),
///        --reducers (2000), --trace.
Status CmdMapReduce(const Args& args, std::ostream& out);

/// `dynamic <graph>`: the incremental maintenance service. Replays the
/// graph's edges as a timestamped insertion stream (optionally with a
/// sliding-window deleter) into a DynamicDensest engine, queries on a
/// schedule, and reports update throughput, query latency percentiles and
/// the certified approximation band.
/// Flags: --eps (0.75), --window (0 = insert-only), --rate (0 = unthrottled),
///        --query-every (1024), --checkpoint-every (0),
///        --checkpoints (exact|batch), --radius (2),
///        --fallback (recompute|rebuild|never).
Status CmdDynamic(const Args& args, std::ostream& out);

/// `serve <graph>`: the multi-tenant serving tier. One writer thread
/// replays the graph's update stream into a DynamicDensest engine and
/// publishes every settled answer into an epoch-based snapshot-isolated
/// AnswerPlane; one closed-loop client thread answers its batched
/// density/membership/snapshot queries off the plane through a
/// QueryService (serve/query_service.h). Reports writer throughput,
/// publication count, client outcomes (ok/shed/expired) and serving
/// latency percentiles.
/// Flags: --eps (0.75), --window (0), --rate (0), --publish-every (1024),
///        --qps (2000, 0 = unthrottled), --query-mix (80,15,5),
///        --batch (8), --deadline-ms (0), --seed (1), --evict-batch (1).
Status CmdServe(const Args& args, std::ostream& out);

/// `chaos`: randomized chaos/soak harness over the failpoint registry
/// (dynamic/chaos.h). Self-contained — generates its own workloads; fails
/// with the replaying seed when any schedule diverges from the fault-free
/// reference.
/// Flags: --smoke (fixed-seed CI gate), --schedules (20), --seed (1),
///        --nodes (70), --edges (1200), --window (150), --eps (0.6),
///        --checkpoint-every (300), --snapshot-every (100),
///        --max-faults (6), --batch-size (64), --scratch (tmp), --verbose.
Status CmdChaos(const Args& args, std::ostream& out);

/// `exact <graph>`: Goldberg exact solver (undirected only).
Status CmdExact(const Args& args, std::ostream& out);

/// `enumerate <graph>`: node-disjoint dense subgraphs.
/// Flags: --eps (0.5), --count (10), --min-density (1).
Status CmdEnumerate(const Args& args, std::ostream& out);

/// `generate <dataset> <path>`: writes a synthetic stand-in dataset
/// (flickr-sim | im-sim | livejournal-sim | twitter-sim | er | chung-lu).
/// Flags: --seed (1), --format (txt|bin), --nodes, --edges (for er /
/// chung-lu), --exponent (2.3, chung-lu only).
Status CmdGenerate(const Args& args, std::ostream& out);

/// Usage text for the tool.
std::string CliUsage();

}  // namespace densest

#endif  // DENSEST_CLI_COMMANDS_H_
