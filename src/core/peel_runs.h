// Copyright 2026 The densest Authors.
// Per-run state machines of the streaming peeling algorithms.
//
// Each class below holds the between-pass state of ONE run of Algorithm 1,
// 2 or 3 — alive sets, best-so-far subgraph, trace — and consumes the
// aggregated statistics of one completed pass at a time through ApplyPass.
// The state machine never touches a stream: PassEngine (core/pass_engine.h)
// scans the edges and accumulates the degrees, feeding one run or many
// from each physical scan, or the MapReduce drivers (mapreduce/mr_densest.h)
// compute them with the §5.2 density and degree jobs. Every driver —
// RunAlgorithm1/2/3, the sweeps and the MapReduce drivers alike — shares
// exactly this peeling logic, so no driver can diverge from another by
// reimplementation drift.

#ifndef DENSEST_CORE_PEEL_RUNS_H_
#define DENSEST_CORE_PEEL_RUNS_H_

#include <vector>

#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/algorithm3.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "graph/subgraph.h"
#include "graph/types.h"

namespace densest {

/// \brief One run of Algorithm 1 (undirected peeling, optional §6.3
/// compaction), driven pass by pass.
///
/// Protocol per pass: the driver checks done(); if false it executes one
/// pass over the source named by mode() — the external stream (optionally
/// collecting survivors into buffer() when mode() == kCollectPass) or the
/// in-memory buffer() — and hands the resulting statistics to ApplyPass.
class Algorithm1Run {
 public:
  /// Where the next pass must read its edges from.
  enum class PassMode {
    kStream,       ///< scan the external stream
    kCollectPass,  ///< scan the stream AND collect survivors into buffer()
    kBuffer,       ///< scan buffer() (compaction has kicked in)
  };

  Algorithm1Run(NodeId n, const Algorithm1Options& options);

  bool done() const { return done_; }
  PassMode mode() const { return mode_; }
  const NodeSet& alive() const { return alive_; }
  std::vector<Edge>& buffer() { return buffer_; }

  /// Consumes one pass worth of statistics: updates the best subgraph,
  /// peels below-threshold nodes, arms compaction, records the trace, and
  /// decides whether the run is finished.
  void ApplyPass(const UndirectedPassResult& stats,
                 const std::vector<double>& degrees);

  /// Finalizes the result (call once, after done()).
  UndirectedDensestResult TakeResult();

 private:
  Algorithm1Options options_;
  NodeId n_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  uint64_t io_passes_ = 0;
  PassMode mode_ = PassMode::kStream;
  bool done_ = false;
  std::vector<Edge> buffer_;
  UndirectedDensestResult result_;
};

/// \brief One run of Algorithm 2 (at-least-k peeling with a removal quota).
class Algorithm2Run {
 public:
  Algorithm2Run(NodeId n, const Algorithm2Options& options);

  bool done() const { return done_; }
  const NodeSet& alive() const { return alive_; }

  void ApplyPass(const UndirectedPassResult& stats,
                 const std::vector<double>& degrees);

  UndirectedDensestResult TakeResult();

 private:
  Algorithm2Options options_;
  NodeId n_;
  NodeSet alive_;
  NodeSet best_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  std::vector<NodeId> candidates_;
  UndirectedDensestResult result_;
};

/// \brief One run of Algorithm 3 (directed (S, T) peeling for one ratio c).
class Algorithm3Run {
 public:
  Algorithm3Run(NodeId n, const Algorithm3Options& options);

  bool done() const { return done_; }
  const NodeSet& s() const { return s_; }
  const NodeSet& t() const { return t_; }
  /// The degree arrays the next ApplyPass reads. kSizeRatio picks its side
  /// from |S|/|T| >= c before the pass (out_to_t to peel S, in_from_s to
  /// peel T); kMaxDegree compares both. Call while !done().
  DirectedSides sides() const;

  /// Consumes one directed pass: weight |E(S,T)| plus the degree arrays
  /// sides() named, accumulated over the CURRENT s()/t(); an array
  /// sides() left out is not read.
  void ApplyPass(const DirectedPassResult& stats,
                 const std::vector<double>& out_to_t,
                 const std::vector<double>& in_from_s);

  DirectedDensestResult TakeResult();

 private:
  Algorithm3Options options_;
  NodeId n_;
  NodeSet s_;
  NodeSet t_;
  NodeSet best_s_;
  NodeSet best_t_;
  double best_density_ = -1.0;
  uint64_t pass_ = 0;
  bool done_ = false;
  DirectedDensestResult result_;
};

}  // namespace densest

#endif  // DENSEST_CORE_PEEL_RUNS_H_
