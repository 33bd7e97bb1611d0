// Copyright 2026 The densest Authors.
// The Figure 6.1-style epsilon sweep, plus the former names of the pass
// scheduler.
//
// Fused multi-run passes — K peeling runs fed from one physical scan per
// pass, the paper's "can be tried in parallel" remark — are what
// PassEngine (core/pass_engine.h) does for every run: a solo run is the
// one-run case. The two aliases below keep the scheduler's former names
// compiling for existing callers; new code names PassEngine.

#ifndef DENSEST_CORE_MULTI_RUN_H_
#define DENSEST_CORE_MULTI_RUN_H_

#include <vector>

#include "common/status.h"
#include "core/algorithm1.h"
#include "core/density.h"
#include "core/pass_engine.h"
#include "stream/edge_stream.h"

namespace densest {

using MultiRunEngine = PassEngine;
using MultiRunOptions = PassEngineOptions;

/// Runs Algorithm 1 once per epsilon, all fused over shared scans of
/// `stream`. `base` supplies every other option. Results are positionally
/// matched to `epsilons`. Runs on DefaultPassEngine() when `engine` is
/// null (not thread-safe — supply a private engine for concurrent sweeps).
StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, PassEngine* engine = nullptr);

}  // namespace densest

#endif  // DENSEST_CORE_MULTI_RUN_H_
