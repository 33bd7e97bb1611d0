#include "sketch/sketch_runs.h"

#include <algorithm>
#include <utility>

namespace densest {

SketchedAlgorithm1Run::SketchedAlgorithm1Run(
    NodeId n, std::unique_ptr<DegreeOracle> oracle,
    const Algorithm1Options& options)
    : options_(options),
      n_(n),
      owned_oracle_(std::move(oracle)),
      oracle_(owned_oracle_.get()),
      alive_(n, /*full=*/true),
      best_(alive_) {
  done_ = alive_.empty();
}

SketchedAlgorithm1Run::SketchedAlgorithm1Run(NodeId n, DegreeOracle& oracle,
                                             const Algorithm1Options& options)
    : options_(options),
      n_(n),
      oracle_(&oracle),
      alive_(n, /*full=*/true),
      best_(alive_) {
  done_ = alive_.empty();
}

void SketchedAlgorithm1Run::ApplyPass(const UndirectedPassResult& stats) {
  ++pass_;
  const double rho = stats.weight / static_cast<double>(alive_.size());
  if (rho > best_density_) {
    best_density_ = rho;
    best_ = alive_;
  }

  const double factor = 2.0 * (1.0 + options_.epsilon);
  const double threshold = factor * rho;
  std::vector<std::pair<double, NodeId>> estimates;
  estimates.reserve(alive_.size());
  NodeId removed = 0;
  for (NodeId u = 0; u < n_; ++u) {
    if (!alive_.Contains(u)) continue;
    double est = oracle_->EstimateDegree(u);
    if (est <= threshold) {
      alive_.Remove(u);
      ++removed;
    } else {
      estimates.emplace_back(est, u);
    }
  }
  // A noisy sketch can over-estimate every candidate and remove nobody,
  // which would degrade to one pass per node. Force geometric progress
  // the way Algorithm 2 does: drop the lowest-estimate nodes, at least a
  // 1/16 fraction (or eps/(1+eps) if that is larger), so the pass count
  // stays O(log |S|) even under heavy sketch noise.
  if (removed == 0 && !estimates.empty()) {
    double fraction =
        std::max(options_.epsilon / (1.0 + options_.epsilon), 1.0 / 16.0);
    size_t quota = static_cast<size_t>(
        fraction * static_cast<double>(estimates.size()));
    quota = std::min(std::max<size_t>(quota, 1), estimates.size());
    std::nth_element(estimates.begin(), estimates.begin() + (quota - 1),
                     estimates.end());
    for (size_t i = 0; i < quota; ++i) {
      alive_.Remove(estimates[i].second);
      ++removed;
    }
  }

  if (options_.record_trace) {
    PassSnapshot snap;
    snap.pass = pass_;
    snap.nodes = static_cast<NodeId>(alive_.size() + removed);
    snap.edges = stats.edges;
    snap.weight = stats.weight;
    snap.density = rho;
    snap.threshold = threshold;
    snap.removed = removed;
    result_.result.trace.push_back(snap);
  }

  done_ = alive_.empty() ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
}

SketchedResult SketchedAlgorithm1Run::TakeResult() {
  result_.result.nodes = best_.ToVector();
  result_.result.density = best_density_ < 0 ? 0.0 : best_density_;
  result_.result.passes = pass_;
  result_.result.io_passes = pass_;  // oracle runs always scan the stream
  // certified_band stays 0: the oracle's degree estimates carry relative
  // error, which voids Lemma 1's deterministic proof — the sketched answer
  // is served uncertified (Answer::certified == false).
  result_.oracle_state_words = oracle_->StateWords();
  result_.memory_ratio = static_cast<double>(result_.oracle_state_words) /
                         static_cast<double>(n_);
  return std::move(result_);
}

void FusedSketchedRun::BeginPass(const CsrView*) {
  run_.oracle().BeginPass();
  weight_ = 0.0;
  edges_ = 0;
}

void FusedSketchedRun::AccumulateShard(std::span<const Edge> shard) {
  const NodeSet& alive = run_.alive();
  DegreeOracle& oracle = run_.oracle();
  for (const Edge& e : shard) {
    if (alive.ContainsBoth(e.u, e.v)) {
      oracle.AddIncidence(e.u, e.w);
      oracle.AddIncidence(e.v, e.w);
      weight_ += e.w;
      ++edges_;
    }
  }
}

void FusedSketchedRun::FinishPass() {
  UndirectedPassResult stats;
  stats.edges = edges_;
  stats.weight = weight_;
  run_.ApplyPass(stats);
}

StatusOr<std::vector<SketchedResult>> RunSketchedSweep(
    EdgeStream& stream, const std::vector<SketchedSweepRun>& runs,
    PassEngine* engine) {
  PassEngine& driver = engine != nullptr ? *engine : DefaultPassEngine();
  if (runs.empty()) {
    // Mirror the Run*Runs entry points: an empty sweep still zeroes the
    // engine's scan counters (Drive of zero runs scans nothing), so a
    // caller reusing the engine never reads the previous sweep's totals.
    if (Status s = driver.Drive(stream, {}); !s.ok()) return s;
    return std::vector<SketchedResult>{};
  }
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  for (const SketchedSweepRun& run : runs) {
    if (Status s = CheckEpsilon(run.options.epsilon); !s.ok()) return s;
  }

  std::vector<std::unique_ptr<FusedSketchedRun>> states;
  states.reserve(runs.size());
  for (const SketchedSweepRun& run : runs) {
    std::unique_ptr<DegreeOracle> oracle;
    if (run.exact) {
      oracle = std::make_unique<ExactDegreeOracle>(n);
    } else {
      StatusOr<CountSketch> sketch =
          CountSketch::Create(run.sketch, run.sketch_seed);
      if (!sketch.ok()) return sketch.status();
      oracle = std::make_unique<SketchDegreeOracle>(std::move(*sketch));
    }
    states.push_back(std::make_unique<FusedSketchedRun>(
        n, std::move(oracle), run.options));
  }

  std::vector<PassEngine::FusedRun*> fused;
  fused.reserve(states.size());
  for (auto& state : states) fused.push_back(state.get());
  // One token governs the shared scan (see PassEngine::RunDirectedRuns):
  // the first non-null per-run token.
  const CancelToken* cancel = nullptr;
  for (const SketchedSweepRun& run : runs) {
    if (run.options.cancel != nullptr) {
      cancel = run.options.cancel;
      break;
    }
  }
  if (Status s = driver.Drive(stream, fused, cancel); !s.ok()) return s;

  std::vector<SketchedResult> results;
  results.reserve(states.size());
  uint64_t logical = 0;
  for (auto& state : states) {
    results.push_back(state->TakeResult());
    logical += results.back().result.passes;
  }
  driver.RecordLogicalPasses(logical);
  return results;
}

}  // namespace densest
