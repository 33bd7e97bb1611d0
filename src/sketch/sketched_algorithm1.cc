#include "sketch/sketched_algorithm1.h"

#include <utility>

#include "core/pass_engine.h"
#include "sketch/sketch_runs.h"

namespace densest {

StatusOr<SketchedResult> RunAlgorithm1WithOracle(
    EdgeStream& stream, DegreeOracle& oracle,
    const Algorithm1Options& options) {
  if (Status s = CheckEpsilon(options.epsilon); !s.ok()) return s;
  const NodeId n = stream.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  PassEngine& engine =
      options.engine != nullptr ? *options.engine : DefaultPassEngine();
  FusedSketchedRun run(n, oracle, options);
  PassEngine::FusedRun* runs[] = {&run};
  if (Status s = engine.Drive(stream, runs, options.cancel); !s.ok()) {
    return s;
  }
  return run.TakeResult();
}

StatusOr<SketchedResult> RunSketchedAlgorithm1(
    EdgeStream& stream, const CountSketchOptions& sketch_options,
    uint64_t sketch_seed, const Algorithm1Options& options) {
  StatusOr<CountSketch> sketch =
      CountSketch::Create(sketch_options, sketch_seed);
  if (!sketch.ok()) return sketch.status();
  SketchDegreeOracle oracle(std::move(*sketch));
  return RunAlgorithm1WithOracle(stream, oracle, options);
}

}  // namespace densest
