#include "core/multi_run.h"

namespace densest {

StatusOr<std::vector<UndirectedDensestResult>> RunAlgorithm1EpsilonSweep(
    EdgeStream& stream, const Algorithm1Options& base,
    const std::vector<double>& epsilons, PassEngine* engine) {
  std::vector<Algorithm1Options> runs;
  runs.reserve(epsilons.size());
  for (double eps : epsilons) {
    Algorithm1Options options = base;
    options.epsilon = eps;
    runs.push_back(options);
  }
  PassEngine& driver = engine != nullptr ? *engine : DefaultPassEngine();
  return driver.RunUndirectedRuns(stream, runs);
}

}  // namespace densest
