#include "core/algorithm2.h"

#include <utility>
#include <vector>

#include "core/pass_engine.h"
#include "stream/memory_stream.h"

namespace densest {

StatusOr<UndirectedDensestResult> RunAlgorithm2(
    EdgeStream& stream, const Algorithm2Options& options) {
  PassEngine& engine =
      options.engine != nullptr ? *options.engine : DefaultPassEngine();
  StatusOr<std::vector<UndirectedDensestResult>> runs =
      engine.RunUndirectedRuns(stream, std::vector{options});
  if (!runs.ok()) return runs.status();
  return std::move(runs->front());
}

StatusOr<UndirectedDensestResult> RunAlgorithm2(
    const UndirectedGraph& g, const Algorithm2Options& options) {
  UndirectedGraphStream stream(g);
  return RunAlgorithm2(stream, options);
}

}  // namespace densest
