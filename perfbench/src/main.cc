// perfbench: runs one benchmark workload and writes its results.
//
//   perfbench --workload {peel-mem|peel-disk|dynamic-serve} --seed N
//             --seconds S --trace {0|1} --out-dir DIR [--git-sha SHA]
//
// Prints a human-readable report (environment fingerprint, checks, the
// traced run's self-time table, every metric with its unit) and writes
// DIR/result-<workload>-seed<N>-trace<T>.json; a traced run also writes
// its span timeline to DIR/trace-<workload>-seed<N>.json. Exits 0 when
// every check passed, 1 when one failed, 2 on bad arguments.
// perfbench/run.py builds this binary and turns the results file into the
// benchmark's one-line summary.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Run;
using perfbench::RunConfig;

/// Layer counters that only some workloads exercise. A traced run of a
/// workload that never calls the layer reports them as 0.
struct LayerCounter {
  const char* name;
  const char* unit;
};
constexpr LayerCounter kLayerCounters[] = {
    {"multi_run.sweep_physical_scans", "count"},
    {"multi_run.sweep_logical_passes", "count"},
    {"multi_run.csearch_physical_scans", "count"},
    {"multi_run.edges_scanned", "count"},
    {"mr.input_scans", "count"},
    {"mr.passes", "count"},
    {"mr.map_input_records", "count"},
    {"mr.shuffle_bytes", "bytes"},
    {"mr.spill_bytes_written", "bytes"},
    {"mr.spill_runs", "count"},
    {"mr.io_retries", "count"},
    {"dynamic.recomputes", "count"},
    {"dynamic.window_moves", "count"},
    {"dynamic.structures_rebuilt", "count"},
    {"dynamic.ignored", "count"},
    {"serve.publications", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.failed", "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{peel-mem|peel-disk|dynamic-serve} --seed N --seconds S "
               "--trace {0|1} --out-dir DIR [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  if (argc % 2 != 1) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.out_dir.empty()) return Usage("--out-dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  using Workload = int (*)(Run&);
  const std::map<std::string, Workload> workloads = {
      {"peel-mem", perfbench::RunPeelMem},
      {"peel-disk", perfbench::RunPeelDisk},
      {"dynamic-serve", perfbench::RunDynamicServe},
  };
  auto it = workloads.find(config.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  std::map<std::string, std::string> header =
      perfbench::EnvironmentFingerprint();
  header["git_sha"] = git_sha;
  header["workload"] = config.workload;
  header["seed"] = std::to_string(config.seed);
  header["seconds"] = std::to_string(config.seconds);
  header["trace"] = config.trace ? "1" : "0";
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [k, v] : header) std::printf("  %-20s %s\n", k.c_str(), v.c_str());
  std::fflush(stdout);

  Run run(config);
  const int rc = it->second(run);
  if (rc != 0) {
    run.report.Expect("workload ran to completion", false);
  }
  if (config.trace) {
    for (const LayerCounter& c : kLayerCounters) {
      if (run.report.Find(c.name) == nullptr) {
        run.report.Value(c.name, 0, c.unit,
                         "layer not exercised by this workload");
      }
    }
    const std::string trace_path = config.out_dir + "/trace-" +
                                   config.workload + "-seed" +
                                   std::to_string(config.seed) + ".json";
    if (densest::Status s = perfbench::WriteChromeTrace(run.spans.spans(),
                                                        trace_path);
        s.ok()) {
      std::printf("trace timeline: %s\n", trace_path.c_str());
    } else {
      std::printf("warning: %s\n", s.ToString().c_str());
    }
  }
  run.report.Print(stdout);

  const std::string result_path =
      config.out_dir + "/result-" + config.workload + "-seed" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  std::ofstream out(result_path);
  out << run.report.ToJson(header);
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
    return 1;
  }
  std::printf("results: %s\n", result_path.c_str());
  return run.report.correct() ? 0 : 1;
}
