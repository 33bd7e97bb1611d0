// The environment fingerprint stamped on every result.

#include <fstream>
#include <thread>

#include "common/failpoint.h"
#include "obs/trace.h"
#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::map<std::string, std::string> EnvironmentFingerprint() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"densest_failpoints",
       densest::Failpoints::compiled_in() ? "ON" : "OFF"},
      {"densest_tracing",
       densest::obs::TraceRecorder::compiled_in() ? "ON" : "OFF"},
  };
}

}  // namespace perfbench
