#include "common/failpoint.h"

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/failpoint_names.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace densest {

namespace {

/// One armed trigger. All counters are guarded by the registry mutex.
struct Point {
  uint64_t after = 0;       // skip this many evaluations before firing
  uint64_t times = 0;       // stop after this many fires (0 = forever)
  double prob = 1.0;        // fire probability once past `after`
  uint64_t prng = 1;        // SplitMix64 state for prob draws
  FailpointAction kind = FailpointAction::kIOError;
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

std::vector<std::string> SplitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

struct Failpoints::Impl {
  mutable Mutex mu;
  std::unordered_map<std::string, Point> points DENSEST_GUARDED_BY(mu);
};

Failpoints::Impl* Failpoints::impl() {
  // Leaked on purpose: seams may evaluate failpoints from background
  // threads during static destruction (stream destructors join their
  // prefetch pool), so the registry must outlive everything.
  static Impl* instance = new Impl();  // lint:allow(naked-new) — leaked singleton
  return instance;
}

Failpoints& Failpoints::Instance() {
  static Failpoints registry;
  return registry;
}

Status Failpoints::Set(const std::string& name, const std::string& spec) {
  if (!compiled_in()) {
    return Status::FailedPrecondition(
        "failpoints compiled out (build with -DDENSEST_FAILPOINTS=ON)");
  }
  if (name.empty()) return Status::InvalidArgument("empty failpoint name");
  // Only names from the single registry (common/failpoint_names.h) may be
  // armed: a typo would otherwise arm a point no seam ever evaluates and
  // the injected fault would silently never fire.
  if (!IsRegisteredFailpoint(name)) {
    return Status::InvalidArgument(
        "unregistered failpoint '" + name +
        "' (see common/failpoint_names.h; names follow subsystem.operation)");
  }
  if (spec == "off") {
    Clear(name);
    return Status::OK();
  }
  Point p;
  bool saw_prob = false;
  for (const std::string& clause : SplitList(spec, ',')) {
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    const std::string key = clause.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : clause.substr(eq + 1);
    auto parse_u64 = [&](uint64_t* out) -> bool {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      *out = v;
      return true;
    };
    if (key == "after") {
      if (!parse_u64(&p.after)) {
        return Status::InvalidArgument("bad after= in failpoint spec: " + spec);
      }
    } else if (key == "times") {
      if (!parse_u64(&p.times)) {
        return Status::InvalidArgument("bad times= in failpoint spec: " + spec);
      }
    } else if (key == "seed") {
      if (!parse_u64(&p.prng)) {
        return Status::InvalidArgument("bad seed= in failpoint spec: " + spec);
      }
    } else if (key == "prob") {
      char* end = nullptr;
      p.prob = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(p.prob >= 0.0) ||
          p.prob > 1.0) {
        return Status::InvalidArgument("bad prob= in failpoint spec: " + spec);
      }
      saw_prob = true;
    } else if (key == "kind") {
      if (value == "io") {
        p.kind = FailpointAction::kIOError;
      } else if (value == "unavailable") {
        p.kind = FailpointAction::kUnavailable;
      } else if (value == "short") {
        p.kind = FailpointAction::kShortRead;
      } else {
        return Status::InvalidArgument("bad kind= in failpoint spec: " + spec);
      }
    } else {
      return Status::InvalidArgument("unknown clause '" + clause +
                                     "' in failpoint spec: " + spec);
    }
  }
  (void)saw_prob;
  Impl* im = impl();
  MutexLock lock(im->mu);
  im->points[name] = p;
  return Status::OK();
}

Status Failpoints::SetFromFlag(const std::string& flag) {
  for (const std::string& entry : SplitList(flag, ';')) {
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("--failpoint entries must be name:spec, got '" +
                                     entry + "'");
    }
    if (Status s = Set(entry.substr(0, colon), entry.substr(colon + 1));
        !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

void Failpoints::Clear(const std::string& name) {
  Impl* im = impl();
  MutexLock lock(im->mu);
  im->points.erase(name);
}

void Failpoints::ClearAll() {
  Impl* im = impl();
  MutexLock lock(im->mu);
  im->points.clear();
}

uint64_t Failpoints::evaluations(const std::string& name) const {
  Impl* im = Instance().impl();
  MutexLock lock(im->mu);
  auto it = im->points.find(name);
  return it == im->points.end() ? 0 : it->second.evaluations;
}

uint64_t Failpoints::fires(const std::string& name) const {
  Impl* im = Instance().impl();
  MutexLock lock(im->mu);
  auto it = im->points.find(name);
  return it == im->points.end() ? 0 : it->second.fires;
}

FailpointAction Failpoints::Eval(const char* name) {
  Impl* im = impl();
  MutexLock lock(im->mu);
  auto it = im->points.find(name);
  if (it == im->points.end()) return FailpointAction::kNone;
  Point& p = it->second;
  const uint64_t n = p.evaluations++;
  if (n < p.after) return FailpointAction::kNone;
  if (p.times != 0 && p.fires >= p.times) return FailpointAction::kNone;
  if (p.prob < 1.0) {
    // Deterministic per-point draw stream: same seed, same firing pattern.
    const uint64_t draw = SplitMix64(p.prng);
    const double u =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    if (u >= p.prob) return FailpointAction::kNone;
  }
  ++p.fires;
  DENSEST_METRIC_COUNTER("io.failpoint_trips").Inc();
  return p.kind;
}

FailpointAction EvalFailpointWithRetry(const char* name,
                                       const RetryPolicy& policy,
                                       IoRetryStats& stats) {
  int attempt = 0;
  RetryBackoff backoff(policy);
  for (;;) {
    const FailpointAction fp = DENSEST_FAILPOINT(name);
    if (fp != FailpointAction::kUnavailable) {
      if (attempt > 0) {
        ++stats.healed;
        DENSEST_METRIC_COUNTER("io.retries_healed").Inc();
      }
      return fp;
    }
    if (attempt + 1 >= policy.max_attempts) {
      ++stats.exhausted;
      DENSEST_METRIC_COUNTER("io.retries_exhausted").Inc();
      return FailpointAction::kUnavailable;
    }
    ++stats.retries;
    DENSEST_METRIC_COUNTER("io.retries").Inc();
    ++attempt;
    backoff.Sleep();
  }
}

}  // namespace densest
