// Copyright 2026 The densest Authors.
// Failpoint registry: named, deterministic fault-injection trigger points
// compiled into every IO seam of the library (binary edge/update stream
// reads, spill write and merge read, snapshot write/read). A failpoint is
// armed from tests or the CLI (--failpoint=name:spec) with a small spec
// grammar; an unarmed failpoint is one mutex-guarded hash lookup per
// evaluation, and when DENSEST_FAILPOINTS_ENABLED is 0 the seams compile to
// nothing at all.
//
// Spec grammar — comma-separated clauses, e.g. "after=2,times=1,kind=unavailable":
//
//   off               disarm the point (same as Clear)
//   after=N           skip the first N evaluations, then start firing
//   prob=P            fire each evaluation with probability P (needs seed)
//   seed=S            PRNG seed for prob (default 1; deterministic stream)
//   times=K           stop firing after K fires (default: fire forever)
//   kind=io           inject a permanent IOError            (default)
//   kind=unavailable  inject a transient, retryable fault (kUnavailable)
//   kind=short        deliver a short read (torn file / truncated stream)
//
// The three kinds map onto the library's failure taxonomy: `io` models a
// dead disk (sticky, aborts loudly), `unavailable` models a transient fault
// a bounded retry-with-backoff should heal, `short` models torn/truncated
// data which the sticky-status seams must surface as IOError rather than a
// silent early end-of-stream.

#ifndef DENSEST_COMMON_FAILPOINT_H_
#define DENSEST_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "common/retry.h"
#include "common/status.h"

#ifndef DENSEST_FAILPOINTS_ENABLED
#define DENSEST_FAILPOINTS_ENABLED 0
#endif

namespace densest {

/// \brief What an armed failpoint injects when it fires.
enum class FailpointAction : uint8_t {
  kNone = 0,     ///< not armed / did not fire — proceed normally
  kIOError,      ///< permanent IO failure (sticky, non-retryable)
  kUnavailable,  ///< transient failure — retry policies should heal it
  kShortRead,    ///< deliver fewer bytes than asked (torn / truncated data)
};

/// \brief Process-wide registry of armed failpoints. Thread-safe: the
/// binary stream evaluates its read failpoint from the prefetch thread
/// while tests arm/clear from the main thread.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// True when the library was built with -DDENSEST_FAILPOINTS=ON; when
  /// false, Set fails and every evaluation site compiles to kNone.
  static constexpr bool compiled_in() { return DENSEST_FAILPOINTS_ENABLED != 0; }

  /// Arms `name` with `spec` (grammar above). Fails with InvalidArgument
  /// on a malformed spec or a name not in the registry
  /// (common/failpoint_names.h — a typo would arm a point no seam ever
  /// evaluates), and FailedPrecondition when failpoints are compiled
  /// out — arming a fault that can never fire must be loud.
  Status Set(const std::string& name, const std::string& spec);

  /// Arms from a CLI flag value: one or more ';'-separated "name:spec"
  /// entries, e.g. "spill.read_at:after=2,kind=short;replay.crash:after=1".
  Status SetFromFlag(const std::string& flag);

  void Clear(const std::string& name);
  void ClearAll();

  /// Observability for tests: how often `name` was evaluated / fired.
  uint64_t evaluations(const std::string& name) const;
  uint64_t fires(const std::string& name) const;

  /// Evaluates the failpoint (called from the instrumented seams via the
  /// DENSEST_FAILPOINT macro; prefer the macro so disabled builds pay
  /// nothing). Unarmed names return kNone.
  FailpointAction Eval(const char* name);

 private:
  Failpoints() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, never destroyed (used from atexit paths)
};

/// The one retry loop of the IO seams that heal transient faults (edge and
/// update stream reads, spill append and merge read): evaluates failpoint
/// `name` (it models the device, so a seam calls this before its real IO),
/// sleeping under `policy`'s backoff and re-evaluating while it fires
/// kUnavailable. Returns kNone, kIOError or kShortRead, or kUnavailable
/// once the policy's attempts are spent. Tallies each retry, heal and
/// exhaustion into `stats` and the io.retries* counters.
FailpointAction EvalFailpointWithRetry(const char* name,
                                       const RetryPolicy& policy,
                                       IoRetryStats& stats);

}  // namespace densest

#if DENSEST_FAILPOINTS_ENABLED
#define DENSEST_FAILPOINT(name) ::densest::Failpoints::Instance().Eval(name)
#else
#define DENSEST_FAILPOINT(name) ::densest::FailpointAction::kNone
#endif

#endif  // DENSEST_COMMON_FAILPOINT_H_
