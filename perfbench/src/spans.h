// The benchmark's own span recorder. The traced run of every workload
// wraps each call it makes into a library layer in a Span, keeps the spans
// in memory, and at the end derives per-layer self time (a span's
// duration minus the part its child spans cover) and writes the timeline
// as chrome://tracing JSON. Timestamps come from the library's trace clock
// (obs::TraceRecorder::NowMicros), so the library's own spans could share
// the same file and line up.
//
// A disabled log records nothing: Scope construction then costs one
// branch, so untraced runs can call the same code paths.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// \brief One closed span. `parent` is the id of the span that was open on
/// the same thread when this one opened (0 = a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* layer = "";  ///< module name, e.g. "core/pass_engine"
  const char* name = "";   ///< the call, e.g. "PassEngine::RunUndirected"
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint32_t tid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  /// Switches recording; only while no span is open on any thread.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens on construction, closes (records) on destruction.
  /// Must close on the thread that opened it, innermost first.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id (0 when the log is disabled).
    uint64_t id() const { return span_.id; }

   private:
    SpanLog* log_ = nullptr;  // null when the log is disabled
    Span span_;
  };

  /// Current time on the span clock, in microseconds.
  static uint64_t NowMicros();

  /// Every closed span so far, in close order.
  std::vector<Span> spans() const;

 private:
  /// Small dense id of the calling thread (registration order).
  uint32_t ThreadId();

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint32_t next_tid_ = 0;
};

/// \brief Self time of one layer within an accounted span tree.
struct LayerTime {
  std::string layer;
  double self_s = 0;
  uint64_t spans = 0;
};

/// \brief Where the wall time of one root span went.
struct WallAccount {
  double wall_s = 0;          ///< the root span's duration
  std::vector<LayerTime> layers;  ///< descendants' self time, by layer
  double unattributed_s = 0;  ///< the root's own self time
};

/// Accounts the wall time of root span `root_id`: every descendant's self
/// time is charged to its layer, and what no child covers stays with the
/// root as the unattributed remainder. Layers sum (with the remainder) to
/// the root's duration exactly. Layers are sorted by self time, largest
/// first.
WallAccount AccountWall(const std::vector<Span>& spans, uint64_t root_id);

/// Writes `spans` as a chrome://tracing "traceEvents" document.
densest::Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
