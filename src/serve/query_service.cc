#include "serve/query_service.h"

#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

QueryService::QueryService(const AnswerPlane& plane,
                           const QueryServiceOptions& options)
    : plane_(plane), options_(options) {}

void QueryService::Stop() { stopped_.store(true); }

Status QueryService::Serve(std::span<const ServeQuery> queries,
                           const CancelToken* token,
                           std::vector<ServeResult>* results) const {
  DENSEST_TRACE_SPAN("serve.batch");
  results->resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (ShouldStop(token)) {
      results->clear();
      return token->Check();
    }
    const ServeQuery& q = queries[i];
    ServeResult& r = (*results)[i];
    switch (q.kind) {
      case ServeQuery::Kind::kDensity:
        r.answer = plane_.ReadAnswer();
        break;
      case ServeQuery::Kind::kMembership: {
        const AnswerPlane::Membership m = plane_.ReadMembership(q.node);
        r.answer = m.answer;
        r.member = m.member;
        break;
      }
      case ServeQuery::Kind::kSnapshot: {
        PlaneSnapshot snap = plane_.ReadSnapshot();
        r.answer = snap.answer;
        r.prefix_updates = snap.prefix_updates;
        r.nodes = std::move(snap.members);
        break;
      }
      case ServeQuery::Kind::kStats: {
        // Sample the staleness gauge right before rendering, so the
        // exposition a client scrapes through the service carries the age
        // of the answer it would have been served alongside.
        DENSEST_METRIC_GAUGE("serve.answer_age_us").Set(plane_.AgeMicros());
        DENSEST_METRIC_COUNTER("serve.stats_queries").Inc();
        r.answer = plane_.ReadAnswer();
        r.stats_text = obs::RenderMetricsPrometheus();
        break;
      }
    }
  }
  return Status::OK();
}

void QueryService::Finish(Outcome outcome, size_t queries, double latency_us) {
  MutexLock lock(mu_);
  switch (outcome) {
    case Outcome::kServed:
      ++batches_served_;
      queries_served_ += queries;
      // Every query of the batch waited the batch's latency.
      for (size_t i = 0; i < queries; ++i) latency_us_.Add(latency_us);
      DENSEST_METRIC_COUNTER("serve.batches_served").Inc();
      DENSEST_METRIC_COUNTER("serve.queries_served").Inc(queries);
      DENSEST_METRIC_HISTOGRAM("serve.batch_latency_us").Observe(latency_us);
      break;
    case Outcome::kShed:
      ++shed_;
      DENSEST_METRIC_COUNTER("serve.shed").Inc();
      break;
    case Outcome::kFailed:
      ++failed_;
      DENSEST_METRIC_COUNTER("serve.failed").Inc();
      break;
    case Outcome::kExpired:
      ++expired_;
      DENSEST_METRIC_COUNTER("serve.expired").Inc();
      break;
  }
}

Status QueryService::QueryBatch(std::span<const ServeQuery> queries,
                                std::vector<ServeResult>* results,
                                const CancelToken* cancel) {
  if (results == nullptr) {
    return Status::InvalidArgument("QueryBatch: results must be non-null");
  }
  results->clear();
  if (queries.empty()) return Status::OK();
  const CancelToken* token = cancel != nullptr ? cancel : options_.cancel;
  if (Status c = CheckCancel(token); !c.ok()) {
    Finish(Outcome::kExpired);
    return c;
  }
  // Admission-side fault seam: an armed action sheds the batch, so
  // clients exercise their retry path.
  if (DENSEST_FAILPOINT("serve.enqueue") != FailpointAction::kNone) {
    Finish(Outcome::kShed);
    return Status::Unavailable("injected serve.enqueue shed");
  }
  if (stopped_.load()) {
    return Status::Unavailable("query service stopped");
  }

  const WallTimer admitted;
  Status status = DENSEST_FAILPOINT("serve.dequeue") != FailpointAction::kNone
                      ? Status::Unavailable("injected serve.dequeue fault")
                      : Serve(queries, token, results);
  if (status.ok()) {
    Finish(Outcome::kServed, queries.size(), admitted.ElapsedSeconds() * 1e6);
  } else if (status.code() == Status::Code::kUnavailable) {
    Finish(Outcome::kFailed);
  } else {
    Finish(Outcome::kExpired);
  }
  return status;
}

QueryServiceStats QueryService::stats() const {
  MutexLock lock(mu_);
  QueryServiceStats s;
  s.batches_served = batches_served_;
  s.queries_served = queries_served_;
  s.shed = shed_;
  s.failed = failed_;
  s.expired = expired_;
  s.latency_p50_us = latency_us_.Quantile(0.5);
  s.latency_p99_us = latency_us_.Quantile(0.99);
  s.latency_mean_us = latency_us_.Mean();
  return s;
}

}  // namespace densest
