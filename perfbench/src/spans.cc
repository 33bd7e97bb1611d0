#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "obs/trace.h"

namespace perfbench {

namespace {

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint64_t> t_open;
/// This thread's id in the log that last registered it.
thread_local const SpanLog* t_tid_owner = nullptr;
thread_local uint32_t t_tid = 0;

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace

uint64_t SpanLog::NowMicros() {
  return densest::obs::TraceRecorder::Get().NowMicros();
}

uint32_t SpanLog::ThreadId() {
  if (t_tid_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    t_tid = next_tid_++;
    t_tid_owner = this;
  }
  return t_tid;
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, const char* name) {
  if (!log.enabled()) return;
  log_ = &log;
  span_.layer = layer;
  span_.name = name;
  span_.tid = log.ThreadId();
  span_.parent = t_open.empty() ? 0 : t_open.back();
  {
    std::lock_guard<std::mutex> lock(log.mu_);
    span_.id = log.next_id_++;
  }
  t_open.push_back(span_.id);
  span_.start_us = NowMicros();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_us = NowMicros();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_.push_back(span_);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

WallAccount AccountWall(const std::vector<Span>& spans, uint64_t root_id) {
  WallAccount account;
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, uint64_t> child_us;  // parent id -> covered
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  auto root = by_id.find(root_id);
  if (root == by_id.end()) return account;
  auto self_us = [&](const Span& s) -> double {
    const uint64_t dur = s.end_us - s.start_us;
    auto c = child_us.find(s.id);
    const uint64_t covered = c == child_us.end() ? 0 : c->second;
    return static_cast<double>(dur > covered ? dur - covered : 0);
  };
  auto under_root = [&](const Span& s) {
    for (uint64_t p = s.parent; p != 0;) {
      if (p == root_id) return true;
      auto it = by_id.find(p);
      if (it == by_id.end()) return false;
      p = it->second->parent;
    }
    return false;
  };

  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans) {
    if (!under_root(s)) continue;
    LayerTime& lt = layers[s.layer];
    lt.layer = s.layer;
    lt.self_s += self_us(s) * 1e-6;
    ++lt.spans;
  }
  for (auto& [name, lt] : layers) account.layers.push_back(lt);
  std::sort(account.layers.begin(), account.layers.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_s > b.self_s;
            });
  const Span& r = *root->second;
  account.wall_s = static_cast<double>(r.end_us - r.start_us) * 1e-6;
  account.unattributed_s = self_us(r) * 1e-6;
  return account;
}

densest::Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return densest::Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%llu,\"dur\":%llu,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",", JsonEscape(s.name).c_str(),
                 JsonEscape(s.layer).c_str(), s.tid,
                 static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us - s.start_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return densest::Status::IOError("cannot finish " + path);
  }
  return densest::Status::OK();
}

}  // namespace perfbench
