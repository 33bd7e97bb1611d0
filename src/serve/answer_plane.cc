#include "serve/answer_plane.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"

namespace densest {

namespace {
constexpr uint32_t kCertifiedBit = 1u << 0;
constexpr uint32_t kStaleBit = 1u << 1;
}  // namespace

AnswerPlane::AnswerPlane(NodeId n)
    : num_nodes_(n),
      member_words_((static_cast<size_t>(n) + 63) / 64) {
  for (std::atomic<uint64_t>& w : member_words_) {
    w.store(0, std::memory_order_relaxed);
  }
}

void AnswerPlane::Publish(const Answer& answer,
                          std::span<const NodeId> members,
                          uint64_t prefix_updates) {
  WallTimer publish_timer;
  seq_.BeginWrite();
  density_.store(answer.density, std::memory_order_release);
  upper_bound_.store(answer.upper_bound, std::memory_order_release);
  size_.store(answer.size, std::memory_order_release);
  flags_.store((answer.certified ? kCertifiedBit : 0u) |
                   (answer.stale ? kStaleBit : 0u),
               std::memory_order_release);
  prefix_updates_.store(prefix_updates, std::memory_order_release);
  // Full clear + set: n/64 + |S| release stores. Cheap against the ~1k
  // updates a publication typically amortizes over, and it keeps the
  // payload free of any cross-publication state a torn writer could leak.
  for (std::atomic<uint64_t>& w : member_words_) {
    w.store(0, std::memory_order_release);
  }
  for (NodeId v : members) {
    if (v >= num_nodes_) continue;
    std::atomic<uint64_t>& w = member_words_[v >> 6];
    w.store(w.load(std::memory_order_relaxed) | (uint64_t{1} << (v & 63)),
            std::memory_order_release);
  }
  seq_.EndWrite();
  last_publish_us_.store(static_cast<int64_t>(age_clock_.ElapsedMicros()),
                         std::memory_order_relaxed);
  DENSEST_METRIC_COUNTER("serve.publications").Inc();
  DENSEST_METRIC_GAUGE("serve.answer_epoch")
      .Set(static_cast<double>(seq_.epoch()));
  DENSEST_METRIC_HISTOGRAM("serve.publish_latency_us")
      .Observe(static_cast<double>(publish_timer.ElapsedMicros()));

  if (log_enabled_) {
    PlaneSnapshot logged;
    logged.answer = answer;
    logged.answer.epoch = seq_.epoch();
    logged.prefix_updates = prefix_updates;
    logged.members.assign(members.begin(), members.end());
    std::sort(logged.members.begin(), logged.members.end());
    writer_log_.push_back(std::move(logged));
  }
}

double AnswerPlane::AgeMicros() const {
  const int64_t last = last_publish_us_.load(std::memory_order_relaxed);
  if (last < 0) return 0;
  const int64_t now = static_cast<int64_t>(age_clock_.ElapsedMicros());
  return now > last ? static_cast<double>(now - last) : 0;
}

/// Runs `copy_payload` under the seqlock read protocol until it copied one
/// untorn publication. The callback does acquire payload loads only.
template <typename Fn>
void AnswerPlane::ReadConsistent(Fn&& copy_payload) const {
  while (true) {
    const uint64_t begin = seq_.ReadBegin();
    copy_payload(EpochSeqLock::EpochOf(begin));
    if (!seq_.ReadRetry(begin)) return;
  }
}

Answer AnswerPlane::ReadAnswer() const {
  Answer out;
  ReadConsistent([&](uint64_t epoch) {
    out.density = density_.load(std::memory_order_acquire);
    out.upper_bound = upper_bound_.load(std::memory_order_acquire);
    out.size = size_.load(std::memory_order_acquire);
    const uint32_t flags = flags_.load(std::memory_order_acquire);
    out.certified = (flags & kCertifiedBit) != 0;
    out.stale = (flags & kStaleBit) != 0;
    out.epoch = epoch;
  });
  return out;
}

AnswerPlane::Membership AnswerPlane::ReadMembership(NodeId v) const {
  Membership out;
  ReadConsistent([&](uint64_t epoch) {
    out.member =
        v < num_nodes_ &&
        (member_words_[v >> 6].load(std::memory_order_acquire) >>
             (v & 63) & 1) != 0;
    out.answer.density = density_.load(std::memory_order_acquire);
    out.answer.upper_bound = upper_bound_.load(std::memory_order_acquire);
    out.answer.size = size_.load(std::memory_order_acquire);
    const uint32_t flags = flags_.load(std::memory_order_acquire);
    out.answer.certified = (flags & kCertifiedBit) != 0;
    out.answer.stale = (flags & kStaleBit) != 0;
    out.answer.epoch = epoch;
  });
  return out;
}

PlaneSnapshot AnswerPlane::ReadSnapshot() const {
  PlaneSnapshot out;
  std::vector<uint64_t> words(member_words_.size());
  ReadConsistent([&](uint64_t epoch) {
    out.answer.density = density_.load(std::memory_order_acquire);
    out.answer.upper_bound = upper_bound_.load(std::memory_order_acquire);
    out.answer.size = size_.load(std::memory_order_acquire);
    const uint32_t flags = flags_.load(std::memory_order_acquire);
    out.answer.certified = (flags & kCertifiedBit) != 0;
    out.answer.stale = (flags & kStaleBit) != 0;
    out.answer.epoch = epoch;
    out.prefix_updates = prefix_updates_.load(std::memory_order_acquire);
    for (size_t i = 0; i < member_words_.size(); ++i) {
      words[i] = member_words_[i].load(std::memory_order_acquire);
    }
  });
  out.members.clear();
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t w = words[i];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.members.push_back(static_cast<NodeId>(i * 64 + bit));
      w &= w - 1;
    }
  }
  return out;
}

}  // namespace densest
