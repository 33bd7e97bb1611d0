#include "dynamic/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace densest {

namespace {

constexpr char kMagic[8] = {'D', 'E', 'N', 'S', 'S', 'N', 'A', 'P'};
// v2: overload-protection counters in the stats block plus the pending
// recompute state (DynamicDensest::OverloadState) after it.
constexpr uint32_t kVersion = 2;

// Fixed 32-byte header in front of the checksummed body.
struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t reserved;
  uint64_t body_size;
  uint64_t checksum;  // FNV-1a-64 over the body bytes
};
static_assert(sizeof(SnapshotHeader) == 32);

uint64_t Fnv1a64(const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void Put(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked cursor over the body; every Get fails (instead of
/// reading past the end) on a body that lies about its own layout.
class BodyReader {
 public:
  BodyReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetRaw(void* dst, size_t bytes) {
    if (size_ - pos_ < bytes) return false;
    if (bytes == 0) return true;  // dst may be null (an empty vector)
    std::memcpy(dst, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  /// Whether `count` items of `item_bytes` each fit in the unread body —
  /// checked before any size field sizes an allocation.
  bool Fits(uint64_t count, uint64_t item_bytes) const {
    return count <= (size_ - pos_) / item_bytes;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutStats(std::string* body, const DynamicDensestStats& s) {
  Put(body, s.inserts);
  Put(body, s.deletes);
  Put(body, s.ignored);
  Put(body, s.level_moves);
  Put(body, s.recomputes);
  Put(body, s.window_moves);
  Put(body, s.structures_rebuilt);
  Put(body, s.trims_deferred);
  Put(body, s.recomputes_avoided);
  Put(body, s.recomputes_cancelled);
  Put(body, s.stale_answers_served);
  Put(body, s.last_recompute_density);
}

bool GetStats(BodyReader* r, DynamicDensestStats* s) {
  return r->Get(&s->inserts) && r->Get(&s->deletes) && r->Get(&s->ignored) &&
         r->Get(&s->level_moves) && r->Get(&s->recomputes) &&
         r->Get(&s->window_moves) && r->Get(&s->structures_rebuilt) &&
         r->Get(&s->trims_deferred) && r->Get(&s->recomputes_avoided) &&
         r->Get(&s->recomputes_cancelled) && r->Get(&s->stale_answers_served) &&
         r->Get(&s->last_recompute_density);
}

void PutOverload(std::string* body, const DynamicDensest::OverloadState& o) {
  Put(body, static_cast<uint8_t>(o.pending ? 1 : 0));
  Put(body, o.cancel_streak);
  Put(body, o.rearm_at_updates);
  Put(body, o.last_cert_upper);
  Put(body, o.last_cert_inserts);
}

bool GetOverload(BodyReader* r, DynamicDensest::OverloadState* o) {
  uint8_t pending = 0;
  if (!r->Get(&pending) || !r->Get(&o->cancel_streak) ||
      !r->Get(&o->rearm_at_updates) || !r->Get(&o->last_cert_upper) ||
      !r->Get(&o->last_cert_inserts)) {
    return false;
  }
  o->pending = pending != 0;
  return true;
}

}  // namespace

Status WriteSnapshot(const std::string& path, const DynamicDensest& engine,
                     uint64_t cursor) {
  DENSEST_TRACE_SPAN("dynamic.snapshot_write");
  const NodeId n = engine.num_nodes();
  const uint32_t num_slots = static_cast<uint32_t>(engine.num_slots());

  std::string body;
  // Exact body size up front: one allocation instead of doubling growth
  // across a multi-megabyte append sequence.
  body.reserve(32 + sizeof(DynamicDensestStats) + 2 * sizeof(double) +
               size_t{n} * sizeof(uint32_t) +
               2 * size_t{engine.num_edges()} * sizeof(NodeId) +
               size_t{num_slots} * n * sizeof(uint16_t));
  Put(&body, n);
  Put(&body, engine.window_lo());
  Put(&body, num_slots);
  Put(&body, engine.trim_streak());
  Put(&body, cursor);
  Put(&body, engine.num_edges());
  PutStats(&body, engine.stats());
  PutOverload(&body, engine.overload_state());
  // The answer the engine would serve right now — the restore cross-checks
  // its own Query() against these before trusting the state.
  const DynamicDensest::Answer answer = engine.Query();
  Put(&body, answer.density);
  Put(&body, answer.upper_bound);
  // Adjacency VERBATIM: storage order decides how the restored engine
  // evolves, so the neighbor vectors are serialized byte for byte.
  const DynamicAdjacency& adj = engine.adjacency();
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const NodeId> nbrs = adj.neighbors(u);
    Put(&body, static_cast<uint32_t>(nbrs.size()));
    body.append(reinterpret_cast<const char*>(nbrs.data()),
                nbrs.size() * sizeof(NodeId));
  }
  // Per-slot per-node levels; every aggregate is recomputed from these.
  std::vector<uint16_t> levels(n);
  for (uint32_t i = 0; i < num_slots; ++i) {
    const DegreeLevels& slot = engine.slot(i);
    for (NodeId v = 0; v < n; ++v) {
      levels[v] = static_cast<uint16_t>(slot.level(v));
    }
    body.append(reinterpret_cast<const char*>(levels.data()),
                levels.size() * sizeof(uint16_t));
  }

  SnapshotHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.reserved = 0;
  header.body_size = body.size();
  header.checksum = Fnv1a64(body.data(), body.size());

  // Temp file + rename: a crash mid-write leaves the previous snapshot (or
  // nothing) at `path`, never a torn file there.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    DENSEST_METRIC_COUNTER("dynamic.snapshots_failed").Inc();
    return Status::IOError("cannot create snapshot file: " + tmp);
  }
  bool ok = DENSEST_FAILPOINT("snapshot.write") == FailpointAction::kNone;
  ok = ok && std::fwrite(&header, sizeof(header), 1, f) == 1;
  ok = ok &&
       (body.empty() || std::fwrite(body.data(), body.size(), 1, f) == 1);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    DENSEST_METRIC_COUNTER("dynamic.snapshots_failed").Inc();
    return Status::IOError("short write on snapshot file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    DENSEST_METRIC_COUNTER("dynamic.snapshots_failed").Inc();
    return Status::IOError("cannot rename snapshot into place: " + path);
  }
  DENSEST_METRIC_COUNTER("dynamic.snapshots_written").Inc();
  return Status::OK();
}

StatusOr<RestoredEngine> ReadSnapshot(const std::string& path,
                                      const DynamicDensestOptions& options) {
  DENSEST_TRACE_SPAN("dynamic.snapshot_read");
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open snapshot file: " + path);
  }
  if (DENSEST_FAILPOINT("snapshot.read") != FailpointAction::kNone) {
    std::fclose(f);
    return Status::IOError("read error (injected): " + path);
  }
  SnapshotHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("truncated snapshot header: " + path);
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(f);
    return Status::IOError("not a snapshot file: " + path);
  }
  if (header.version != kVersion) {
    std::fclose(f);
    return Status::IOError("unsupported snapshot version: " + path);
  }
  // The body must be exactly the rest of the file — checked before the
  // header's size field sizes an allocation. A torn file is shorter;
  // trailing garbage means the file is not what the header says it is.
  std::error_code ec;
  const uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec || file_bytes < sizeof(header) ||
      file_bytes - sizeof(header) != header.body_size) {
    std::fclose(f);
    return Status::IOError("snapshot body size mismatch: " + path);
  }
  std::string body(header.body_size, '\0');
  const size_t got =
      body.empty() ? 0 : std::fread(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (got != body.size()) {
    return Status::IOError("truncated snapshot body: " + path);
  }
  if (Fnv1a64(body.data(), body.size()) != header.checksum) {
    return Status::IOError("snapshot checksum mismatch: " + path);
  }

  BodyReader r(body.data(), body.size());
  NodeId n = 0;
  uint32_t lo = 0;
  uint32_t num_slots = 0;
  uint32_t trim_streak = 0;
  uint64_t cursor = 0;
  EdgeId m = 0;
  DynamicDensestStats stats;
  DynamicDensest::OverloadState overload;
  double density = 0;
  double upper_bound = 0;
  if (!r.Get(&n) || !r.Get(&lo) || !r.Get(&num_slots) ||
      !r.Get(&trim_streak) || !r.Get(&cursor) || !r.Get(&m) ||
      !GetStats(&r, &stats) || !GetOverload(&r, &overload) ||
      !r.Get(&density) || !r.Get(&upper_bound)) {
    return Status::IOError("snapshot body too short: " + path);
  }
  // Each node takes at least its degree word plus one level per slot, and
  // each neighbor one id: the counts must fit the bytes left. (No engine
  // has zero nodes; requiring one also bounds num_slots by the body.)
  if (n == 0 ||
      !r.Fits(n, sizeof(uint32_t) + uint64_t{num_slots} * sizeof(uint16_t))) {
    return Status::IOError("snapshot sizes exceed its body: " + path);
  }
  std::vector<std::vector<NodeId>> adjacency(n);
  for (NodeId u = 0; u < n; ++u) {
    uint32_t deg = 0;
    if (!r.Get(&deg) || !r.Fits(deg, sizeof(NodeId))) {
      return Status::IOError("snapshot body too short: " + path);
    }
    adjacency[u].resize(deg);
    if (!r.GetRaw(adjacency[u].data(), size_t{deg} * sizeof(NodeId))) {
      return Status::IOError("snapshot body too short: " + path);
    }
  }
  std::vector<std::vector<uint16_t>> slot_levels(num_slots);
  for (uint32_t i = 0; i < num_slots; ++i) {
    slot_levels[i].resize(n);
    if (!r.GetRaw(slot_levels[i].data(), size_t{n} * sizeof(uint16_t))) {
      return Status::IOError("snapshot body too short: " + path);
    }
  }
  if (!r.exhausted()) {
    return Status::IOError("snapshot body has trailing bytes: " + path);
  }

  StatusOr<std::unique_ptr<DynamicDensest>> engine =
      DynamicDensest::FromSnapshotState(n, options, std::move(adjacency), lo,
                                        std::move(slot_levels), trim_streak,
                                        stats, overload);
  if (!engine.ok()) return engine.status();
  // Cross-check the restored engine against the answer the writer was
  // serving: any mismatch means the state and the options disagree (e.g.
  // restored under a different epsilon) — refuse rather than risk serving
  // a wrong density.
  if ((*engine)->num_edges() != m) {
    return Status::InvalidArgument("snapshot edge count mismatch: " + path);
  }
  const DynamicDensest::Answer answer = (*engine)->Query();
  if (std::memcmp(&answer.density, &density, sizeof(double)) != 0 ||
      std::memcmp(&answer.upper_bound, &upper_bound, sizeof(double)) != 0) {
    return Status::InvalidArgument("snapshot answer mismatch: " + path);
  }
  RestoredEngine out;
  out.engine = std::move(*engine);
  out.cursor = cursor;
  DENSEST_METRIC_COUNTER("dynamic.snapshot_restores").Inc();
  return out;
}

}  // namespace densest
