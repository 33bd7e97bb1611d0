#include "stream/file_stream.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"

namespace densest {

namespace {
constexpr size_t kBufferBytes = 1 << 20;
constexpr size_t kUnweightedRecord = 2 * sizeof(uint32_t);
constexpr size_t kWeightedRecord = kUnweightedRecord + sizeof(double);
// Leading slack in each read buffer where the partial-record tail of the
// previous chunk is copied, so decoding always sees whole records.
constexpr size_t kMaxRecord = kWeightedRecord;
}  // namespace

Status WriteBinaryEdgeFile(const std::string& path, const EdgeList& edges,
                           bool weighted) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  if (DENSEST_FAILPOINT("edge_file.write") != FailpointAction::kNone) {
    std::fclose(f);
    return Status::IOError("short write (injected): " + path);
  }

  BinaryEdgeFileHeader header;
  header.num_nodes = edges.num_nodes();
  header.num_edges = edges.num_edges();
  header.flags = weighted ? 1 : 0;
  if (std::fwrite(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("short write (header): " + path);
  }

  std::vector<unsigned char> buf;
  buf.reserve(kBufferBytes);
  const size_t record = weighted ? kWeightedRecord : kUnweightedRecord;
  for (const Edge& e : edges.edges()) {
    unsigned char rec[kWeightedRecord];
    std::memcpy(rec, &e.u, sizeof(uint32_t));
    std::memcpy(rec + sizeof(uint32_t), &e.v, sizeof(uint32_t));
    if (weighted) std::memcpy(rec + kUnweightedRecord, &e.w, sizeof(double));
    buf.insert(buf.end(), rec, rec + record);
    if (buf.size() >= kBufferBytes) {
      if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
        std::fclose(f);
        return Status::IOError("short write: " + path);
      }
      buf.clear();
    }
  }
  if (!buf.empty() &&
      std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
    std::fclose(f);
    return Status::IOError("short write: " + path);
  }
  if (std::fclose(f) != 0) return Status::IOError("close failed: " + path);
  return Status::OK();
}

StatusOr<std::unique_ptr<BinaryFileEdgeStream>> BinaryFileEdgeStream::Open(
    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open: " + path);

  BinaryEdgeFileHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("short read (header): " + path);
  }
  if (header.magic != BinaryEdgeFileHeader::kMagic) {
    std::fclose(f);
    return Status::InvalidArgument("bad magic in edge file: " + path);
  }

  auto stream = std::unique_ptr<BinaryFileEdgeStream>(new BinaryFileEdgeStream());
  stream->file_ = f;
  stream->path_ = path;
  stream->header_ = header;
  stream->weighted_ = (header.flags & 1) != 0;
  // The size hint is what the file can actually hold: callers reserve it
  // (ReadAllEdges), so a corrupt count field must not size an allocation.
  // A short body still fails the pass through the truncation check.
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  const uintmax_t body =
      ec || bytes < sizeof(header) ? 0 : bytes - sizeof(header);
  stream->size_hint_ = std::min<uint64_t>(
      header.num_edges,
      body / (stream->weighted_ ? kWeightedRecord : kUnweightedRecord));
  stream->front_.resize(kMaxRecord + kBufferBytes);
  stream->back_.resize(kMaxRecord + kBufferBytes);
  stream->reader_ = std::make_unique<ThreadPool>(1);
  stream->Reset();
  return stream;
}

BinaryFileEdgeStream::~BinaryFileEdgeStream() {
  WaitPrefetch();
  reader_.reset();  // joins the read thread before the FILE goes away
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryFileEdgeStream::IssuePrefetch() {
  if (exhausted_) return;
  back_ready_ = false;
  prefetch_ = reader_->Submit([this] {
    // The failpoint models the device: evaluated before the real fread, a
    // transient (kUnavailable) fault is retried with backoff until the
    // policy's budget runs out, so an armed "times=K" spec heals mid-loop
    // exactly like a flaky-then-recovered disk.
    const FailpointAction fp =
        EvalFailpointWithRetry("edge_stream.read", retry_policy_,
                               back_retry_stats_);
    back_unavailable_ = fp == FailpointAction::kUnavailable;
    back_error_ = fp == FailpointAction::kIOError;
    if (back_unavailable_ || back_error_) {
      back_len_ = 0;
      return;
    }
    back_len_ = std::fread(back_.data() + kMaxRecord, 1, kBufferBytes, file_);
    // A short fread means EOF *or* a read error; only ferror tells them
    // apart, and it must be checked here while the task owns the FILE.
    // Treating an error as EOF would silently truncate the pass and yield
    // a plausible-looking density over a partial edge set.
    back_error_ = back_len_ < kBufferBytes && std::ferror(file_) != 0;
    if (fp == FailpointAction::kShortRead && back_len_ > 0) {
      // Torn read: deliver only the first half of the chunk, rounded to
      // a record boundary so the decode loop sees valid records and the
      // truncation is caught by the emitted_-vs-header accounting, not
      // by feeding garbage node ids downstream. The delivered length
      // drops below kBufferBytes, which marks the stream exhausted —
      // the bytes past the tear are never decoded.
      const size_t record = weighted_ ? kWeightedRecord : kUnweightedRecord;
      back_len_ = (back_len_ / 2 / record) * record;
    }
  });
}

void BinaryFileEdgeStream::JoinPrefetch() {
  if (prefetch_.valid()) {
    prefetch_.get();
    bytes_read_ += back_len_;
    retry_stats_.Accumulate(back_retry_stats_);
    back_retry_stats_ = {};
    back_ready_ = true;
  }
}

size_t BinaryFileEdgeStream::WaitPrefetch() {
  JoinPrefetch();
  if (!back_ready_) return 0;
  back_ready_ = false;  // deliver the chunk exactly once
  return back_len_;
}

void BinaryFileEdgeStream::Reset() {
  WaitPrefetch();  // the task owns the FILE until joined
  // status_ is deliberately NOT cleared: a failed or truncated file stays
  // failed — every pass over it would be short the same way.
  std::clearerr(file_);
  if (std::fseek(file_, sizeof(BinaryEdgeFileHeader), SEEK_SET) != 0 &&
      status_.ok()) {
    status_ = Status::IOError("seek failed: " + path_);
  }
  emitted_ = 0;
  pass_bytes_ = 0;
  buf_pos_ = 0;
  buf_len_ = 0;
  exhausted_ = false;
  IssuePrefetch();
}

bool BinaryFileEdgeStream::Refill(size_t record) {
  // Carry the partial-record tail (at most kMaxRecord-1 bytes) into the
  // slack ahead of the prefetched chunk, then swap buffers and start the
  // next read immediately — the disk works while the caller decodes.
  //
  // Callers only ask for a refill while emitted_ < header_.num_edges, so
  // every false return below is a premature end of data: either the fread
  // itself failed (back_error_) or the file holds fewer records than its
  // header promises. Both are recorded as a sticky IOError — returning
  // false alone looks identical to a clean end-of-pass to the decode loop.
  const size_t tail = buf_len_ - buf_pos_;
  const size_t got = WaitPrefetch();
  if (back_error_) {
    if (status_.ok()) status_ = Status::IOError("read error: " + path_);
    exhausted_ = true;
    return false;
  }
  if (back_unavailable_) {
    // Transient fault the retry budget could not heal. Sticky like every
    // other stream error, but kUnavailable so callers can tell "retry the
    // whole pass later" apart from "the file is bad".
    if (status_.ok()) {
      status_ = Status::Unavailable(
          "read failed after " + std::to_string(retry_policy_.max_attempts) +
          " attempts: " + path_);
    }
    exhausted_ = true;
    return false;
  }
  if (got + tail < record) {
    if (status_.ok()) {
      status_ = Status::IOError(
          "truncated edge file: " + path_ + " ends after " +
          std::to_string(emitted_) + " of " +
          std::to_string(header_.num_edges) + " edges");
    }
    if (got == 0) return false;  // nothing to swap in
  }
  if (tail > 0) {
    std::memcpy(back_.data() + kMaxRecord - tail,
                front_.data() + buf_pos_, tail);
  }
  front_.swap(back_);
  buf_pos_ = kMaxRecord - tail;
  buf_len_ = kMaxRecord + got;
  pass_bytes_ += got;
  // A short fread on a regular file means EOF; once the pass holds every
  // record the header promises, nothing past them is decoded, so a whole-
  // chunk body ends the pass without a further (0-byte) read.
  if (got < kBufferBytes || pass_bytes_ / record >= header_.num_edges) {
    exhausted_ = true;
  } else {
    IssuePrefetch();
  }
  return buf_len_ - buf_pos_ >= record;
}

std::span<const Edge> BinaryFileEdgeStream::NextView(Edge* scratch,
                                                     size_t cap) {
  // A failed stream stays failed: emitting data again on the next pass
  // while status() still reports the error would let a multi-pass caller
  // mix complete and truncated passes over the same file.
  if (!status_.ok()) return {};
  // Decodes straight out of the IO buffer: one refill check per chunk
  // instead of one per record, and the record unpack loop is branch-free
  // apart from the weighted/unweighted split hoisted outside it.
  size_t produced = 0;
  const size_t record = weighted_ ? kWeightedRecord : kUnweightedRecord;
  const NodeId n = header_.num_nodes;
  while (produced < cap && emitted_ < header_.num_edges) {
    if (buf_len_ - buf_pos_ < record && !Refill(record)) break;
    const size_t chunk =
        std::min({cap - produced, (buf_len_ - buf_pos_) / record,
                  static_cast<size_t>(header_.num_edges - emitted_)});
    Edge* out = scratch + produced;
    const unsigned char* src = front_.data() + buf_pos_;
    // Endpoints past the header's node count are OR-reduced over the
    // chunk and tested once after it, keeping the decode loop branch-free.
    bool out_of_range = false;
    if (weighted_) {
      for (size_t i = 0; i < chunk; ++i, src += kWeightedRecord) {
        std::memcpy(&out[i].u, src, sizeof(uint32_t));
        std::memcpy(&out[i].v, src + sizeof(uint32_t), sizeof(uint32_t));
        std::memcpy(&out[i].w, src + kUnweightedRecord, sizeof(double));
        out_of_range |= (out[i].u >= n) | (out[i].v >= n);
      }
    } else {
      for (size_t i = 0; i < chunk; ++i, src += kUnweightedRecord) {
        std::memcpy(&out[i].u, src, sizeof(uint32_t));
        std::memcpy(&out[i].v, src + sizeof(uint32_t), sizeof(uint32_t));
        out[i].w = 1.0;
        out_of_range |= (out[i].u >= n) | (out[i].v >= n);
      }
    }
    if (out_of_range) {
      // A corrupt record would index past every per-node array sized by
      // num_nodes(); the pass ends before the chunk that holds it.
      size_t bad = 0;
      while (out[bad].u < n && out[bad].v < n) ++bad;
      status_ = Status::IOError(
          "corrupt edge file: " + path_ + " record " +
          std::to_string(emitted_ + bad) + " = (" +
          std::to_string(out[bad].u) + ", " + std::to_string(out[bad].v) +
          ") names a node >= the header's " + std::to_string(n) + " nodes");
      break;
    }
    buf_pos_ += chunk * record;
    emitted_ += chunk;
    produced += chunk;
  }
  return {scratch, produced};
}

}  // namespace densest
