#include "io/spill_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"

namespace densest {

namespace {

std::string ErrnoMessage() {
  return std::strerror(errno);
}

/// Process-unique spill names: the pid keeps concurrent processes in a
/// shared temp dir apart, the counter keeps files within one process apart.
std::string NextSpillName() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return "densest_spill_" + std::to_string(::getpid()) + "_" +
         std::to_string(id) + ".tmp";
}

}  // namespace

StatusOr<std::unique_ptr<SpillFile>> SpillFile::Create(
    const std::string& dir) {
  std::filesystem::path base;
  if (dir.empty()) {
    std::error_code ec;
    base = std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IOError("no temp directory: " + ec.message());
  } else {
    base = dir;
  }
  return CreateAt((base / NextSpillName()).string());
}

StatusOr<std::unique_ptr<SpillFile>> SpillFile::CreateAt(std::string path) {
  FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create spill file " + path + ": " +
                           ErrnoMessage());
  }
  return std::unique_ptr<SpillFile>(new SpillFile(file, std::move(path)));
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  if (read_file_ != nullptr) std::fclose(read_file_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort
}

StatusOr<size_t> SpillFile::ReadAt(uint64_t offset, void* buf, size_t cap) {
  if (offset >= bytes_written_) return size_t{0};
  const FailpointAction fp =
      EvalFailpointWithRetry("spill.read_at", retry_policy_, retry_stats_);
  if (fp == FailpointAction::kUnavailable) {
    return Status::Unavailable(
        "read failed after " + std::to_string(retry_policy_.max_attempts) +
        " attempts: spill file " + path_);
  }
  if (fp == FailpointAction::kIOError) {
    return Status::IOError("read error (injected) on spill file " + path_);
  }
  if (read_file_ == nullptr) {
    read_file_ = std::fopen(path_.c_str(), "rb");
    if (read_file_ == nullptr) {
      return Status::IOError("cannot reopen spill file " + path_ + ": " +
                             ErrnoMessage());
    }
  }
  if (std::fseek(read_file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IOError("cannot seek spill file " + path_ + ": " +
                           ErrnoMessage());
  }
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(cap, bytes_written_ - offset));
  size_t got = std::fread(buf, 1, want, read_file_);
  if (fp == FailpointAction::kShortRead) got /= 2;  // torn positioned read
  if (got != want) {
    if (std::ferror(read_file_)) {
      return Status::IOError("read error on spill file " + path_ + ": " +
                             ErrnoMessage());
    }
    return Status::IOError("truncated spill file " + path_ + ": expected " +
                           std::to_string(want) + " bytes at offset " +
                           std::to_string(offset) + ", got " +
                           std::to_string(got));
  }
  return got;
}

Status SpillFile::Append(const void* data, size_t bytes) {
  if (!status_.ok()) return status_;
  if (bytes == 0) return Status::OK();
  const FailpointAction fp =
      EvalFailpointWithRetry("spill.append", retry_policy_, retry_stats_);
  if (fp == FailpointAction::kUnavailable) {
    status_ = Status::Unavailable(
        "write failed after " + std::to_string(retry_policy_.max_attempts) +
        " attempts: spill file " + path_);
    return status_;
  }
  const size_t written =
      fp == FailpointAction::kNone ? std::fwrite(data, 1, bytes, file_)
                                   : bytes / 2;  // injected short write
  if (written != bytes) {
    status_ = Status::IOError(
        fp == FailpointAction::kNone
            ? "short write to spill file " + path_ + ": " + ErrnoMessage()
            : "short write (injected) to spill file " + path_);
    return status_;
  }
  bytes_written_ += bytes;
  return Status::OK();
}

Status SpillFile::Flush() {
  if (!status_.ok()) return status_;
  if (std::fflush(file_) != 0) {
    status_ = Status::IOError("cannot flush spill file " + path_ + ": " +
                              ErrnoMessage());
  }
  return status_;
}

}  // namespace densest
