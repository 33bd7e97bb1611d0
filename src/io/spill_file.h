// Copyright 2026 The densest Authors.
// Temp-file spill store for the MapReduce shuffle: when a shuffle partition
// outgrows its memory budget, its sorted runs are serialized here and
// merge-read back at reduce time through ReadAt, so resident shuffle memory
// is bounded by the budget instead of by |E|. Byte-oriented: callers frame
// their own records (the shuffle writes arrays of trivially-copyable KV
// structs).
//
// Failure model mirrors the edge streams' sticky status(): a short read
// before the written size is an IOError ("truncated spill file"), never a
// silent end-of-data — a reduce over a partial partition would produce a
// plausible-looking but wrong aggregate. Append and ReadAt evaluate their
// failpoints through EvalFailpointWithRetry, so a transient fault retries
// under the file's RetryPolicy.

#ifndef DENSEST_IO_SPILL_FILE_H_
#define DENSEST_IO_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/retry.h"
#include "common/status.h"

namespace densest {

/// \brief One append-only temp file of spilled bytes, deleted when the
/// object dies. Each shuffle partition owns its own file: the caller's
/// thread appends its runs in chunk order, and one reduce task merge-reads
/// them, so a file is never used by two threads at once.
class SpillFile {
 public:
  /// Creates a uniquely-named spill file in `dir` ("" uses the system temp
  /// directory). Fails with IOError when the file cannot be opened.
  static StatusOr<std::unique_ptr<SpillFile>> Create(const std::string& dir);

  /// Creates the spill file at exactly `path` (tests use this to damage the
  /// file between write and read).
  static StatusOr<std::unique_ptr<SpillFile>> CreateAt(std::string path);

  /// Closes and removes the file.
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `bytes` raw bytes. Fails with IOError on a short write (disk
  /// full); the error is sticky and every later Append fails too.
  Status Append(const void* data, size_t bytes);

  /// Flushes buffered writes to the OS so ReadAt (which reopens the path)
  /// observes everything appended so far.
  Status Flush();

  /// Total bytes successfully appended.
  uint64_t bytes_written() const { return bytes_written_; }

  const std::string& path() const { return path_; }

  /// Retry knobs for transient (kUnavailable) faults on this file's read
  /// and write seams.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Accumulated retry-loop outcomes across Append and ReadAt.
  IoRetryStats io_retry_stats() const { return retry_stats_; }

  /// Positioned read through one lazily-opened handle — the merge phase
  /// reads its many sorted runs through this, so open fds stay at one per
  /// partition no matter how many runs spilled. Reads up to min(cap,
  /// bytes_written() - offset) bytes (0 at or past the end); a short read
  /// before that is an IOError (truncation).
  StatusOr<size_t> ReadAt(uint64_t offset, void* buf, size_t cap);

 private:
  SpillFile(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  FILE* file_;
  FILE* read_file_ = nullptr;  // lazily opened by ReadAt
  std::string path_;
  uint64_t bytes_written_ = 0;
  Status status_;  // sticky write-side error
  RetryPolicy retry_policy_;
  IoRetryStats retry_stats_;
};

}  // namespace densest

#endif  // DENSEST_IO_SPILL_FILE_H_
