#ifndef CSJ_PERSIST_LOG_H_
#define CSJ_PERSIST_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/types.h"
#include "persist/format.h"

namespace csj::persist {

/// One decoded mutation-log record (see format.h for the wire shape).
struct LogRecord {
  bool remove = false;
  uint64_t id = 0;
  uint64_t version = 0;  ///< 0 for removes
  Dim d = 0;
  uint32_t users = 0;
  std::string name;
  /// Byte offset of the counter payload inside the log file image.
  /// Offsets, not copies: replay copies each community's counters
  /// straight out of the mapped image (the log tail is small — the bulk
  /// of a store lives in the sealed segment, which IS served zero-copy;
  /// counter offsets in the log are not alignment-guaranteed, so a view
  /// would be UB anyway).
  size_t counts_offset = 0;
};

/// Crash-injection harness for the log writer. Tests wire one in to
/// kill the writer at an exact durability boundary; production passes
/// nullptr and none of the checks run. Once a fault fires the writer is
/// DEAD: every later append or sync is silently discarded, emulating a
/// process that ceased to exist — the bytes already handed to the OS
/// survive (this is the standard same-process crash approximation; data
/// written but never fsynced would also usually survive a real crash,
/// and recovery accepts any CRC-valid prefix, so the approximation only
/// widens the set of states recovery is proven against).
struct FaultInjector {
  /// Die immediately BEFORE performing the k-th fsync (0-based); -1
  /// disables. The record batch covered by that fsync is already fully
  /// written, so recovery must surface it.
  int64_t crash_after_fsyncs = -1;
  /// Die once cumulative appended bytes would exceed this, writing only
  /// the prefix that fits — a TORN RECORD mid-file; -1 disables.
  int64_t crash_write_at_bytes = -1;

  /// Observability: set true when a fault has fired.
  bool dead = false;
  uint64_t fsyncs_performed = 0;
  uint64_t bytes_written = 0;
};

/// Append-only mutation log writer. Thread-safe: the catalog's mutation
/// sink calls Append from inside per-shard critical sections, so
/// concurrent shards serialize on the writer's own mutex and the file
/// order is exactly the order sinks fired (which per shard equals the
/// install order).
///
/// Durability policy: every `sync_every` appended records the writer
/// issues an fsync BARRIER (write buffer flushed, fdatasync). 1 — the
/// default — makes every acknowledged mutation durable before the shard
/// lock is released; larger values trade the tail of the log for fewer
/// syncs.
class LogWriter {
 public:
  /// Opens `path` for appending, writing the header when the file is
  /// new. `resume_at` is the validated byte length of an existing log
  /// (from ReadLog, or end_offset() of the previous writer on the same
  /// file): the file is truncated there first, so appends never land
  /// after a torn tail. A `resume_at` short of a full header means the
  /// header never became durable — the file restarts from byte 0 with a
  /// fresh header rather than appending after garbage. Returns false on
  /// I/O failure.
  bool Open(const std::string& path, uint64_t generation, size_t sync_every,
            uint64_t resume_at, FaultInjector* fault, std::string* error);

  /// Appends one upsert record; returns true when the record was fully
  /// written (durable under the same-process crash model).
  bool AppendUpsert(uint64_t id, uint64_t version, const Community& community);

  /// Appends one remove record.
  bool AppendRemove(uint64_t id);

  /// Forces an fsync barrier now (checkpoint quiesce points call this).
  bool Sync();

  /// Fsyncs and closes; further appends fail.
  void Close();

  uint64_t records_appended() const;

  /// Byte length of the valid record prefix this writer has produced:
  /// the file end after the last fully appended record (partial writes
  /// from an injected crash are excluded). Valid after Close() too —
  /// pass it as the next Open's `resume_at` when reattaching to the
  /// same file, so records appended by THIS writer are never chopped.
  uint64_t end_offset() const;

  ~LogWriter() { Close(); }

 private:
  bool AppendLocked(const std::vector<uint8_t>& payload);
  bool SyncLocked();

  mutable std::mutex mu_;
  int fd_ = -1;
  size_t sync_every_ = 1;
  uint64_t records_ = 0;
  uint64_t since_sync_ = 0;
  uint64_t end_offset_ = 0;  ///< file length of the valid record prefix
  FaultInjector* fault_ = nullptr;  // not owned; null in production
};

/// A log file mapped read-only, with its valid record prefix decoded.
/// `truncated_at` reports where the valid prefix ends; when it is short
/// of `file_size` the tail is TORN (short prefix, short payload, or CRC
/// mismatch — all equivalent: the writer died mid-append) and `torn` is
/// set. A missing file is an empty log, not an error; so is a file too
/// short to hold a header (torn when it holds any byte). The image owns
/// its mapping and unmaps it when destroyed or assigned over.
struct LogImage {
  std::vector<LogRecord> records;
  uint64_t generation = 0;
  uint64_t file_size = 0;     ///< length of the file when it was read
  uint64_t truncated_at = 0;  ///< byte length of the valid prefix
  bool torn = false;
  bool present = false;  ///< the file existed

  /// The mapped file: every record's `counts_offset` points into it.
  /// Empty when no header was read. Reading past `truncated_at` after
  /// the file was truncated there (LogWriter::Open, csj_fsck --repair)
  /// would fault; nothing past it is ever read.
  std::span<const uint8_t> bytes() const {
    return {mapping_.get(), mapping_.get_deleter().size};
  }

 private:
  friend bool ReadLog(const std::string&, uint64_t, LogImage*, std::string*);

  /// Holds the mapping length; unique_ptr value-initializes it to 0.
  struct Unmap {
    size_t size;
    void operator()(const uint8_t* data) const;
  };
  std::unique_ptr<const uint8_t, Unmap> mapping_;
};

/// Maps `path` read-only and prefaulted (MAP_POPULATE: no zero-fill, no
/// copy) and decodes its valid record prefix, checking the header CRC
/// and every record's payload CRC. Returns false only on a STRUCTURAL
/// failure that recovery must not paper over: unreadable file, bad
/// magic, bad header CRC, or a generation mismatch against
/// `expect_generation`.
/// A torn tail is NOT a failure — the image carries the valid prefix.
bool ReadLog(const std::string& path, uint64_t expect_generation,
             LogImage* image, std::string* error);

}  // namespace csj::persist

#endif  // CSJ_PERSIST_LOG_H_
