#ifndef CSJ_PERSIST_STORE_H_
#define CSJ_PERSIST_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "persist/log.h"
#include "persist/segment.h"
#include "service/catalog.h"

namespace csj::persist {

struct StoreOptions {
  /// Store directory; created (one level) when absent. Mapped segments
  /// always get the MADV_WILLNEED and MADV_HUGEPAGE hints.
  std::string dir;
  /// When false, Open of a directory without a committed superblock
  /// fails and writes nothing (no directory, no superblock).
  bool create_if_missing = true;
  /// fsync barrier cadence of the mutation log (records per barrier; 1
  /// makes every mutation durable before its shard lock is released).
  size_t log_sync_every = 1;
  /// Crash-injection harness (tests only; not owned, may be null).
  FaultInjector* fault_injector = nullptr;
};

/// Accounting of Open() + RestoreInto().
struct OpenStats {
  bool opened_existing = false;  ///< a committed superblock was found
  uint64_t generation = 0;
  uint64_t segment_entries = 0;
  uint64_t segment_bytes = 0;
  uint64_t log_records_replayed = 0;  ///< every record, superseded ones too
  uint64_t log_torn_bytes = 0;  ///< bytes past the valid prefix
  /// Superblock + segment map + structural validation in Open, plus
  /// RestoreInto's ReadSegmentEntries (the column-shape rules).
  double map_seconds = 0.0;
  /// ReadLog in Open: map the log, check its header and every record's
  /// payload CRC, decode the record heads.
  double log_read_seconds = 0.0;
  double restore_seconds = 0.0;  ///< RestoreBatch over the segment image
  /// Log-tail replay: the last-record pass, the removes, the pooled
  /// community build from the mapped log and the batch install.
  double replay_seconds = 0.0;
};

/// Accounting of one Checkpoint().
struct CheckpointStats {
  uint64_t generation = 0;  ///< the generation just sealed
  uint64_t entries = 0;
  uint64_t bytes = 0;           ///< sealed segment file size
  double snapshot_seconds = 0.0;  ///< catalog snapshot + column fill
  double write_seconds = 0.0;     ///< segment assembly + write + fsync
  double commit_seconds = 0.0;    ///< superblock commit + old-gen cleanup
};

/// The persistent catalog store: one directory holding the committed
/// superblock, the current sealed segment generation and its mutation
/// log (format.h documents the files and the commit protocol).
///
/// Lifecycle:
///
///   auto store = Store::Open(options, &err);     // map latest generation
///   store->RestoreInto(&catalog, &stats);        // logplay recovery
///   store->StartLogging(&catalog);               // durable from here on
///   ... mutations ...
///   store->Checkpoint(catalog, &stats);          // fold log into a new gen
///
/// Checkpoint and StartLogging/StopLogging require the catalog to be
/// QUIESCENT (no in-flight mutations): the evolution subsystem's
/// quiesce points satisfy this by construction, which is why they
/// double as checkpoint sites, and Checkpoint refuses a snapshot the
/// mutation clock shows raced. Concurrent mutations while logging is
/// attached are fully supported — that is the normal serving mode.
class Store {
 public:
  /// Opens (or initializes) the store directory: reads and validates
  /// the superblock, maps the sealed segment, maps the log and decodes
  /// its valid prefix (ReadLog: header and record CRCs). Returns nullptr with `*error` set on structural corruption
  /// (csj_fsck gives the detailed diagnosis).
  static std::unique_ptr<Store> Open(StoreOptions options, std::string* error,
                                     OpenStats* stats = nullptr);

  /// Rebuilds `catalog` (must be freshly constructed and empty) to the
  /// exact pre-crash state: segment entries install zero-copy under
  /// their original versions (their mapped sketch rows are copied into
  /// the index packs, whose mapped pages are then dropped), then the
  /// log's valid prefix replays its final state: each id's last record
  /// removes the id or installs its upsert, and superseded records only
  /// advance the version counter. Snapshots, versions, MinMax artifact
  /// bytes, sketch rows, probe verdicts and every top-k ranking come back
  /// byte-identical. Segment entries adopt the mapped artifacts; a log
  /// record that rewrote an id with equal content shares the resident
  /// entry's.
  ///
  /// Before anything installs, the log must pass CheckLogVersions, the
  /// catalog must be configured with the writer's warm parameters and
  /// signature options (checked against the segment header), and the
  /// segment must pass ReadSegmentEntries (reader.h). A broken rule
  /// fails the restore with a "run csj_fsck" error: restore refuses
  /// exactly what csj_fsck's structural pass refuses, payload CRCs aside.
  ///
  /// Replay builds each surviving upsert's community on the global pool,
  /// copied from the mapped log, then installs them as one batch in
  /// record order. Every record still passes the checks above first.
  /// A successful restore releases the log mapping, so it runs once per
  /// Open: a second call fails unless a Checkpoint came between.
  bool RestoreInto(service::CommunityCatalog* catalog, std::string* error,
                   OpenStats* stats = nullptr);

  /// Attaches the durable mutation sink: every subsequent catalog
  /// mutation appends a self-contained record to the current log, CRC'd
  /// and fsync-barriered per StoreOptions::log_sync_every.
  bool StartLogging(service::CommunityCatalog* catalog, std::string* error);

  /// Detaches the sink and seals the log tail with a final barrier.
  void StopLogging(service::CommunityCatalog* catalog);

  /// Folds the catalog's current state into a new sealed generation:
  /// writes seg-<G+1> (communities + digests + sketches + warm encoded
  /// artifacts), fsyncs it, commits the superblock, then deletes the
  /// old generation's files. On any failure the store still names the
  /// old generation — a half-written new segment is inert garbage.
  /// A mutation in flight at the snapshot, or started before the columns
  /// are filled, fails it before anything is written. When logging is
  /// attached, the log rolls to the new generation.
  bool Checkpoint(const service::CommunityCatalog& catalog, std::string* error,
                  CheckpointStats* stats = nullptr);

  uint64_t generation() const { return generation_; }
  /// True when the store holds restorable state — a sealed segment or a
  /// non-empty log tail (e.g. a store that crashed before its first
  /// checkpoint). Drives csj_serve's --warm_restart populate-or-restore
  /// choice.
  bool has_data() const { return generation_ >= 1 || log_has_records_; }
  /// Records durably appended to the current log by this process.
  uint64_t log_records() const {
    return writer_ == nullptr ? 0 : writer_->records_appended();
  }

  std::string SuperblockPath() const;
  std::string SegmentPath(uint64_t generation) const;
  std::string LogPath(uint64_t generation) const;

 private:
  explicit Store(StoreOptions options) : options_(std::move(options)) {}

  bool CommitSuperblock(uint64_t generation, std::string* error);

  StoreOptions options_;
  uint64_t generation_ = 0;
  std::shared_ptr<MappedSegment> segment_;  // null when generation has none
  /// The log as Open read it; released once RestoreInto replayed it.
  LogImage log_image_;
  bool log_has_records_ = false;  ///< Open read at least one record
  bool log_replayed_ = false;     ///< RestoreInto released log_image_
  /// Valid end of the current generation's log file: seeded from the
  /// open-time ReadLog, advanced to the writer's end_offset() whenever
  /// a writer detaches. StartLogging resumes (and truncates) HERE — not
  /// at the stale open-time length, which would chop records a previous
  /// logging session of this process already acknowledged as durable.
  uint64_t log_end_ = 0;
  /// Guards writer_ swap (checkpoint log roll) against sink appends.
  std::mutex writer_mu_;
  std::unique_ptr<LogWriter> writer_;
  bool logging_ = false;
};

}  // namespace csj::persist

#endif  // CSJ_PERSIST_STORE_H_
