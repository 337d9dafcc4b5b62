#include "persist/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/encoding_cache.h"
#include "persist/crc32.h"
#include "persist/reader.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::persist {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// memcpy whose pointers may be null when the copy is empty (an empty
/// column's vector data() and an empty name's data() are both null,
/// which memcpy's nonnull attribute forbids even for size 0).
void CopyBytes(void* dst, const void* src, size_t size) {
  if (size != 0) std::memcpy(dst, src, size);
}

bool FsyncDir(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    *error = Errno("open " + dir);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) *error = Errno("fsync " + dir);
  ::close(fd);
  return ok;
}

/// Reads counters stored at any byte offset (log payloads carry no
/// alignment), so a vector is filled from the image in one pass with no
/// zero-fill first. It has just the operations std::vector's range
/// constructor uses: distance, dereference and increment.
class UnalignedCounts {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Count;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Count;

  UnalignedCounts() = default;
  explicit UnalignedCounts(const uint8_t* at) : at_(at) {}

  Count operator*() const {
    Count value;
    std::memcpy(&value, at_, sizeof(value));
    return value;
  }
  UnalignedCounts& operator++() {
    at_ += sizeof(Count);
    return *this;
  }
  UnalignedCounts operator++(int) {
    UnalignedCounts before = *this;
    ++*this;
    return before;
  }
  UnalignedCounts operator+(size_t n) const {
    return UnalignedCounts(at_ + n * sizeof(Count));
  }
  difference_type operator-(const UnalignedCounts& other) const {
    return (at_ - other.at_) / static_cast<difference_type>(sizeof(Count));
  }
  bool operator==(const UnalignedCounts&) const = default;

 private:
  const uint8_t* at_ = nullptr;
};

}  // namespace

std::string Store::SuperblockPath() const {
  return options_.dir + "/superblock.csj";
}

std::string Store::SegmentPath(uint64_t generation) const {
  return options_.dir + "/seg-" + std::to_string(generation) + ".csj";
}

std::string Store::LogPath(uint64_t generation) const {
  return options_.dir + "/log-" + std::to_string(generation) + ".csj";
}

bool Store::CommitSuperblock(uint64_t generation, std::string* error) {
  Superblock superblock;
  superblock.generation = generation;
  superblock.crc = Crc32c(&superblock, offsetof(Superblock, crc));
  const std::string tmp = options_.dir + "/superblock.tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    *error = Errno("open " + tmp);
    return false;
  }
  bool ok = ::write(fd, &superblock, sizeof(superblock)) ==
            static_cast<ssize_t>(sizeof(superblock));
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    *error = Errno("write " + tmp);
    return false;
  }
  // rename + directory fsync is the COMMIT POINT: before it the old
  // superblock (or none) is what any reopen sees; after it the new
  // generation is durable, atomically.
  if (::rename(tmp.c_str(), SuperblockPath().c_str()) != 0) {
    *error = Errno("rename " + tmp);
    return false;
  }
  return FsyncDir(options_.dir, error);
}

std::unique_ptr<Store> Store::Open(StoreOptions options, std::string* error,
                                   OpenStats* stats) {
  if (stats != nullptr) *stats = OpenStats{};
  auto store = std::unique_ptr<Store>(new Store(std::move(options)));
  if (store->options_.create_if_missing &&
      ::mkdir(store->options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    *error = Errno("mkdir " + store->options_.dir);
    return nullptr;
  }

  util::Timer timer;
  Superblock superblock;
  bool present = false;
  if (!ReadSuperblock(store->SuperblockPath(), &superblock, &present, error)) {
    return nullptr;
  }
  if (!present) {
    if (!store->options_.create_if_missing) {
      *error = store->options_.dir + ": no store here";
      return nullptr;
    }
    // Fresh store: commit generation 0 (no segment, no log) so every
    // later open — including one racing a crash during the FIRST
    // checkpoint — finds a committed superblock to trust.
    if (!store->CommitSuperblock(0, error)) return nullptr;
    superblock.generation = 0;
  }
  store->generation_ = superblock.generation;

  if (store->generation_ >= 1) {
    store->segment_ = MappedSegment::Map(
        store->SegmentPath(store->generation_), /*willneed=*/true,
        /*hugepages=*/true, error);
    if (store->segment_ == nullptr) return nullptr;
  }
  if (stats != nullptr) {
    stats->opened_existing = present;
    stats->generation = store->generation_;
    stats->map_seconds = timer.Seconds();
    if (store->segment_ != nullptr) {
      stats->segment_entries = store->segment_->header().entry_count;
      stats->segment_bytes = store->segment_->size();
    }
  }

  timer.Reset();
  if (!ReadLog(store->LogPath(store->generation_), store->generation_,
               &store->log_image_, error)) {
    return nullptr;
  }
  store->log_end_ = store->log_image_.truncated_at;
  store->log_has_records_ = !store->log_image_.records.empty();
  if (stats != nullptr) {
    stats->log_read_seconds = timer.Seconds();
    stats->log_torn_bytes =
        store->log_image_.file_size - store->log_image_.truncated_at;
  }
  return store;
}

bool Store::RestoreInto(service::CommunityCatalog* catalog, std::string* error,
                        OpenStats* stats) {
  CSJ_CHECK(catalog != nullptr);
  CSJ_CHECK_EQ(catalog->size(), 0u)
      << "RestoreInto requires a freshly constructed catalog";
  if (log_replayed_) {
    *error = "the log tail was already replayed; reopen the store";
    return false;
  }
  // Log versions are CRC-covered but unvalidated: one outside the
  // horizon, or two upserts sharing one, must fail here instead of
  // aborting inside RestoreBatch or installing twice. Checked before
  // anything installs.
  const uint64_t horizon =
      segment_ != nullptr ? segment_->header().next_version : 1;
  if (!CheckLogVersions(log_image_.records, horizon, error)) {
    *error += "; run csj_fsck";
    return false;
  }

  uint64_t recovered_next = 1;
  util::Timer timer;
  std::vector<service::CatalogEntry> image_entries;
  std::vector<const Count*> sketches;

  if (segment_ != nullptr) {
    const SegmentHeader& header = segment_->header();
    // The mapped sketch rows are only adoptable into a catalog sketching
    // like the writer's; a mismatch is a configuration error, not a
    // recoverable state.
    const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
    if (has_signatures != (catalog->signature_options() != nullptr)) {
      *error = "store signature configuration disagrees with the catalog's";
      return false;
    }
    if (has_signatures &&
        header.sig_quantiles != catalog->signature_options()->quantiles) {
      *error = "store signature quantiles disagree with the catalog's";
      return false;
    }
    if (!ReadSegmentEntries(segment_, &image_entries, &sketches, error)) {
      *error = "segment column shape invalid (" + *error + "); run csj_fsck";
      return false;
    }
    recovered_next = std::max<uint64_t>(recovered_next, header.next_version);
  }

  const double segment_seconds = timer.Seconds();
  timer.Reset();

  // Segment image first. RestoreBatch copies the mapped sketch rows into
  // the index packs and nothing reads them again, so their pages go.
  catalog->RestoreBatch(std::move(image_entries), recovered_next, sketches);
  if (segment_ != nullptr) segment_->DropPages(SectionKind::kSigTables);
  const double restore_seconds = timer.Seconds();
  timer.Reset();

  // Replay the tail's final state. One backward pass keeps each id's last
  // record: a surviving remove drops the id, a surviving upsert installs.
  // Superseded records install nothing, but the writer issued their
  // versions, so every upsert still bounds the recovered counter.
  const std::vector<LogRecord>& records = log_image_.records;
  std::vector<uint32_t> survivors;
  std::vector<uint64_t> removed;
  {
    std::unordered_set<uint64_t> seen;
    seen.reserve(records.size());
    for (size_t i = records.size(); i-- > 0;) {
      const LogRecord& record = records[i];
      if (!record.remove) {
        recovered_next = std::max(recovered_next, record.version + 1);
      }
      if (!seen.insert(record.id).second) continue;
      if (record.remove) {
        removed.push_back(record.id);
      } else {
        survivors.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  std::reverse(survivors.begin(), survivors.end());
  for (const uint64_t id : removed) catalog->Remove(id);

  // Build the survivors' communities and digests on the pool, copied
  // straight out of the mapped image, and install them as one batch in
  // record order. RestoreBatch builds their sketch rows on the ingest
  // path Upsert uses, or copies the resident entry's when the record
  // rewrote it with equal content.
  const uint8_t* image = log_image_.bytes().data();
  std::vector<service::CatalogEntry> tail(survivors.size());
  util::ThreadPool::Global().Run(
      static_cast<uint32_t>(survivors.size()), [&](uint32_t t) {
        const LogRecord& record = records[survivors[t]];
        const UnalignedCounts counts(image + record.counts_offset);
        tail[t].id = record.id;
        tail[t].version = record.version;
        tail[t].community = std::make_shared<const Community>(
            record.d,
            std::vector<Count>(counts,
                               counts + static_cast<size_t>(record.users) *
                                            record.d),
            record.name);
        tail[t].digest = DigestCommunity(*tail[t].community);
      });
  // Also pins the version counter to the recovered horizon when no upsert
  // survives (an empty RestoreBatch only advances the counter).
  catalog->RestoreBatch(std::move(tail), recovered_next);
  const uint64_t replayed = records.size();

  // The replayed tail now lives in the catalog: drop the mapping (the
  // log's length stays in log_end_, where StartLogging resumes).
  log_image_ = LogImage{};
  log_replayed_ = true;

  if (stats != nullptr) {
    stats->restore_seconds = restore_seconds;
    stats->map_seconds += segment_seconds;
    stats->replay_seconds = timer.Seconds();
    stats->log_records_replayed = replayed;
    stats->generation = generation_;
    if (segment_ != nullptr) {
      stats->segment_entries = segment_->header().entry_count;
      stats->segment_bytes = segment_->size();
    }
  }
  return true;
}

bool Store::StartLogging(service::CommunityCatalog* catalog,
                         std::string* error) {
  CSJ_CHECK(catalog != nullptr);
  std::lock_guard lock(writer_mu_);
  CSJ_CHECK(writer_ == nullptr) << "logging already started";
  writer_ = std::make_unique<LogWriter>();
  if (!writer_->Open(LogPath(generation_), generation_,
                     options_.log_sync_every, log_end_,
                     options_.fault_injector, error)) {
    writer_.reset();
    return false;
  }
  log_end_ = writer_->end_offset();
  // The log's dirent must be durable too: fsyncing the file contents
  // (which Open did for a fresh header) does not persist the directory
  // entry, and losing the dirent in a crash drops the whole log.
  if (!FsyncDir(options_.dir, error)) {
    writer_->Close();
    writer_.reset();
    return false;
  }
  logging_ = true;
  catalog->SetMutationSink([this](const service::MutationEvent& event) {
    std::lock_guard sink_lock(writer_mu_);
    if (writer_ == nullptr) return;
    if (event.remove) {
      writer_->AppendRemove(event.id);
    } else {
      writer_->AppendUpsert(event.id, event.version, *event.community);
    }
  });
  return true;
}

void Store::StopLogging(service::CommunityCatalog* catalog) {
  if (catalog != nullptr) catalog->SetMutationSink(nullptr);
  std::lock_guard lock(writer_mu_);
  if (writer_ != nullptr) {
    writer_->Close();
    log_end_ = writer_->end_offset();
    writer_.reset();
  }
  logging_ = false;
}

bool Store::Checkpoint(const service::CommunityCatalog& catalog,
                       std::string* error, CheckpointStats* stats) {
  if (stats != nullptr) *stats = CheckpointStats{};
  const uint64_t new_generation = generation_ + 1;

  // The quiescence precondition, on the mutation clock: nothing in
  // flight at the snapshot, and nothing started until the columns are
  // filled (CommunityCatalog::mutations_started).
  const uint64_t finished = catalog.mutations_finished();
  if (catalog.mutations_started() != finished) {
    *error = "checkpoint needs a quiescent catalog: a mutation is in flight";
    return false;
  }

  util::Timer timer;
  const std::vector<service::CatalogEntry> snapshot = catalog.Snapshot();
  const auto n = static_cast<uint32_t>(snapshot.size());
  const bool has_signatures = catalog.signature_options() != nullptr;

  // Prefix arrays (serial, O(n)), laid out by the reader's LayoutOf.
  std::vector<uint64_t> name_prefix(n + 1, 0);
  std::vector<uint64_t> users_prefix(n + 1, 0);
  std::vector<uint64_t> counts_prefix(n + 1, 0);
  std::vector<uint64_t> sig_prefix(has_signatures ? n + 1 : 0, 0);
  const uint32_t sig_quantiles =
      has_signatures ? catalog.signature_options()->quantiles : 0;
  for (uint32_t i = 0; i < n; ++i) {
    const service::CatalogEntry& entry = snapshot[i];
    const uint32_t users = entry.community->size();
    const EntryLayout layout =
        LayoutOf(entry.community->d(), users, sig_quantiles);
    name_prefix[i + 1] = name_prefix[i] + entry.community->name().size();
    users_prefix[i + 1] = users_prefix[i] + users;
    counts_prefix[i + 1] = counts_prefix[i] + layout.counts;
    if (has_signatures) sig_prefix[i + 1] = sig_prefix[i] + layout.sketch;
  }

  // Column buffers.
  std::vector<uint64_t> ids(n), versions(n), fingerprints(n);
  std::vector<uint32_t> dims(n), max_counters(n);
  std::vector<uint8_t> names(name_prefix[n]);
  std::vector<Count> counts(counts_prefix[n]);
  std::vector<Count> sig_tables(has_signatures ? sig_prefix[n] : 0);

  // Parallel fill: every entry writes disjoint column stretches. The
  // sketches are index rows. MinMax artifacts are a cache, filled on
  // first refine, and are not sealed: the segment holds the same bytes
  // whichever entries were refined.
  std::atomic<bool> sketch_missing{false};
  util::ThreadPool::Global().Run(n, [&](uint32_t i) {
    const service::CatalogEntry& entry = snapshot[i];
    ids[i] = entry.id;
    versions[i] = entry.version;
    fingerprints[i] = entry.digest.fingerprint;
    max_counters[i] = entry.digest.max_counter;
    dims[i] = entry.community->d();
    CopyBytes(names.data() + name_prefix[i], entry.community->name().data(),
              entry.community->name().size());
    const auto flat = entry.community->flat();
    CopyBytes(counts.data() + counts_prefix[i], flat.data(),
              flat.size() * sizeof(Count));
    if (has_signatures) {
      const std::vector<Count> table =
          catalog.SketchAt(entry.id, entry.version);
      if (table.size() != sig_prefix[i + 1] - sig_prefix[i]) {
        sketch_missing.store(true, std::memory_order_relaxed);
      } else {
        CopyBytes(sig_tables.data() + sig_prefix[i], table.data(),
                  table.size() * sizeof(Count));
      }
    }
  });
  // Without a racing mutation every snapshot entry has its index row.
  if (sketch_missing || catalog.mutations_started() != finished) {
    *error = "checkpoint needs a quiescent catalog: a mutation raced it";
    return false;
  }
  if (stats != nullptr) stats->snapshot_seconds = timer.Seconds();
  timer.Reset();

  SegmentParams params;
  params.entry_count = n;
  params.next_version = catalog.latest_version() + 1;
  params.sig_quantiles = sig_quantiles;
  params.flags = has_signatures ? kSegHasSignatures : 0u;

  std::vector<SectionSpec> sections;
  auto add = [&](SectionKind kind, uint32_t elem_size, const void* data,
                 size_t bytes) {
    sections.push_back({kind, elem_size, data, bytes});
  };
  add(SectionKind::kIds, 8, ids.data(), ids.size() * 8);
  add(SectionKind::kVersions, 8, versions.data(), versions.size() * 8);
  add(SectionKind::kDims, 4, dims.data(), dims.size() * 4);
  add(SectionKind::kFingerprints, 8, fingerprints.data(),
      fingerprints.size() * 8);
  add(SectionKind::kMaxCounters, 4, max_counters.data(),
      max_counters.size() * 4);
  add(SectionKind::kNamePrefix, 8, name_prefix.data(),
      name_prefix.size() * 8);
  add(SectionKind::kNames, 1, names.data(), names.size());
  add(SectionKind::kUsersPrefix, 8, users_prefix.data(),
      users_prefix.size() * 8);
  add(SectionKind::kCountsPrefix, 8, counts_prefix.data(),
      counts_prefix.size() * 8);
  add(SectionKind::kCounts, 4, counts.data(), counts.size() * 4);
  if (has_signatures) {
    add(SectionKind::kSigPrefix, 8, sig_prefix.data(),
        sig_prefix.size() * 8);
    add(SectionKind::kSigTables, 4, sig_tables.data(), sig_tables.size() * 4);
  }

  const std::string segment_path = SegmentPath(new_generation);
  if (!WriteSegment(segment_path, params, sections, error)) return false;
  if (stats != nullptr) stats->write_seconds = timer.Seconds();
  timer.Reset();

  // Commit: roll the log under the writer lock. The lock only orders
  // sink appends against the writer swap — it does NOT cover the window
  // between the clock check above and this flip. A mutation landing in
  // that window would live only in the old-generation log, which is
  // unlinked below, and be lost. Safety there rests on the documented
  // precondition that callers checkpoint at quiesce points (no
  // in-flight mutations from snapshot through commit).
  {
    std::lock_guard lock(writer_mu_);
    if (writer_ != nullptr) {
      writer_->Close();
      log_end_ = writer_->end_offset();
      writer_.reset();
    }
    if (!CommitSuperblock(new_generation, error)) {
      logging_ = false;  // degraded: the old log writer is gone
      return false;
    }
    const uint64_t old_generation = generation_;
    generation_ = new_generation;
    (void)::unlink(SegmentPath(old_generation).c_str());
    (void)::unlink(LogPath(old_generation).c_str());
    log_image_ = LogImage{};
    log_has_records_ = false;
    log_replayed_ = false;
    log_end_ = 0;
    if (logging_) {
      writer_ = std::make_unique<LogWriter>();
      if (!writer_->Open(LogPath(generation_), generation_,
                         options_.log_sync_every, /*resume_at=*/0,
                         options_.fault_injector, error)) {
        writer_.reset();
        logging_ = false;
        return false;
      }
      log_end_ = writer_->end_offset();
      // Make the rolled log's dirent durable (CommitSuperblock's
      // directory fsync happened BEFORE this file was created).
      if (!FsyncDir(options_.dir, error)) {
        writer_->Close();
        writer_.reset();
        logging_ = false;
        return false;
      }
    }
  }
  // Remap so a later RestoreInto through this handle reads the
  // generation just sealed.
  segment_ = MappedSegment::Map(segment_path, /*willneed=*/true,
                                /*hugepages=*/true, error);
  if (segment_ == nullptr) return false;

  if (stats != nullptr) {
    stats->commit_seconds = timer.Seconds();
    stats->generation = new_generation;
    stats->entries = n;
    stats->bytes = segment_->size();
  }
  return true;
}

}  // namespace csj::persist
