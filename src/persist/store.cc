#include "persist/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "core/encoding.h"
#include "persist/crc32.h"
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

/// The clamped per-entry part count, exactly Encoder's clamp — the
/// store derives it instead of persisting it (it is a pure function of
/// (warm_parts, d)).
uint32_t ClampedParts(uint32_t warm_parts, Dim d) {
  return std::clamp(warm_parts, 1u, d);
}

bool ReadSuperblock(const std::string& path, Superblock* superblock,
                    bool* present, std::string* error) {
  *present = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return true;
    *error = Errno("open " + path);
    return false;
  }
  const ssize_t n = ::read(fd, superblock, sizeof(*superblock));
  ::close(fd);
  if (n != static_cast<ssize_t>(sizeof(*superblock))) {
    *error = path + ": short superblock";
    return false;
  }
  if (superblock->magic != kSuperblockMagic) {
    *error = path + ": bad superblock magic";
    return false;
  }
  if (superblock->format_version != kFormatVersion) {
    *error = path + ": unsupported superblock format version";
    return false;
  }
  if (Crc32c(superblock, offsetof(Superblock, crc)) != superblock->crc) {
    *error = path + ": superblock CRC mismatch";
    return false;
  }
  *present = true;
  return true;
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

/// Per-entry derived sizes the column assembly and the restore loop
/// both need; computing them once keeps the two in lockstep.
struct EntryShape {
  Dim d = 0;
  uint32_t users = 0;
  uint32_t parts = 0;
  size_t window = 0;  ///< VerifyWindow::PaddedCount(users, d)
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

  if (!ReadLog(store->LogPath(store->generation_), store->generation_,
               &store->log_image_, error)) {
    return nullptr;
  }
  store->log_end_ = store->log_image_.truncated_at;
  if (stats != nullptr) {
    stats->log_torn_bytes =
        store->log_image_.bytes.size() - store->log_image_.truncated_at;
  }
  return store;
}

bool Store::RestoreInto(service::CommunityCatalog* catalog, std::string* error,
                        OpenStats* stats) {
  CSJ_CHECK(catalog != nullptr);
  CSJ_CHECK_EQ(catalog->size(), 0u)
      << "RestoreInto requires a freshly constructed catalog";
  const auto& catalog_options = catalog->options();

  // Log versions are CRC-covered but unvalidated: a record below the
  // sealed horizon, or one whose successor would wrap, must fail here
  // instead of aborting inside RestoreBatch (fsck applies the same
  // rule). Checked before anything installs.
  const uint64_t horizon =
      segment_ != nullptr ? segment_->header().next_version : 1;
  for (const LogRecord& record : log_image_.records) {
    if (!record.remove &&
        (record.version < horizon || record.version == UINT64_MAX)) {
      *error = "log upsert id " + std::to_string(record.id) +
               ": version outside [" + std::to_string(horizon) +
               ", 2^64 - 1); run csj_fsck";
      return false;
    }
  }

  uint64_t recovered_next = 1;
  util::Timer timer;
  std::vector<service::CatalogEntry> pending;

  if (segment_ != nullptr) {
    const SegmentHeader& header = segment_->header();
    const auto n = static_cast<size_t>(header.entry_count);
    const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
    const bool has_encodings = (header.flags & kSegHasEncodings) != 0;

    // The segment's derived artifacts are only adoptable into a catalog
    // shaped like the writer's; a mismatch is a configuration error,
    // not a recoverable state.
    if (has_encodings &&
        (header.warm_eps != catalog_options.warm_eps ||
         header.warm_parts != catalog_options.warm_parts)) {
      *error = "store warm parameters disagree with the catalog's";
      return false;
    }
    if (has_signatures != (catalog->signature_options() != nullptr)) {
      *error = "store signature configuration disagrees with the catalog's";
      return false;
    }
    if (has_signatures &&
        header.sig_quantiles != catalog->signature_options()->quantiles) {
      *error = "store signature quantiles disagree with the catalog's";
      return false;
    }

    const auto ids = segment_->Column<uint64_t>(SectionKind::kIds);
    const auto versions = segment_->Column<uint64_t>(SectionKind::kVersions);
    const auto dims = segment_->Column<uint32_t>(SectionKind::kDims);
    const auto fingerprints =
        segment_->Column<uint64_t>(SectionKind::kFingerprints);
    const auto max_counters =
        segment_->Column<uint32_t>(SectionKind::kMaxCounters);
    const auto name_prefix =
        segment_->Column<uint64_t>(SectionKind::kNamePrefix);
    const auto names = segment_->Column<uint8_t>(SectionKind::kNames);
    const auto users_prefix =
        segment_->Column<uint64_t>(SectionKind::kUsersPrefix);
    const auto counts_prefix =
        segment_->Column<uint64_t>(SectionKind::kCountsPrefix);
    const auto counts = segment_->Column<Count>(SectionKind::kCounts);
    const auto sig_prefix =
        segment_->Column<uint64_t>(SectionKind::kSigPrefix);
    const auto sig_tables = segment_->Column<Count>(SectionKind::kSigTables);
    const auto sums_prefix =
        segment_->Column<uint64_t>(SectionKind::kSumsPrefix);
    const auto b_ids = segment_->Column<uint64_t>(SectionKind::kEncBIds);
    const auto b_real = segment_->Column<UserId>(SectionKind::kEncBReal);
    const auto b_sums = segment_->Column<uint64_t>(SectionKind::kEncBSums);
    const auto a_mins = segment_->Column<uint64_t>(SectionKind::kEncAMins);
    const auto a_maxs = segment_->Column<uint64_t>(SectionKind::kEncAMaxs);
    const auto a_real = segment_->Column<UserId>(SectionKind::kEncAReal);
    const auto a_cols = segment_->Column<uint64_t>(SectionKind::kEncACols);
    const auto window_prefix =
        segment_->Column<uint64_t>(SectionKind::kWindowPrefix);
    const auto a_window = segment_->Column<Count>(SectionKind::kEncAWindow);

    // Shape validation — the zero-copy views below index the mapped
    // columns through the prefix arrays, and those arrays live in
    // payload bytes the open path did NOT CRC (see MappedSegment). This
    // O(n) pass proves every derived index in bounds, so corrupt
    // prefixes fail loudly here instead of reading out of the mapping.
    auto shape_error = [&](const char* what) {
      *error = std::string("segment column shape invalid (") + what +
               "); run csj_fsck";
      return false;
    };
    if (ids.size() != n || versions.size() != n || dims.size() != n ||
        fingerprints.size() != n || max_counters.size() != n ||
        name_prefix.size() != n + 1 || users_prefix.size() != n + 1 ||
        counts_prefix.size() != n + 1) {
      return shape_error("entry columns");
    }
    if (has_signatures && sig_prefix.size() != n + 1) {
      return shape_error("signature columns");
    }
    if (has_encodings &&
        (sums_prefix.size() != n + 1 || window_prefix.size() != n + 1)) {
      return shape_error("encoding prefixes");
    }
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && ids[i] <= ids[i - 1]) return shape_error("id order");
      // Versions live in un-CRC'd payload bytes like the prefixes: a
      // corrupt value must fail here, not abort inside RestoreBatch.
      if (versions[i] == 0 || versions[i] >= header.next_version) {
        return shape_error("version range");
      }
      const Dim d = dims[i];
      const uint64_t users = users_prefix[i + 1] - users_prefix[i];
      if (d == 0 || users == 0 || users_prefix[i + 1] < users_prefix[i]) {
        return shape_error("entry sizes");
      }
      if (counts_prefix[i + 1] - counts_prefix[i] !=
          users * static_cast<uint64_t>(d)) {
        return shape_error("counter prefix");
      }
      if (has_signatures &&
          sig_prefix[i + 1] - sig_prefix[i] !=
              static_cast<uint64_t>(d) * (header.sig_quantiles + 1)) {
        return shape_error("sketch prefix");
      }
      if (has_encodings) {
        const uint32_t parts =
            ClampedParts(header.warm_parts, static_cast<Dim>(d));
        if (sums_prefix[i + 1] - sums_prefix[i] != users * parts) {
          return shape_error("part-sum prefix");
        }
        if (window_prefix[i + 1] - window_prefix[i] !=
            VerifyWindow::PaddedCount(static_cast<uint32_t>(users), d)) {
          return shape_error("window prefix");
        }
      }
      if (name_prefix[i + 1] < name_prefix[i]) {
        return shape_error("name prefix");
      }
    }
    if (name_prefix[n] != names.size()) return shape_error("name bytes");
    if (counts_prefix[n] != counts.size()) return shape_error("counter bytes");
    if (has_signatures && sig_prefix[n] != sig_tables.size()) {
      return shape_error("sketch bytes");
    }
    if (has_encodings) {
      if (users_prefix[n] != b_ids.size() ||
          users_prefix[n] != b_real.size() ||
          users_prefix[n] != a_mins.size() ||
          users_prefix[n] != a_maxs.size() ||
          users_prefix[n] != a_real.size() ||
          sums_prefix[n] != b_sums.size() ||
          2 * sums_prefix[n] != a_cols.size() ||
          window_prefix[n] != a_window.size()) {
        return shape_error("encoding bytes");
      }
    }

    // Build the restored entries. Everything large is a VIEW pinned by
    // the mapping; per entry this allocates only the control blocks. A
    // segment without artifacts leaves them to the ingest path.
    pending.resize(n);
    util::ThreadPool::Global().Run(
        static_cast<uint32_t>(n), [&](uint32_t i) {
          service::CatalogEntry& entry = pending[i];
          const Dim d = dims[i];
          const auto users =
              static_cast<uint32_t>(users_prefix[i + 1] - users_prefix[i]);
          entry.id = ids[i];
          entry.version = versions[i];
          entry.digest = {fingerprints[i], max_counters[i]};
          std::string name(
              reinterpret_cast<const char*>(names.data()) + name_prefix[i],
              name_prefix[i + 1] - name_prefix[i]);
          entry.community = std::make_shared<const Community>(
              Community::FromView(d, counts.data() + counts_prefix[i],
                                  static_cast<size_t>(users) * d, segment_,
                                  std::move(name)));
          if (has_signatures) {
            CommunitySignature::TableView view;
            view.n = users;
            view.quantiles = header.sig_quantiles;
            view.d = d;
            view.table = sig_tables.data() + sig_prefix[i];
            entry.signature =
                std::make_shared<const CommunitySignature>(view, segment_);
          }
          if (has_encodings) {
            const uint32_t parts = ClampedParts(header.warm_parts, d);
            auto encodings = std::make_shared<service::EntryEncodings>();
            EncodedB::Columns b;
            b.parts = parts;
            b.n = users;
            b.ids = b_ids.data() + users_prefix[i];
            b.real = b_real.data() + users_prefix[i];
            b.sums = b_sums.data() + sums_prefix[i];
            encodings->encoded_b =
                std::make_shared<const EncodedB>(b, segment_);
            EncodedA::Columns a;
            a.parts = parts;
            a.n = users;
            a.d = d;
            a.mins = a_mins.data() + users_prefix[i];
            a.maxs = a_maxs.data() + users_prefix[i];
            a.real = a_real.data() + users_prefix[i];
            a.cols = a_cols.data() + 2 * sums_prefix[i];
            a.window = a_window.data() + window_prefix[i];
            encodings->encoded_a =
                std::make_shared<const EncodedA>(a, segment_);
            entry.encodings = std::move(encodings);
          }
        });
    recovered_next = std::max<uint64_t>(recovered_next, header.next_version);
  }

  const double segment_seconds = timer.Seconds();
  timer.Reset();

  // Install the checkpoint image, then replay the log tail in append
  // order. Removes flush the pending batch first: batch installs and
  // removes must interleave exactly as the writer's history did, per
  // shard, for the index pack layout to replay byte-identically.
  auto flush = [&]() {
    if (pending.empty()) return;
    uint64_t next = 1;
    for (const auto& entry : pending) {
      next = std::max(next, entry.version + 1);
    }
    catalog->RestoreBatch(std::move(pending), next, nullptr);
    pending.clear();
  };

  uint64_t replayed = 0;
  // Segment image first.
  flush();
  const double restore_seconds = timer.Seconds();
  timer.Reset();

  for (const LogRecord& record : log_image_.records) {
    ++replayed;
    if (record.remove) {
      flush();
      catalog->Remove(record.id);
      continue;
    }
    service::CatalogEntry entry;
    entry.id = record.id;
    entry.version = record.version;
    std::vector<Count> counts(static_cast<size_t>(record.users) * record.d);
    std::memcpy(counts.data(), log_image_.bytes.data() + record.counts_offset,
                counts.size() * sizeof(Count));
    entry.community = std::make_shared<const Community>(
        Community(record.d, std::move(counts), record.name));
    // Derived artifacts (digest included) were never checkpointed for
    // log-tail entries; RestoreBatch builds them on the ingest path
    // Upsert uses, or shares the resident entry's when the record
    // rewrote it with equal content. The tail may refresh an id twice:
    // last wins.
    pending.push_back(std::move(entry));
    recovered_next = std::max(recovered_next, record.version + 1);
  }
  flush();
  // Pin the version counter to the recovered horizon even when the tail
  // ends in removes (an empty RestoreBatch only advances the counter).
  catalog->RestoreBatch({}, recovered_next, nullptr);

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
  const auto& catalog_options = catalog.options();
  const uint64_t new_generation = generation_ + 1;

  util::Timer timer;
  const std::vector<service::CatalogEntry> snapshot = catalog.Snapshot();
  const auto n = static_cast<uint32_t>(snapshot.size());
  const bool has_signatures = catalog.signature_options() != nullptr;

  // Derived shapes + prefix arrays (serial, O(n)).
  std::vector<EntryShape> shapes(n);
  std::vector<uint64_t> name_prefix(n + 1, 0);
  std::vector<uint64_t> users_prefix(n + 1, 0);
  std::vector<uint64_t> counts_prefix(n + 1, 0);
  std::vector<uint64_t> sig_prefix(has_signatures ? n + 1 : 0, 0);
  std::vector<uint64_t> sums_prefix(n + 1, 0);
  std::vector<uint64_t> window_prefix(n + 1, 0);
  const uint32_t sig_quantiles =
      has_signatures ? catalog.signature_options()->quantiles : 0;
  for (uint32_t i = 0; i < n; ++i) {
    const service::CatalogEntry& entry = snapshot[i];
    EntryShape& shape = shapes[i];
    shape.d = entry.community->d();
    shape.users = entry.community->size();
    shape.parts = ClampedParts(catalog_options.warm_parts, shape.d);
    shape.window = VerifyWindow::PaddedCount(shape.users, shape.d);
    name_prefix[i + 1] = name_prefix[i] + entry.community->name().size();
    users_prefix[i + 1] = users_prefix[i] + shape.users;
    counts_prefix[i + 1] =
        counts_prefix[i] + static_cast<uint64_t>(shape.users) * shape.d;
    if (has_signatures) {
      CSJ_CHECK(entry.signature != nullptr);
      sig_prefix[i + 1] =
          sig_prefix[i] + static_cast<uint64_t>(shape.d) * (sig_quantiles + 1);
    }
    CSJ_CHECK(entry.encodings != nullptr);
    sums_prefix[i + 1] =
        sums_prefix[i] + static_cast<uint64_t>(shape.users) * shape.parts;
    window_prefix[i + 1] = window_prefix[i] + shape.window;
  }

  // Column buffers.
  std::vector<uint64_t> ids(n), versions(n), fingerprints(n);
  std::vector<uint32_t> dims(n), max_counters(n);
  std::vector<uint8_t> names(name_prefix[n]);
  std::vector<Count> counts(counts_prefix[n]);
  std::vector<Count> sig_tables(has_signatures ? sig_prefix[n] : 0);
  std::vector<uint64_t> b_ids(users_prefix[n]);
  std::vector<UserId> b_real(users_prefix[n]);
  std::vector<uint64_t> b_sums(sums_prefix[n]);
  std::vector<uint64_t> a_mins(users_prefix[n]);
  std::vector<uint64_t> a_maxs(users_prefix[n]);
  std::vector<UserId> a_real(users_prefix[n]);
  std::vector<uint64_t> a_cols(2 * sums_prefix[n]);
  std::vector<Count> a_window(window_prefix[n]);

  // Parallel fill: every entry writes disjoint column stretches. The
  // MinMax artifacts are the entries' own.
  util::ThreadPool::Global().Run(n, [&](uint32_t i) {
    const service::CatalogEntry& entry = snapshot[i];
    const EntryShape& shape = shapes[i];
    ids[i] = entry.id;
    versions[i] = entry.version;
    fingerprints[i] = entry.digest.fingerprint;
    max_counters[i] = entry.digest.max_counter;
    dims[i] = shape.d;
    CopyBytes(names.data() + name_prefix[i], entry.community->name().data(),
              entry.community->name().size());
    const auto flat = entry.community->flat();
    CopyBytes(counts.data() + counts_prefix[i], flat.data(),
              flat.size() * sizeof(Count));
    if (has_signatures) {
      const auto table = entry.signature->table();
      CopyBytes(sig_tables.data() + sig_prefix[i], table.data(),
                table.size() * sizeof(Count));
    }
    const EncodedB* encoded_b = entry.encodings->encoded_b.get();
    const EncodedA* encoded_a = entry.encodings->encoded_a.get();
    for (uint32_t u = 0; u < shape.users; ++u) {
      b_ids[users_prefix[i] + u] = encoded_b->encoded_id(u);
      b_real[users_prefix[i] + u] = encoded_b->real_id(u);
      a_mins[users_prefix[i] + u] = encoded_a->encoded_min(u);
      a_maxs[users_prefix[i] + u] = encoded_a->encoded_max(u);
      a_real[users_prefix[i] + u] = encoded_a->real_id(u);
    }
    // part_sums(0) / part_lo(0) are the first elements of the flat
    // SoA buffers; the whole column is contiguous behind them.
    std::memcpy(b_sums.data() + sums_prefix[i],
                encoded_b->part_sums(0).data(),
                static_cast<size_t>(shape.users) * shape.parts *
                    sizeof(uint64_t));
    std::memcpy(a_cols.data() + 2 * sums_prefix[i], encoded_a->part_lo(0),
                2 * static_cast<size_t>(shape.users) * shape.parts *
                    sizeof(uint64_t));
    std::memcpy(a_window.data() + window_prefix[i],
                encoded_a->window().BlockData(0),
                shape.window * sizeof(Count));
  });
  if (stats != nullptr) stats->snapshot_seconds = timer.Seconds();
  timer.Reset();

  SegmentParams params;
  params.entry_count = n;
  params.next_version = catalog.latest_version() + 1;
  params.warm_eps = catalog_options.warm_eps;
  params.warm_parts = catalog_options.warm_parts;
  params.sig_quantiles = sig_quantiles;
  params.flags =
      (has_signatures ? kSegHasSignatures : 0u) | kSegHasEncodings;

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
  add(SectionKind::kSumsPrefix, 8, sums_prefix.data(),
      sums_prefix.size() * 8);
  add(SectionKind::kEncBIds, 8, b_ids.data(), b_ids.size() * 8);
  add(SectionKind::kEncBReal, 4, b_real.data(), b_real.size() * 4);
  add(SectionKind::kEncBSums, 8, b_sums.data(), b_sums.size() * 8);
  add(SectionKind::kEncAMins, 8, a_mins.data(), a_mins.size() * 8);
  add(SectionKind::kEncAMaxs, 8, a_maxs.data(), a_maxs.size() * 8);
  add(SectionKind::kEncAReal, 4, a_real.data(), a_real.size() * 4);
  add(SectionKind::kEncACols, 8, a_cols.data(), a_cols.size() * 8);
  add(SectionKind::kWindowPrefix, 8, window_prefix.data(),
      window_prefix.size() * 8);
  add(SectionKind::kEncAWindow, 4, a_window.data(), a_window.size() * 4);

  const std::string segment_path = SegmentPath(new_generation);
  if (!WriteSegment(segment_path, params, sections, error)) return false;
  if (stats != nullptr) stats->write_seconds = timer.Seconds();
  timer.Reset();

  // Commit: roll the log under the writer lock. The lock only orders
  // sink appends against the writer swap — it does NOT cover the window
  // between catalog.Snapshot() above and this flip. A mutation landing
  // in that window would live only in the old-generation log, which is
  // unlinked below, and be lost. Safety rests entirely on the
  // documented precondition that callers checkpoint at quiesce points
  // (no in-flight mutations from snapshot through commit).
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
