#include "persist/reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>

#include "core/encoding.h"
#include "persist/crc32.h"
#include "util/thread_pool.h"

namespace csj::persist {
namespace {

/// Sets `*duplicate` and returns true when `values` repeats a value. An
/// LSD radix sort in 16-bit digits, skipping the digits no two values
/// differ in, then one adjacent compare: restore runs this over every
/// segment version, where a std::set or a comparison sort costs several
/// times as much (at 100k values on a 4-core x86 host: ~2.7 ms here,
/// ~8 ms for std::sort of a copy, ~38 ms for a std::set).
bool FindDuplicate(std::vector<uint64_t> values, uint64_t* duplicate) {
  if (values.size() < 2) return false;
  uint64_t varying = 0;
  for (const uint64_t value : values) varying |= value ^ values[0];
  std::vector<uint64_t> sorted(values.size());
  std::vector<size_t> buckets(size_t{1} << 16);
  for (unsigned shift = 0; shift < 64; shift += 16) {
    if (((varying >> shift) & 0xFFFF) == 0) continue;
    std::fill(buckets.begin(), buckets.end(), 0);
    for (const uint64_t value : values) ++buckets[(value >> shift) & 0xFFFF];
    size_t offset = 0;
    for (size_t& bucket : buckets) offset += std::exchange(bucket, offset);
    for (const uint64_t value : values) {
      sorted[buckets[(value >> shift) & 0xFFFF]++] = value;
    }
    values.swap(sorted);
  }
  const auto it = std::adjacent_find(values.begin(), values.end());
  if (it == values.end()) return false;
  *duplicate = *it;
  return true;
}

/// True when `prefix` steps by exactly `length` at entry i (a decreasing
/// step never does, whatever the wrapped difference).
bool Steps(std::span<const uint64_t> prefix, size_t i, uint64_t length) {
  return prefix[i + 1] >= prefix[i] && prefix[i + 1] - prefix[i] == length;
}

}  // namespace

bool ReadSuperblock(const std::string& path, Superblock* superblock,
                    bool* present, std::string* error) {
  *present = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return true;
    *error = "open " + path + ": " + std::strerror(errno);
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

EntryLayout LayoutOf(Dim d, uint32_t users, uint32_t warm_parts,
                     uint32_t quantiles) {
  EntryLayout layout;
  layout.counts = static_cast<uint64_t>(users) * d;
  layout.sketch = static_cast<uint64_t>(d) * (uint64_t{quantiles} + 1);
  layout.parts = std::clamp(warm_parts, 1u, d);
  layout.sums = static_cast<uint64_t>(users) * layout.parts;
  layout.window = VerifyWindow::PaddedCount(users, d);
  return layout;
}

bool ReadSegmentEntries(const std::shared_ptr<MappedSegment>& segment,
                        std::vector<service::CatalogEntry>* entries,
                        std::vector<const Count*>* sketches,
                        std::string* error) {
  entries->clear();
  sketches->clear();
  const SegmentHeader& header = segment->header();
  const auto n = static_cast<size_t>(header.entry_count);
  const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
  const bool has_encodings = (header.flags & kSegHasEncodings) != 0;

  const auto ids = segment->Column<uint64_t>(SectionKind::kIds);
  const auto versions = segment->Column<uint64_t>(SectionKind::kVersions);
  const auto dims = segment->Column<uint32_t>(SectionKind::kDims);
  const auto fingerprints =
      segment->Column<uint64_t>(SectionKind::kFingerprints);
  const auto max_counters =
      segment->Column<uint32_t>(SectionKind::kMaxCounters);
  const auto name_prefix = segment->Column<uint64_t>(SectionKind::kNamePrefix);
  const auto names = segment->Column<uint8_t>(SectionKind::kNames);
  const auto users_prefix =
      segment->Column<uint64_t>(SectionKind::kUsersPrefix);
  const auto counts_prefix =
      segment->Column<uint64_t>(SectionKind::kCountsPrefix);
  const auto counts = segment->Column<Count>(SectionKind::kCounts);
  const auto sig_prefix = segment->Column<uint64_t>(SectionKind::kSigPrefix);
  const auto sig_tables = segment->Column<Count>(SectionKind::kSigTables);
  const auto sums_prefix = segment->Column<uint64_t>(SectionKind::kSumsPrefix);
  const auto b_ids = segment->Column<uint64_t>(SectionKind::kEncBIds);
  const auto b_real = segment->Column<UserId>(SectionKind::kEncBReal);
  const auto b_sums = segment->Column<uint64_t>(SectionKind::kEncBSums);
  const auto a_mins = segment->Column<uint64_t>(SectionKind::kEncAMins);
  const auto a_maxs = segment->Column<uint64_t>(SectionKind::kEncAMaxs);
  const auto a_real = segment->Column<UserId>(SectionKind::kEncAReal);
  const auto a_cols = segment->Column<uint64_t>(SectionKind::kEncACols);
  const auto window_prefix =
      segment->Column<uint64_t>(SectionKind::kWindowPrefix);
  const auto a_window = segment->Column<Count>(SectionKind::kEncAWindow);

  // The rules. The views built below index the mapped columns through
  // the prefix arrays, which live in payload bytes the open path does not
  // CRC (see MappedSegment): this O(n) pass proves every derived index in
  // bounds, so a corrupt value fails here instead of reading outside the
  // mapping or aborting inside RestoreBatch.
  auto fail = [&](std::string what) {
    *error = std::move(what);
    return false;
  };
  auto entry_fail = [&](size_t i, const char* what) {
    return fail("entry id " + std::to_string(ids[i]) + ": " + what);
  };
  if (ids.size() != n || versions.size() != n || dims.size() != n ||
      fingerprints.size() != n || max_counters.size() != n ||
      name_prefix.size() != n + 1 || users_prefix.size() != n + 1 ||
      counts_prefix.size() != n + 1) {
    return fail("entry column lengths disagree with the header entry count");
  }
  if (has_signatures && sig_prefix.size() != n + 1) {
    return fail("signature column lengths disagree with the entry count");
  }
  if (has_encodings &&
      (sums_prefix.size() != n + 1 || window_prefix.size() != n + 1)) {
    return fail("encoding prefix lengths disagree with the entry count");
  }
  if (name_prefix[0] != 0 || users_prefix[0] != 0 || counts_prefix[0] != 0 ||
      (has_signatures && sig_prefix[0] != 0) ||
      (has_encodings && (sums_prefix[0] != 0 || window_prefix[0] != 0))) {
    return fail("a prefix column does not start at 0");
  }
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return fail("ids not strictly ascending at index " + std::to_string(i));
    }
    if (versions[i] == 0 || versions[i] >= header.next_version) {
      return entry_fail(i, "version outside [1, next_version)");
    }
    if (dims[i] == 0 || users_prefix[i + 1] <= users_prefix[i] ||
        users_prefix[i + 1] - users_prefix[i] > UINT32_MAX) {
      return entry_fail(i, "degenerate shape");
    }
    const EntryLayout layout = LayoutOf(
        dims[i], static_cast<uint32_t>(users_prefix[i + 1] - users_prefix[i]),
        header.warm_parts, header.sig_quantiles);
    if (!Steps(counts_prefix, i, layout.counts)) {
      return entry_fail(i, "counter prefix disagrees with users * d");
    }
    if (has_signatures && !Steps(sig_prefix, i, layout.sketch)) {
      return entry_fail(i, "sketch prefix disagrees with d * (quantiles + 1)");
    }
    if (has_encodings && !Steps(sums_prefix, i, layout.sums)) {
      return entry_fail(i, "part-sum prefix disagrees with users * parts");
    }
    if (has_encodings && !Steps(window_prefix, i, layout.window)) {
      return entry_fail(i, "window prefix disagrees with the padded count");
    }
    if (name_prefix[i + 1] < name_prefix[i]) {
      return entry_fail(i, "name prefix not monotone");
    }
  }
  if (name_prefix[n] != names.size()) {
    return fail("name bytes disagree with the name prefix total");
  }
  if (counts_prefix[n] != counts.size()) {
    return fail("counter bytes disagree with the counter prefix total");
  }
  if (has_signatures && sig_prefix[n] != sig_tables.size()) {
    return fail("sketch bytes disagree with the sketch prefix total");
  }
  if (has_encodings &&
      (b_ids.size() != users_prefix[n] || b_real.size() != users_prefix[n] ||
       a_mins.size() != users_prefix[n] || a_maxs.size() != users_prefix[n] ||
       a_real.size() != users_prefix[n] || b_sums.size() != sums_prefix[n] ||
       a_cols.size() != 2 * sums_prefix[n] ||
       a_window.size() != window_prefix[n])) {
    return fail("encoding column lengths disagree with the prefix totals");
  }
  uint64_t duplicate = 0;
  if (FindDuplicate({versions.begin(), versions.end()}, &duplicate)) {
    return fail("two entries share version " + std::to_string(duplicate));
  }

  // The entries. Everything large is a VIEW pinned by the mapping; per
  // entry this allocates only the control blocks. A segment without
  // artifacts leaves them to the ingest path.
  entries->resize(n);
  if (has_signatures) sketches->resize(n);
  util::ThreadPool::Global().Run(static_cast<uint32_t>(n), [&](uint32_t i) {
    service::CatalogEntry& entry = (*entries)[i];
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
                            static_cast<size_t>(users) * d, segment,
                            std::move(name)));
    if (has_signatures) (*sketches)[i] = sig_tables.data() + sig_prefix[i];
    if (has_encodings) {
      const uint32_t parts =
          LayoutOf(d, users, header.warm_parts, header.sig_quantiles).parts;
      auto encodings = std::make_shared<service::EntryEncodings>();
      EncodedB::Columns b;
      b.parts = parts;
      b.n = users;
      b.ids = b_ids.data() + users_prefix[i];
      b.real = b_real.data() + users_prefix[i];
      b.sums = b_sums.data() + sums_prefix[i];
      encodings->encoded_b = std::make_shared<const EncodedB>(b, segment);
      EncodedA::Columns a;
      a.parts = parts;
      a.n = users;
      a.d = d;
      a.mins = a_mins.data() + users_prefix[i];
      a.maxs = a_maxs.data() + users_prefix[i];
      a.real = a_real.data() + users_prefix[i];
      a.cols = a_cols.data() + 2 * sums_prefix[i];
      a.window = a_window.data() + window_prefix[i];
      encodings->encoded_a = std::make_shared<const EncodedA>(a, segment);
      entry.encodings = std::move(encodings);
    }
  });
  return true;
}

bool CheckLogVersions(std::span<const LogRecord> records, uint64_t horizon,
                      std::string* error) {
  std::vector<uint64_t> versions;
  versions.reserve(records.size());
  for (const LogRecord& record : records) {
    if (record.remove) continue;
    if (record.version < horizon || record.version == UINT64_MAX) {
      *error = "log upsert id " + std::to_string(record.id) +
               ": version outside [" + std::to_string(horizon) +
               ", 2^64 - 1)";
      return false;
    }
    versions.push_back(record.version);
  }
  uint64_t duplicate = 0;
  if (FindDuplicate(std::move(versions), &duplicate)) {
    *error = "two log upserts share version " + std::to_string(duplicate);
    return false;
  }
  return true;
}

}  // namespace csj::persist
