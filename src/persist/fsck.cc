#include "persist/fsck.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <set>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/log.h"
#include "persist/segment.h"
#include "util/thread_pool.h"

namespace csj::persist {
namespace {

const char* KindName(uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kIds: return "ids";
    case SectionKind::kVersions: return "versions";
    case SectionKind::kDims: return "dims";
    case SectionKind::kFingerprints: return "fingerprints";
    case SectionKind::kMaxCounters: return "max_counters";
    case SectionKind::kNamePrefix: return "name_prefix";
    case SectionKind::kNames: return "names";
    case SectionKind::kUsersPrefix: return "users_prefix";
    case SectionKind::kCountsPrefix: return "counts_prefix";
    case SectionKind::kCounts: return "counts";
    case SectionKind::kSampled: return "reserved";
    case SectionKind::kSigPrefix: return "sig_prefix";
    case SectionKind::kSigTables: return "sig_tables";
    case SectionKind::kSumsPrefix: return "sums_prefix";
    case SectionKind::kEncBIds: return "enc_b_ids";
    case SectionKind::kEncBReal: return "enc_b_real";
    case SectionKind::kEncBSums: return "enc_b_sums";
    case SectionKind::kEncAMins: return "enc_a_mins";
    case SectionKind::kEncAMaxs: return "enc_a_maxs";
    case SectionKind::kEncAReal: return "enc_a_real";
    case SectionKind::kEncACols: return "enc_a_cols";
    case SectionKind::kWindowPrefix: return "window_prefix";
    case SectionKind::kEncAWindow: return "enc_a_window";
    case SectionKind::kComWindow: return "reserved";
  }
  return "unknown";
}

struct Reporter {
  FsckReport* report;
  std::mutex mu;

  void Fatal(std::string message) {
    std::lock_guard lock(mu);
    report->findings.push_back({true, std::move(message)});
  }
  void Note(std::string message) {
    std::lock_guard lock(mu);
    report->findings.push_back({false, std::move(message)});
  }
};

uint32_t ClampedParts(uint32_t warm_parts, Dim d) {
  return std::clamp(warm_parts, 1u, d);
}

/// Deep-verifies one entry: every derived artifact recomputed from the
/// stored counters and byte-compared against the stored columns.
void DeepVerifyEntry(const MappedSegment& segment, size_t i,
                     Reporter* reporter) {
  const SegmentHeader& header = segment.header();
  const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
  const bool has_encodings = (header.flags & kSegHasEncodings) != 0;
  const auto ids = segment.Column<uint64_t>(SectionKind::kIds);
  const auto dims = segment.Column<uint32_t>(SectionKind::kDims);
  const auto fingerprints =
      segment.Column<uint64_t>(SectionKind::kFingerprints);
  const auto max_counters =
      segment.Column<uint32_t>(SectionKind::kMaxCounters);
  const auto users_prefix =
      segment.Column<uint64_t>(SectionKind::kUsersPrefix);
  const auto counts_prefix =
      segment.Column<uint64_t>(SectionKind::kCountsPrefix);
  const auto counts = segment.Column<Count>(SectionKind::kCounts);

  const Dim d = dims[i];
  const auto users =
      static_cast<uint32_t>(users_prefix[i + 1] - users_prefix[i]);
  const std::string tag = "entry id " + std::to_string(ids[i]);
  // A borrowed view is enough for recomputation — no copy of the rows.
  const Community community = Community::FromView(
      d, counts.data() + counts_prefix[i], static_cast<size_t>(users) * d,
      nullptr);

  const CommunityDigest digest = DigestCommunity(community);
  if (digest.fingerprint != fingerprints[i] ||
      digest.max_counter != max_counters[i]) {
    reporter->Fatal(tag + ": stored digest disagrees with recomputation");
  }

  if (has_signatures) {
    const auto sig_prefix =
        segment.Column<uint64_t>(SectionKind::kSigPrefix);
    const auto sig_tables = segment.Column<Count>(SectionKind::kSigTables);
    SignatureOptions sig_options;
    sig_options.quantiles = header.sig_quantiles;
    const CommunitySignature rebuilt(community, sig_options);
    const auto stored =
        sig_tables.subspan(sig_prefix[i], sig_prefix[i + 1] - sig_prefix[i]);
    const auto table = rebuilt.table();
    if (!std::equal(table.begin(), table.end(), stored.begin(),
                    stored.end())) {
      reporter->Fatal(tag + ": stored sketch disagrees with recomputation");
    }
  }

  if (has_encodings) {
    const auto sums_prefix =
        segment.Column<uint64_t>(SectionKind::kSumsPrefix);
    const auto b_ids = segment.Column<uint64_t>(SectionKind::kEncBIds);
    const auto b_real = segment.Column<UserId>(SectionKind::kEncBReal);
    const auto b_sums = segment.Column<uint64_t>(SectionKind::kEncBSums);
    const auto a_mins = segment.Column<uint64_t>(SectionKind::kEncAMins);
    const auto a_maxs = segment.Column<uint64_t>(SectionKind::kEncAMaxs);
    const auto a_real = segment.Column<UserId>(SectionKind::kEncAReal);
    const auto a_cols = segment.Column<uint64_t>(SectionKind::kEncACols);
    const auto window_prefix =
        segment.Column<uint64_t>(SectionKind::kWindowPrefix);
    const auto a_window = segment.Column<Count>(SectionKind::kEncAWindow);

    const Encoder encoder(d, header.warm_eps,
                          ClampedParts(header.warm_parts, d));
    const uint64_t u0 = users_prefix[i];
    const uint64_t s0 = sums_prefix[i];
    const uint64_t w0 = window_prefix[i];
    const size_t sums = static_cast<size_t>(users) * encoder.parts();
    const size_t window = VerifyWindow::PaddedCount(users, d);

    const EncodedB encoded_b(community, encoder);
    bool b_ok = true;
    for (uint32_t u = 0; u < users && b_ok; ++u) {
      b_ok = encoded_b.encoded_id(u) == b_ids[u0 + u] &&
             encoded_b.real_id(u) == b_real[u0 + u];
    }
    b_ok = b_ok && std::memcmp(encoded_b.part_sums(0).data(),
                               b_sums.data() + s0,
                               sums * sizeof(uint64_t)) == 0;
    if (!b_ok) {
      reporter->Fatal(tag +
                      ": stored EncodedB disagrees with recomputation");
    }

    const EncodedA encoded_a(community, encoder);
    bool a_ok = true;
    for (uint32_t u = 0; u < users && a_ok; ++u) {
      a_ok = encoded_a.encoded_min(u) == a_mins[u0 + u] &&
             encoded_a.encoded_max(u) == a_maxs[u0 + u] &&
             encoded_a.real_id(u) == a_real[u0 + u];
    }
    a_ok = a_ok && std::memcmp(encoded_a.part_lo(0), a_cols.data() + 2 * s0,
                               2 * sums * sizeof(uint64_t)) == 0;
    a_ok = a_ok && std::memcmp(encoded_a.window().BlockData(0),
                               a_window.data() + w0,
                               window * sizeof(Count)) == 0;
    if (!a_ok) {
      reporter->Fatal(tag +
                      ": stored EncodedA disagrees with recomputation");
    }
  }
}

/// Structural + semantic segment verification. Returns the shape checks'
/// verdict: deep verification only runs when the shapes are sound.
bool VerifySegmentShapes(const MappedSegment& segment, Reporter* reporter) {
  const SegmentHeader& header = segment.header();
  const auto n = static_cast<size_t>(header.entry_count);
  const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
  const bool has_encodings = (header.flags & kSegHasEncodings) != 0;

  // Payload CRCs — the check the zero-copy open path skips.
  for (const SectionDesc& desc : segment.sections()) {
    if (Crc32c(segment.data() + desc.offset, desc.byte_size) != desc.crc) {
      reporter->Fatal(std::string("section ") + KindName(desc.kind) +
                      ": payload CRC mismatch");
      return false;
    }
  }

  const auto ids = segment.Column<uint64_t>(SectionKind::kIds);
  const auto versions = segment.Column<uint64_t>(SectionKind::kVersions);
  const auto dims = segment.Column<uint32_t>(SectionKind::kDims);
  const auto name_prefix =
      segment.Column<uint64_t>(SectionKind::kNamePrefix);
  const auto names = segment.Column<uint8_t>(SectionKind::kNames);
  const auto users_prefix =
      segment.Column<uint64_t>(SectionKind::kUsersPrefix);
  const auto counts_prefix =
      segment.Column<uint64_t>(SectionKind::kCountsPrefix);
  const auto counts = segment.Column<Count>(SectionKind::kCounts);

  bool ok = true;
  auto fail = [&](const std::string& message) {
    reporter->Fatal(message);
    ok = false;
  };

  if (ids.size() != n || versions.size() != n || dims.size() != n ||
      segment.Column<uint64_t>(SectionKind::kFingerprints).size() != n ||
      segment.Column<uint32_t>(SectionKind::kMaxCounters).size() != n ||
      name_prefix.size() != n + 1 || users_prefix.size() != n + 1 ||
      counts_prefix.size() != n + 1) {
    fail("entry column lengths disagree with the header entry count");
    return false;
  }

  std::set<uint64_t> seen_versions;
  for (size_t i = 0; i < n && ok; ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) {
      fail("ids not strictly ascending at index " + std::to_string(i));
    }
    if (versions[i] == 0 || versions[i] >= header.next_version) {
      fail("entry id " + std::to_string(ids[i]) +
           ": version outside [1, next_version)");
    }
    if (!seen_versions.insert(versions[i]).second) {
      fail("entry id " + std::to_string(ids[i]) + ": duplicate version");
    }
    const Dim d = dims[i];
    const uint64_t users = users_prefix[i + 1] - users_prefix[i];
    if (d == 0 || users == 0 || users_prefix[i + 1] < users_prefix[i]) {
      fail("entry id " + std::to_string(ids[i]) + ": degenerate shape");
    }
    if (ok && counts_prefix[i + 1] - counts_prefix[i] != users * d) {
      fail("entry id " + std::to_string(ids[i]) +
           ": counter prefix disagrees with users * d");
    }
    if (ok && name_prefix[i + 1] < name_prefix[i]) {
      fail("entry id " + std::to_string(ids[i]) + ": name prefix not "
           "monotone");
    }
  }
  if (ok && name_prefix[n] != names.size()) {
    fail("name bytes disagree with the name prefix total");
  }
  if (ok && counts_prefix[n] != counts.size()) {
    fail("counter bytes disagree with the counter prefix total");
  }

  if (ok && has_signatures) {
    const auto sig_prefix =
        segment.Column<uint64_t>(SectionKind::kSigPrefix);
    const auto sig_tables = segment.Column<Count>(SectionKind::kSigTables);
    if (sig_prefix.size() != n + 1) {
      fail("signature column lengths disagree with the entry count");
    }
    for (size_t i = 0; i < n && ok; ++i) {
      if (sig_prefix[i + 1] - sig_prefix[i] !=
          static_cast<uint64_t>(dims[i]) * (header.sig_quantiles + 1)) {
        fail("entry id " + std::to_string(ids[i]) +
             ": sketch prefix disagrees with d * (quantiles + 1)");
      }
    }
    if (ok && sig_prefix[n] != sig_tables.size()) {
      fail("sketch bytes disagree with the sketch prefix total");
    }
  }

  if (ok && has_encodings) {
    const auto sums_prefix =
        segment.Column<uint64_t>(SectionKind::kSumsPrefix);
    const auto window_prefix =
        segment.Column<uint64_t>(SectionKind::kWindowPrefix);
    if (sums_prefix.size() != n + 1 || window_prefix.size() != n + 1) {
      fail("encoding prefix lengths disagree with the entry count");
    }
    for (size_t i = 0; i < n && ok; ++i) {
      const uint64_t users = users_prefix[i + 1] - users_prefix[i];
      const uint32_t parts = ClampedParts(header.warm_parts, dims[i]);
      if (sums_prefix[i + 1] - sums_prefix[i] != users * parts) {
        fail("entry id " + std::to_string(ids[i]) +
             ": part-sum prefix disagrees with users * parts");
      }
      if (ok && window_prefix[i + 1] - window_prefix[i] !=
                    VerifyWindow::PaddedCount(static_cast<uint32_t>(users),
                                              dims[i])) {
        fail("entry id " + std::to_string(ids[i]) +
             ": window prefix disagrees with the padded count");
      }
    }
    if (ok) {
      const uint64_t total_users = users_prefix[n];
      const uint64_t total_sums = sums_prefix[n];
      if (segment.Column<uint64_t>(SectionKind::kEncBIds).size() !=
              total_users ||
          segment.Column<UserId>(SectionKind::kEncBReal).size() !=
              total_users ||
          segment.Column<uint64_t>(SectionKind::kEncBSums).size() !=
              total_sums ||
          segment.Column<uint64_t>(SectionKind::kEncAMins).size() !=
              total_users ||
          segment.Column<uint64_t>(SectionKind::kEncAMaxs).size() !=
              total_users ||
          segment.Column<UserId>(SectionKind::kEncAReal).size() !=
              total_users ||
          segment.Column<uint64_t>(SectionKind::kEncACols).size() !=
              2 * total_sums ||
          segment.Column<Count>(SectionKind::kEncAWindow).size() !=
              window_prefix[n]) {
        fail("encoding column lengths disagree with the prefix totals");
      }
    }
  }
  return ok;
}

}  // namespace

bool FsckStore(const FsckOptions& options, FsckReport* report) {
  *report = FsckReport{};
  Reporter reporter{report, {}};

  // Superblock.
  Superblock superblock;
  {
    const std::string path = options.dir + "/superblock.csj";
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      reporter.Fatal("superblock missing or unreadable: " + path);
      return true;
    }
    const ssize_t n = ::read(fd, &superblock, sizeof(superblock));
    ::close(fd);
    if (n != static_cast<ssize_t>(sizeof(superblock))) {
      reporter.Fatal("superblock short read");
      return true;
    }
    if (superblock.magic != kSuperblockMagic) {
      reporter.Fatal("superblock magic mismatch");
      return true;
    }
    if (superblock.format_version != kFormatVersion) {
      reporter.Fatal("superblock format version unsupported");
      return true;
    }
    if (Crc32c(&superblock, offsetof(Superblock, crc)) != superblock.crc) {
      reporter.Fatal("superblock CRC mismatch");
      return true;
    }
  }
  report->generation = superblock.generation;

  // Stray files from interrupted checkpoints (inert: nothing references
  // them until a superblock commit names them).
  {
    DIR* dir = ::opendir(options.dir.c_str());
    if (dir != nullptr) {
      const std::string seg = "seg-" + std::to_string(report->generation) +
                              ".csj";
      const std::string log = "log-" + std::to_string(report->generation) +
                              ".csj";
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == ".." || name == "superblock.csj" ||
            name == seg || name == log) {
          continue;
        }
        reporter.Note("stray file (interrupted checkpoint residue): " + name);
      }
      ::closedir(dir);
    }
  }

  // Segment.
  std::shared_ptr<MappedSegment> segment;
  if (report->generation >= 1) {
    std::string error;
    segment = MappedSegment::Map(
        options.dir + "/seg-" + std::to_string(report->generation) + ".csj",
        /*willneed=*/true, /*hugepages=*/false, &error);
    if (segment == nullptr) {
      reporter.Fatal(error);
    } else {
      report->segment_entries = segment->header().entry_count;
      if (VerifySegmentShapes(*segment, &reporter) && options.deep) {
        util::ThreadPool::Global().Run(
            static_cast<uint32_t>(segment->header().entry_count),
            [&](uint32_t i) { DeepVerifyEntry(*segment, i, &reporter); });
      }
    }
  }

  // Log.
  {
    const std::string path =
        options.dir + "/log-" + std::to_string(report->generation) + ".csj";
    LogImage image;
    std::string error;
    if (!ReadLog(path, report->generation, &image, &error)) {
      reporter.Fatal(error);
    } else if (image.present) {
      report->log_records = image.records.size();
      const uint64_t horizon =
          segment != nullptr ? segment->header().next_version : 1;
      std::set<uint64_t> seen_versions;
      for (const LogRecord& record : image.records) {
        if (record.remove) continue;
        if (record.version < horizon) {
          reporter.Fatal("log upsert id " + std::to_string(record.id) +
                         ": version below the sealed generation's horizon");
        }
        if (!seen_versions.insert(record.version).second) {
          reporter.Fatal("log upsert id " + std::to_string(record.id) +
                         ": duplicate version");
        }
      }
      if (image.torn) {
        report->torn_tail_bytes = image.bytes.size() - image.truncated_at;
        reporter.Note("torn log tail: " +
                      std::to_string(report->torn_tail_bytes) +
                      " bytes past the last valid record");
        if (options.repair) {
          if (::truncate(path.c_str(),
                         static_cast<off_t>(image.truncated_at)) == 0) {
            report->repaired = true;
          } else {
            reporter.Fatal("repair: truncating the torn tail failed");
          }
        }
      }
    }
  }
  return true;
}

}  // namespace csj::persist
