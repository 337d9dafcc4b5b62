#include "persist/fsck.h"

#include <dirent.h>
#include <unistd.h>

#include <memory>
#include <mutex>
#include <vector>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/log.h"
#include "persist/reader.h"
#include "persist/segment.h"
#include "service/deep_compare.h"
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

/// Payload CRCs (the check the zero-copy open path skips), then the
/// reader restore uses, whose error is the finding. With `deep`, every
/// entry's digest, sketch and MinMax artifacts are rebuilt from its
/// stored counters and compared with the reader's entry and sketch row.
void VerifySegment(const std::shared_ptr<MappedSegment>& segment, bool deep,
                   Reporter* reporter) {
  for (const SectionDesc& desc : segment->sections()) {
    if (Crc32c(segment->data() + desc.offset, desc.byte_size) != desc.crc) {
      reporter->Fatal(std::string("section ") + KindName(desc.kind) +
                      ": payload CRC mismatch");
      return;
    }
  }
  std::vector<service::CatalogEntry> entries;
  std::vector<const Count*> sketches;
  std::string error;
  if (!ReadSegmentEntries(segment, &entries, &sketches, &error)) {
    reporter->Fatal(error);
    return;
  }
  if (!deep) return;
  const SegmentHeader& header = segment->header();
  SignatureOptions sig_options;
  sig_options.quantiles = header.sig_quantiles;
  util::ThreadPool::Global().Run(
      static_cast<uint32_t>(entries.size()), [&](uint32_t i) {
        const service::CatalogEntry& stored = entries[i];
        const Community& community = *stored.community;
        service::CatalogEntry rebuilt = stored;
        rebuilt.digest = DigestCommunity(community);
        bool sketch_ok = true;
        if (!sketches.empty()) {
          const CommunitySignature sketch(community, sig_options);
          // Equal quantiles make the rebuilt table as long as the
          // mapped row the reader bounds-checked.
          const auto table = sketch.table();
          sketch_ok = sketch.quantiles() == header.sig_quantiles &&
                      std::equal(table.begin(), table.end(), sketches[i]);
        }
        if (stored.encodings != nullptr) {
          const Encoder encoder(community.d(), header.warm_eps,
                                header.warm_parts);
          auto encodings = std::make_shared<service::EntryEncodings>();
          encodings->encoded_b =
              std::make_shared<const EncodedB>(community, encoder);
          encodings->encoded_a =
              std::make_shared<const EncodedA>(community, encoder);
          rebuilt.encodings = std::move(encodings);
        }
        if (!sketch_ok || !service::EntriesIdentical(stored, rebuilt)) {
          reporter->Fatal("entry id " + std::to_string(stored.id) +
                          ": stored digest, sketch or MinMax artifacts "
                          "disagree with recomputation");
        }
      });
}

}  // namespace

bool FsckStore(const FsckOptions& options, FsckReport* report) {
  *report = FsckReport{};
  Reporter reporter{report, {}};

  // Superblock.
  const std::string superblock_path = options.dir + "/superblock.csj";
  Superblock superblock;
  bool present = false;
  std::string error;
  if (!ReadSuperblock(superblock_path, &superblock, &present, &error)) {
    reporter.Fatal(error);
    return true;
  }
  if (!present) {
    reporter.Fatal("superblock missing: " + superblock_path);
    return true;
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
    segment = MappedSegment::Map(
        options.dir + "/seg-" + std::to_string(report->generation) + ".csj",
        /*willneed=*/true, /*hugepages=*/false, &error);
    if (segment == nullptr) {
      reporter.Fatal(error);
    } else {
      report->segment_entries = segment->header().entry_count;
      VerifySegment(segment, options.deep, &reporter);
    }
  }

  // Log.
  {
    const std::string path =
        options.dir + "/log-" + std::to_string(report->generation) + ".csj";
    LogImage image;
    if (!ReadLog(path, report->generation, &image, &error)) {
      reporter.Fatal(error);
    } else if (image.present) {
      report->log_records = image.records.size();
      const uint64_t horizon =
          segment != nullptr ? segment->header().next_version : 1;
      if (!CheckLogVersions(image.records, horizon, &error)) {
        reporter.Fatal(error);
      }
      if (image.torn) {
        report->torn_tail_bytes = image.file_size - image.truncated_at;
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
