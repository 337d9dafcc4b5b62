#ifndef CSJ_PERSIST_FSCK_H_
#define CSJ_PERSIST_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace csj::persist {

struct FsckOptions {
  std::string dir;
  /// Recompute derived artifacts (digests, sketches, MinMax encodings)
  /// from the stored counters and compare them with the stored entries.
  /// Catches writer bugs and semantic drift that CRCs cannot (CRCs
  /// prove the bytes are what was written, recomputation proves what was
  /// written is what the builders produce today).
  bool deep = true;
  /// Truncate a torn log tail in place (the only mutation fsck ever
  /// performs; everything else is strictly read-only).
  bool repair = false;
};

/// One verifier finding. `fatal` findings mean the store must not be
/// served; non-fatal ones (a torn log tail, leftover files from an
/// interrupted checkpoint) are expected crash residue that open-time
/// recovery handles.
struct FsckFinding {
  bool fatal = false;
  std::string message;
};

struct FsckReport {
  std::vector<FsckFinding> findings;
  uint64_t generation = 0;
  uint64_t segment_entries = 0;
  uint64_t log_records = 0;
  uint64_t torn_tail_bytes = 0;
  bool repaired = false;

  bool clean() const {
    for (const FsckFinding& finding : findings) {
      if (finding.fatal) return false;
    }
    return true;
  }
};

/// Offline store verifier: walks superblock → segment → log. Structural
/// pass: the superblock and segment magics and header/section-table CRCs
/// (the reads Store::Open makes), the SECTION PAYLOAD CRCs (the check the
/// zero-copy open path skips), then the segment reader and log-version
/// rule Store::RestoreInto applies (reader.h), whose errors become fatal
/// findings; the log's record framing and CRCs on the way. The
/// structural pass thus refuses what restore refuses, plus payload CRC
/// mismatches. With `deep` it additionally rebuilds each entry's digest,
/// sketch table and MinMax encodings from the stored counters and
/// requires them to equal the stored entry (service::EntriesIdentical).
///
/// Returns false only when the directory cannot be walked at all;
/// corruption is reported through the findings.
bool FsckStore(const FsckOptions& options, FsckReport* report);

}  // namespace csj::persist

#endif  // CSJ_PERSIST_FSCK_H_
