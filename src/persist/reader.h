#ifndef CSJ_PERSIST_READER_H_
#define CSJ_PERSIST_READER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "persist/format.h"
#include "persist/log.h"
#include "persist/segment.h"
#include "service/catalog.h"

namespace csj::persist {

/// The readers Store::RestoreInto and FsckStore share: one definition of
/// each rule a store must satisfy, so restore refuses exactly what
/// fsck's structural pass refuses (payload CRCs aside, which only fsck
/// reads).

/// Reads and validates `path` (magic, format version, CRC). A missing
/// file is not an error: `*present` stays false.
bool ReadSuperblock(const std::string& path, Superblock* superblock,
                    bool* present, std::string* error);

/// The column lengths one catalog entry occupies in a segment. They are
/// a pure function of (d, users, warm_parts, quantiles), so a segment
/// stores none of them: the checkpoint lays its prefix sums out with
/// this and the reader requires every prefix step to equal it.
struct EntryLayout {
  uint64_t counts = 0;  ///< users * d counters
  uint64_t sketch = 0;  ///< d * (quantiles + 1) sketch-table values
  uint32_t parts = 0;   ///< warm_parts clamped to [1, d], as Encoder does
  uint64_t sums = 0;    ///< users * parts part sums (2x in kEncACols)
  uint64_t window = 0;  ///< VerifyWindow::PaddedCount(users, d)
};
EntryLayout LayoutOf(Dim d, uint32_t users, uint32_t warm_parts,
                     uint32_t quantiles);

/// Binds every column of `segment` and checks the structural rules the
/// zero-copy views depend on: column lengths against the header's entry
/// count, strictly ascending ids, unique versions in [1, next_version),
/// d >= 1 and 1 <= users < 2^32, every prefix starting at 0 and stepping
/// by the entry's LayoutOf length, and every prefix total against its
/// column. Then builds one view-backed CatalogEntry per stored entry, in
/// id order, on the thread pool: community, digest and MinMax artifacts
/// (when kSegHasEncodings), all pinned by the mapping, and with
/// kSegHasSignatures each entry's mapped sketch row in `*sketches`.
/// Returns false with `*error` naming the first broken rule; `*entries`
/// and `*sketches` are then empty.
bool ReadSegmentEntries(const std::shared_ptr<MappedSegment>& segment,
                        std::vector<service::CatalogEntry>* entries,
                        std::vector<const Count*>* sketches,
                        std::string* error);

/// The log-version rule: every upsert's version lies in [horizon,
/// 2^64 - 1) and no two upserts share one. `horizon` is the sealed
/// segment's next_version (1 without a segment).
bool CheckLogVersions(std::span<const LogRecord> records, uint64_t horizon,
                      std::string* error);

}  // namespace csj::persist

#endif  // CSJ_PERSIST_READER_H_
