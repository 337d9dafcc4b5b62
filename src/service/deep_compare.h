#ifndef CSJ_SERVICE_DEEP_COMPARE_H_
#define CSJ_SERVICE_DEEP_COMPARE_H_

#include "core/types.h"
#include "service/catalog.h"

namespace csj::service {

/// Deep byte-identity of two entries: id, version, digest, counters and
/// MinMax artifact bytes (both sides hold artifacts, or neither does).
/// CatalogsIdentical applies it to every entry pair.
bool EntriesIdentical(const CatalogEntry& lhs, const CatalogEntry& rhs);

/// Deep byte-identity between two quiesced catalogs: every entry pair
/// (EntriesIdentical, and SketchAt bytes), the shard count, and the
/// sketch layer. An entry without artifacts is compared with the
/// artifacts its catalog would build for it (BuildEntryEncodings under
/// its warm parameters, not published), so whether a first refine has
/// run yet never makes two catalogs differ, while every artifact column
/// is still compared. The sketch layer is compared through
/// ProbeCandidates on both sides with
/// three catalog entries as queries: an inert probe (threshold 0) must
/// examine every entry and pass the same (id, version) list on both
/// sides, and a probe at `threshold` must pass the same list with the
/// same examined, passed and skipped_* counts (the pack prefilter too).
/// packs_skipped is not compared: how slots group into packs depends on
/// insertion history.
///
/// The in-RAM mutation journal is deliberately NOT compared: it is
/// bounded history, not state — a restored catalog starts with an empty
/// journal and consumers resynchronize via mutation_seq() cursors.
///
/// This is the identity oracle shared by the bulk-load tests, the
/// persist tests (round trip, crash injection, a drifted catalog restored
/// from checkpoints and log replay) and perfbench's cold-reopen check.
bool CatalogsIdentical(const CommunityCatalog& lhs,
                       const CommunityCatalog& rhs, Epsilon eps,
                       double threshold);

}  // namespace csj::service

#endif  // CSJ_SERVICE_DEEP_COMPARE_H_
