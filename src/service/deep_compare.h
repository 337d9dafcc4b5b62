#ifndef CSJ_SERVICE_DEEP_COMPARE_H_
#define CSJ_SERVICE_DEEP_COMPARE_H_

#include "core/types.h"
#include "service/catalog.h"

namespace csj::service {

/// Deep byte-identity between two quiesced catalogs: entries (id,
/// version, digest, counters, MinMax artifact bytes, sketch bytes) AND
/// signature-index layout.
/// Pack layout is compared through per-shard probes — an inert probe
/// (threshold 0) enumerates every slot in pack/slot order, so identical
/// candidate SEQUENCES plus identical sweep stats pin the physical
/// layout; a thresholded probe additionally exercises the pack
/// prefilter on both sides. ProbeCandidates cannot stand in for the
/// layout half because it re-sorts candidates by id.
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
