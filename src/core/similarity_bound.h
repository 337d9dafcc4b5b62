#ifndef CSJ_CORE_SIMILARITY_BOUND_H_
#define CSJ_CORE_SIMILARITY_BOUND_H_

#include <cstdint>
#include <span>

#include "core/community.h"
#include "core/types.h"

namespace csj {

/// Cheap upper bound on the EXACT CSJ matched-pair count — no
/// d-dimensional comparisons, no candidate graph.
///
/// Every eps-match <b, a> satisfies encoded_id(b) ∈ [encoded_min(a),
/// encoded_max(a)] (the MinMax window invariant), so the exact matching
/// can never exceed the maximum matching of the interval-point graph
/// {(b, a) : id_b ∈ window_a}. That relaxation is solved exactly by
/// IntervalPointMatching in O(n log n).
///
/// Use: pipeline screening. A brand comparing against thousands of
/// candidate communities can discard every couple whose bound is already
/// below the interesting similarity band before running ANY join — the
/// pipeline's `use_upper_bound_prune` does exactly this. The encoded ids
/// are user activity TOTALS, which real communities share, so on serving
/// data the bound sits near 1 for every couple; the top-k walk bounds
/// per dimension instead (core/dimension_reach.h).
uint32_t MatchingUpperBound(const Community& b, const Community& a,
                            Epsilon eps);

/// MatchingUpperBound / |B| — an upper bound on similarity(B, A). 0 when
/// B is empty.
double SimilarityUpperBound(const Community& b, const Community& a,
                            Epsilon eps);

/// The kernel behind the bound: the maximum matching between
/// `points` (ascending) and the windows [mins[i], maxs[i]] (ascending by
/// min). Points sweep upward with a min-heap of the open windows' maxes,
/// and each point takes the open window that closes first.
uint32_t IntervalPointMatching(std::span<const uint64_t> points,
                               std::span<const uint64_t> mins,
                               const uint64_t* maxs);

}  // namespace csj

#endif  // CSJ_CORE_SIMILARITY_BOUND_H_
