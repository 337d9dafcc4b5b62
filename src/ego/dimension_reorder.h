#ifndef CSJ_EGO_DIMENSION_REORDER_H_
#define CSJ_EGO_DIMENSION_REORDER_H_

#include <vector>

#include "core/community.h"
#include "core/types.h"

namespace csj::ego {

/// SuperEGO's data-driven dimension reordering (Kalashnikov, VLDBJ'13).
///
/// For each dimension, builds a histogram of the normalized values of both
/// communities with bucket width ~= eps_norm and estimates the probability
/// that two random values land within one cell of each other — the chance
/// that an epsilon-grid test FAILS to prune on that dimension. Dimensions
/// are then ordered ascending by that failure probability so the most
/// selective dimensions come first, which is where the EGO sort and the
/// EGO strategy get their pruning power.
///
/// `max_count` is the normalization denominator (dataset-wide maximum);
/// bucket count is capped at `max_buckets` to bound memory when eps_norm
/// is tiny (the ordering only needs relative selectivity).
std::vector<Dim> ComputeDimensionOrder(const Community& b, const Community& a,
                                       Epsilon eps, Count max_count,
                                       uint32_t max_buckets = 4096);

/// The per-dimension failure probabilities ComputeDimensionOrder sorts
/// by: for each dimension, bit for bit the
/// util::Histogram::AdjacencyCollisionProbability of a histogram over
/// [0, 1] holding both communities' normalized values. It sums over the
/// occupied buckets only, in ascending bucket order, so its cost follows
/// the users rather than the bucket count.
std::vector<double> DimensionFailureProbabilities(const Community& b,
                                                  const Community& a,
                                                  Epsilon eps, Count max_count,
                                                  uint32_t max_buckets = 4096);

}  // namespace csj::ego

#endif  // CSJ_EGO_DIMENSION_REORDER_H_
