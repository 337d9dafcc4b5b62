#ifndef CSJ_CORE_DIMENSION_REACH_H_
#define CSJ_CORE_DIMENSION_REACH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/community.h"
#include "core/types.h"

namespace csj {

/// A per-dimension filter built once from a query community and eps, in
/// the deterministic locality-sensitive FILTERING sense of LSF-Join: for
/// every dimension k it holds R_k, the counter values within eps of SOME
/// query user's counter in k. A user of another community is REACHABLE
/// when its counter lies in R_k for every k.
///
/// Why it bounds every CSJ matching (docs/ALGORITHMS.md §6b): a matched
/// pair <q, u> agrees within eps in every dimension, so q witnesses
/// u[k] ∈ R_k for every k, and every matched user of the other side is
/// reachable. Matched pairs are disjoint, hence for any method's matching
///     matched <= min(CountReachable(other), |B|)
/// whichever side of the couple the query plays.
///
/// Representation. R_k is the union of the intervals [q - eps, q + eps]
/// over the query's column k, merged and sorted. A dimension is held as a
/// bitmap over [0, max_k + eps] (one bit test per counter) or, when its
/// bitmap does not fit the memory budget, as the merged intervals (binary
/// search). A dimension whose R_k covers every counter value filters
/// nothing and is dropped. The heap state stays within kMemoryMultiple
/// times the query's own counter bytes whatever counters, eps or d the
/// query carries (it may come off the wire). Bitmaps are filled word by
/// word from the merged intervals, so building costs O(n d log n) plus
/// the bitmap words, never a step per value of eps.
///
/// CountReachable tests the dimensions in ascending density (the share of
/// [0, max_k + eps] that R_k covers), sparsest first, and drops a user at
/// its first miss. Immutable and thread-safe once built.
class DimensionReach {
 public:
  /// MemoryBytes() <= kMemoryMultiple * query.size() * query.d() *
  /// sizeof(Count).
  static constexpr size_t kMemoryMultiple = 8;

  DimensionReach(const Community& query, Epsilon eps);

  /// The users of `other` whose counter lies in R_k for every dimension
  /// k. `other` must share the query's dimensionality. 0 for an empty
  /// query.
  uint32_t CountReachable(const Community& other) const;

  /// Starts loading the rows CountReachable(other) reads, so a caller
  /// bounding many communities can overlap the next one's memory latency
  /// with the current one's count. Touches at most the first 8 KiB.
  static void Prefetch(const Community& other);

  /// Heap bytes held by the filters.
  size_t MemoryBytes() const;

  /// Dimensions held as bitmaps and as interval lists; the query's other
  /// dimensions are unfiltered.
  uint32_t bitmap_dims() const { return bitmap_dims_; }
  uint32_t search_dims() const;

 private:
  /// An inclusive range of counter values.
  struct Interval {
    Count lo = 0;
    Count hi = 0;
  };
  /// One filtered dimension: `size` words of bits_ or intervals of
  /// intervals_, starting at `begin`.
  struct Filter {
    Dim dim = 0;
    uint32_t begin = 0;
    uint32_t size = 0;
    bool bitmap = false;
  };

  /// Prefetch's reach into a community's rows.
  static constexpr size_t kPrefetchBytes = 8192;

  bool Reachable(const Count* row) const;

  Dim d_;
  bool empty_query_;
  uint32_t bitmap_dims_ = 0;
  std::vector<Filter> filters_;  ///< ascending density
  std::vector<uint64_t> bits_;
  std::vector<Interval> intervals_;
};

}  // namespace csj

#endif  // CSJ_CORE_DIMENSION_REACH_H_
