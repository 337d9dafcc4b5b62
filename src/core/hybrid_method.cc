#include "core/hybrid_method.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/epsilon_predicate.h"
#include "core/join_scratch.h"
#include "core/leaf_tasks.h"
#include "ego/dimension_reorder.h"
#include "ego/ego_join.h"
#include "ego/integer_grid.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csj {

namespace {

/// Everything both hybrid variants share: the integer grids, their
/// segment trees, and the MinMax encoded-filter sidecars aligned to grid
/// row order. The encoding is computed over the PERMUTED dimensions —
/// both sides use the same permutation, so the per-dimension matching
/// guarantee (and thus the filter's no-false-dismissal property) is
/// unaffected.
struct HybridPrepared {
  ego::IntegerGridData b;
  ego::IntegerGridData a;
  ego::SegmentTree tree_b;
  ego::SegmentTree tree_a;
  uint32_t parts = 0;

  // Per B row: encoded id and part sums (rows * parts).
  std::vector<uint64_t> b_id;
  std::vector<uint64_t> b_sums;
  // Per A row: encoded min/max and part ranges (rows * parts).
  std::vector<uint64_t> a_min;
  std::vector<uint64_t> a_max;
  std::vector<uint64_t> a_lo;
  std::vector<uint64_t> a_hi;

  // A's grid rows as an SoA window for batched leaf verification. The
  // grids themselves are couple-shaped (the dimension permutation is
  // couple-driven) and stay uncached; only the dimension order goes
  // through the encoding cache.
  VerifyWindow window_a;

  /// The MinMax filter for one (B row, A row) pair.
  bool EncodedFilterPasses(uint32_t rb, uint32_t ra) const {
    const uint64_t id = b_id[rb];
    if (id < a_min[ra] || id > a_max[ra]) return false;
    const size_t bo = static_cast<size_t>(rb) * parts;
    const size_t ao = static_cast<size_t>(ra) * parts;
    for (uint32_t p = 0; p < parts; ++p) {
      const uint64_t sum = b_sums[bo + p];
      if (sum < a_lo[ao + p] || sum > a_hi[ao + p]) return false;
    }
    return true;
  }
};

HybridPrepared PrepareHybrid(const Community& b, const Community& a,
                             const JoinOptions& options, JoinStats* stats) {
  CSJ_CHECK_EQ(b.d(), a.d());
  const Epsilon eps = std::max<Epsilon>(options.eps, 1);
  std::shared_ptr<const std::vector<Dim>> cached_order;
  std::vector<Dim> local_order;
  const std::vector<Dim>* order;
  if (options.cache != nullptr) {
    // Reuse the couple's cached reorder; the digests also carry the max
    // counters, sparing the two MaxCounter passes.
    const CommunityDigest digest_b = DigestCommunity(b);
    const CommunityDigest digest_a = DigestCommunity(a);
    Count max_count = std::max(digest_b.max_counter, digest_a.max_counter);
    if (max_count == 0) max_count = 1;
    cached_order = options.cache->GetDimensionOrder(
        b, a, digest_b, digest_a, eps, max_count, stats);
    order = cached_order.get();
  } else {
    Count max_count = std::max(b.MaxCounter(), a.MaxCounter());
    if (max_count == 0) max_count = 1;
    local_order = ego::ComputeDimensionOrder(b, a, eps, max_count);
    order = &local_order;
  }

  ego::IntegerGridData grid_b = ego::BuildIntegerGrid(b, eps, *order);
  ego::IntegerGridData grid_a = ego::BuildIntegerGrid(a, eps, *order);
  const uint32_t threshold = std::max<uint32_t>(options.superego_threshold, 2);
  ego::SegmentTree tree_b(ego::CellsOf(grid_b), threshold);
  ego::SegmentTree tree_a(ego::CellsOf(grid_a), threshold);

  HybridPrepared prep{std::move(grid_b), std::move(grid_a),
                      std::move(tree_b), std::move(tree_a),
                      /*parts=*/0,       {}, {}, {}, {}, {}, {}, {}};
  prep.window_a.Assign(prep.a.size(), b.d(),
                       [&](uint32_t row) { return prep.a.Row(row); });

  if (options.hybrid_encoded_leaf) {
    const Encoder encoder(b.d(), options.eps, options.encoding_parts);
    prep.parts = encoder.parts();
    const uint32_t nb = prep.b.size();
    prep.b_id.resize(nb);
    prep.b_sums.resize(static_cast<size_t>(nb) * prep.parts);
    for (uint32_t row = 0; row < nb; ++row) {
      const std::span<const Count> vec = prep.b.Row(row);
      prep.b_id[row] = encoder.EncodedId(vec);
      encoder.PartSumsInto(
          vec, {prep.b_sums.data() + static_cast<size_t>(row) * prep.parts,
                prep.parts});
    }
    const uint32_t na = prep.a.size();
    prep.a_min.resize(na);
    prep.a_max.resize(na);
    prep.a_lo.resize(static_cast<size_t>(na) * prep.parts);
    prep.a_hi.resize(static_cast<size_t>(na) * prep.parts);
    for (uint32_t row = 0; row < na; ++row) {
      const size_t offset = static_cast<size_t>(row) * prep.parts;
      const std::span<uint64_t> lo{prep.a_lo.data() + offset, prep.parts};
      const std::span<uint64_t> hi{prep.a_hi.data() + offset, prep.parts};
      encoder.PartRangesInto(prep.a.Row(row), lo, hi);
      uint64_t min_sum = 0;
      uint64_t max_sum = 0;
      for (uint32_t p = 0; p < prep.parts; ++p) {
        min_sum += lo[p];
        max_sum += hi[p];
      }
      prep.a_min[row] = min_sum;
      prep.a_max[row] = max_sum;
    }
  }
  return prep;
}

}  // namespace

JoinResult ApMinMaxEgoJoin(const Community& b, const Community& a,
                           const JoinOptions& options) {
  util::Timer timer;
  JoinResult result;
  result.method = "Ap-MinMaxEGO";
  result.size_b = b.size();

  const HybridPrepared prep = PrepareHybrid(b, a, options, &result.stats);
  const bool use_filter = options.hybrid_encoded_leaf;
  const Epsilon eps = options.eps;
  // Match flags live in per-thread scratch, reused across joins.
  internal::JoinScratch& scratch = internal::GetJoinScratch();
  std::vector<uint8_t>& matched_b = scratch.matched_b;
  std::vector<uint8_t>& used_a = scratch.used_a;
  matched_b.assign(prep.b.size(), 0);
  used_a.assign(prep.a.size(), 0);

  ego::EgoStats ego_stats;
  LazyBatchVerifier<Count, Epsilon> verifier;
  ego::EgoJoin(
      prep.tree_b, prep.tree_a,
      [&](uint32_t b_lo, uint32_t b_hi, uint32_t a_lo, uint32_t a_hi) {
        const bool batched = a_hi - a_lo >= kEpsilonBlock;
        for (uint32_t rb = b_lo; rb < b_hi; ++rb) {
          if (matched_b[rb]) continue;
          const std::span<const Count> vb = prep.b.Row(rb);
          if (batched) verifier.Start(prep.window_a, vb, eps, a_hi);
          for (uint32_t ra = a_lo; ra < a_hi; ++ra) {
            if (used_a[ra]) continue;
            if (use_filter && !prep.EncodedFilterPasses(rb, ra)) {
              result.stats.Count(Event::kNoOverlap);
              continue;
            }
            const bool match = batched
                                   ? verifier.Matches(ra)
                                   : EpsilonMatches(vb, prep.a.Row(ra), eps);
            result.stats.Count(match ? Event::kMatch : Event::kNoMatch);
            if (match) {
              matched_b[rb] = 1;
              used_a[ra] = 1;
              result.pairs.push_back(
                  MatchedPair{prep.b.ids[rb], prep.a.ids[ra]});
              break;
            }
          }
        }
      },
      &ego_stats);

  result.stats.min_prunes = ego_stats.strategy_prunes;
  result.stats.seconds = timer.Seconds();
  return result;
}

JoinResult ExMinMaxEgoJoin(const Community& b, const Community& a,
                           const JoinOptions& options) {
  util::Timer timer;
  JoinResult result;
  result.method = "Ex-MinMaxEGO";
  result.size_b = b.size();

  const HybridPrepared prep = PrepareHybrid(b, a, options, &result.stats);
  const bool use_filter = options.hybrid_encoded_leaf;
  const Epsilon eps = options.eps;

  // Like Ex-SuperEGO: prune with the recursion, then scan the surviving
  // leaves in parallel chunks merged in task order.
  ego::EgoStats ego_stats;
  const std::vector<internal::LeafTask> tasks =
      internal::CollectLeafTasks(prep.tree_b, prep.tree_a, &ego_stats);
  const std::vector<MatchedPair>& candidates = internal::CollectCandidates(
      static_cast<uint32_t>(tasks.size()), options, &result.stats,
      [&](uint32_t task_begin, uint32_t task_end, internal::ChunkSlot& slot) {
        // The encoded filter punches holes in the run, so the lazy
        // chunked verifier (which only spends kernel lanes on queried
        // regions) fits better than a full-run mask here.
        LazyBatchVerifier<Count, Epsilon> verifier;
        for (uint32_t t = task_begin; t < task_end; ++t) {
          const internal::LeafTask& task = tasks[t];
          const bool batched = task.a_hi - task.a_lo >= kEpsilonBlock;
          for (uint32_t rb = task.b_lo; rb < task.b_hi; ++rb) {
            const std::span<const Count> vb = prep.b.Row(rb);
            if (batched) verifier.Start(prep.window_a, vb, eps, task.a_hi);
            for (uint32_t ra = task.a_lo; ra < task.a_hi; ++ra) {
              if (use_filter && !prep.EncodedFilterPasses(rb, ra)) {
                slot.stats.Count(Event::kNoOverlap);
                continue;
              }
              const bool match = batched
                                     ? verifier.Matches(ra)
                                     : EpsilonMatches(vb, prep.a.Row(ra), eps);
              slot.stats.Count(match ? Event::kMatch : Event::kNoMatch);
              if (match) {
                slot.edges.push_back(
                    MatchedPair{prep.b.ids[rb], prep.a.ids[ra]});
              }
            }
          }
        }
      });

  result.stats.min_prunes = ego_stats.strategy_prunes;
  internal::MatchCandidates(candidates, options.matcher, &result);
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace csj
