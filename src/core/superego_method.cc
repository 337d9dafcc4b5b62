#include "core/superego_method.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "core/encoding_cache.h"
#include "core/join_scratch.h"
#include "core/leaf_tasks.h"
#include "ego/dimension_reorder.h"
#include "ego/ego_join.h"
#include "ego/normalized.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csj {

namespace {

/// Everything both SuperEGO variants share — normalization, dimension
/// reorder, EGO sort, segment tree and the float verify window —
/// per side, fetched from the cache (built once per community and
/// parameter set) or built locally into the optionals.
struct Prepared {
  std::shared_ptr<const SuperEgoPrep> cached_b;
  std::shared_ptr<const SuperEgoPrep> cached_a;
  std::optional<SuperEgoPrep> local_b;
  std::optional<SuperEgoPrep> local_a;
  const SuperEgoPrep* b = nullptr;
  const SuperEgoPrep* a = nullptr;
};

Prepared PrepareSuperEgo(const Community& b, const Community& a,
                         const JoinOptions& options, JoinStats* stats) {
  CSJ_CHECK_EQ(b.d(), a.d());
  CSJ_CHECK_GT(options.eps, 0u);
  const uint32_t threshold = std::max<uint32_t>(options.superego_threshold, 2);
  Prepared prep;
  if (options.cache != nullptr) {
    const CommunityDigest digest_b = DigestCommunity(b);
    const CommunityDigest digest_a = DigestCommunity(a);
    // The digests carry the max counters, so the couple-level
    // normalization denominator needs no extra pass here.
    Count max_count = options.superego_norm_max;
    if (max_count == 0) {
      max_count = std::max(digest_b.max_counter, digest_a.max_counter);
      if (max_count == 0) max_count = 1;  // all-zero data still normalizes
    }
    const std::shared_ptr<const std::vector<Dim>> order =
        options.cache->GetDimensionOrder(b, a, digest_b, digest_a,
                                         options.eps, max_count, stats);
    const uint64_t order_hash = HashDimOrder(*order);
    prep.cached_b = options.cache->GetSuperEgoPrep(
        b, digest_b, options.eps, max_count, *order, order_hash, threshold,
        stats);
    prep.cached_a = options.cache->GetSuperEgoPrep(
        a, digest_a, options.eps, max_count, *order, order_hash, threshold,
        stats);
    prep.b = prep.cached_b.get();
    prep.a = prep.cached_a.get();
    return prep;
  }
  Count max_count = options.superego_norm_max;
  if (max_count == 0) {
    max_count = std::max(b.MaxCounter(), a.MaxCounter());
    if (max_count == 0) max_count = 1;  // all-zero data still normalizes
  }
  const std::vector<Dim> order =
      ego::ComputeDimensionOrder(b, a, options.eps, max_count);
  prep.local_b.emplace(
      BuildSuperEgoPrep(b, max_count, options.eps, order, threshold));
  prep.local_a.emplace(
      BuildSuperEgoPrep(a, max_count, options.eps, order, threshold));
  prep.b = &*prep.local_b;
  prep.a = &*prep.local_a;
  return prep;
}

void FoldEgoStats(const ego::EgoStats& ego_stats, JoinStats* stats) {
  // The EGO strategy plays the pruning role MIN/MAX PRUNE play in MinMax;
  // surface its activity through the same counters so the benches can
  // print one uniform stats row per method.
  stats->min_prunes = ego_stats.strategy_prunes;
  stats->csf_flushes += ego_stats.leaf_joins;
}

}  // namespace

JoinResult ApSuperEgoJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  util::Timer timer;
  JoinResult result;
  result.method = "Ap-SuperEGO";
  result.size_b = b.size();

  const Prepared prep = PrepareSuperEgo(b, a, options, &result.stats);
  const ego::NormalizedData& data_b = prep.b->data;
  const ego::NormalizedData& data_a = prep.a->data;
  // Match flags live in per-thread scratch: repeated screening joins
  // reuse their capacity instead of re-allocating.
  internal::JoinScratch& scratch = internal::GetJoinScratch();
  std::vector<uint8_t>& matched_b = scratch.matched_b;
  std::vector<uint8_t>& used_a = scratch.used_a;
  matched_b.assign(data_b.size(), 0);
  used_a.assign(data_a.size(), 0);

  ego::EgoStats ego_stats;
  const float eps_norm = data_b.eps_norm;
  LazyBatchVerifier<float, float> verifier;
  ego::EgoJoin(
      prep.b->tree, prep.a->tree,
      [&](uint32_t b_lo, uint32_t b_hi, uint32_t a_lo, uint32_t a_hi) {
        const bool batched = a_hi - a_lo >= kEpsilonBlock;
        for (uint32_t rb = b_lo; rb < b_hi; ++rb) {
          if (matched_b[rb]) continue;
          const std::span<const float> vb = data_b.Row(rb);
          if (batched) verifier.Start(prep.a->window, vb, eps_norm, a_hi);
          for (uint32_t ra = a_lo; ra < a_hi; ++ra) {
            if (used_a[ra]) continue;
            const bool match =
                batched ? verifier.Matches(ra)
                        : ego::EpsMatchesFloat(vb, data_a.Row(ra), eps_norm);
            result.stats.Count(match ? Event::kMatch : Event::kNoMatch);
            if (match) {
              matched_b[rb] = 1;
              used_a[ra] = 1;
              result.pairs.push_back(
                  MatchedPair{data_b.ids[rb], data_a.ids[ra]});
              break;  // Ap-Baseline leaf rule: first match ends this b
            }
          }
        }
      },
      &ego_stats);

  FoldEgoStats(ego_stats, &result.stats);
  result.stats.csf_flushes = 0;  // approximate: no matcher runs
  result.stats.seconds = timer.Seconds();
  return result;
}

JoinResult ExSuperEgoJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  util::Timer timer;
  JoinResult result;
  result.method = "Ex-SuperEGO";
  result.size_b = b.size();

  const Prepared prep = PrepareSuperEgo(b, a, options, &result.stats);
  const ego::NormalizedData& data_b = prep.b->data;
  const ego::NormalizedData& data_a = prep.a->data;
  ego::EgoStats ego_stats;
  const float eps_norm = data_b.eps_norm;

  // The recursion only prunes; the surviving leaves are scanned in
  // parallel chunks whose outputs merge in task order (serial-identical
  // results for any thread count).
  const std::vector<internal::LeafTask> tasks =
      internal::CollectLeafTasks(prep.b->tree, prep.a->tree, &ego_stats);
  const std::vector<MatchedPair>& candidates = internal::CollectCandidates(
      static_cast<uint32_t>(tasks.size()), options, &result.stats,
      [&](uint32_t task_begin, uint32_t task_end, internal::ChunkSlot& slot) {
        std::vector<MatchedPair>& local = slot.edges;
        JoinStats& stats = slot.stats;
        // Worker-thread scratch: leaves are at most `threshold` rows, so a
        // handful of mask words cover any run.
        std::vector<uint64_t>& mask = internal::GetJoinScratch().mask;
        for (uint32_t t = task_begin; t < task_end; ++t) {
          const internal::LeafTask& task = tasks[t];
          const uint32_t run = task.a_hi - task.a_lo;
          if (run >= kEpsilonBlock) {
            // Exact leaves want every verdict of the run, so each b row is
            // one kernel call; the survivor bitmask is walked in ascending
            // ra order (identical pair order) and the event tallies
            // collapse to popcounts.
            const uint32_t words = (run + 63) / 64;
            mask.resize(words);
            for (uint32_t rb = task.b_lo; rb < task.b_hi; ++rb) {
              EpsilonMatchesManyFloat(data_b.Row(rb), prep.a->window,
                                      task.a_lo, task.a_hi, eps_norm,
                                      mask.data());
              uint64_t found = 0;
              for (uint32_t w = 0; w < words; ++w) {
                uint64_t word = mask[w];
                found += static_cast<uint64_t>(std::popcount(word));
                while (word != 0) {
                  const uint32_t ra =
                      task.a_lo + w * 64 +
                      static_cast<uint32_t>(std::countr_zero(word));
                  local.push_back(
                      MatchedPair{data_b.ids[rb], data_a.ids[ra]});
                  word &= word - 1;
                }
              }
              stats.matches += found;
              stats.no_matches += run - found;
              stats.dimension_compares += run;
            }
            continue;
          }
          for (uint32_t rb = task.b_lo; rb < task.b_hi; ++rb) {
            const std::span<const float> vb = data_b.Row(rb);
            for (uint32_t ra = task.a_lo; ra < task.a_hi; ++ra) {
              const bool match =
                  ego::EpsMatchesFloat(vb, data_a.Row(ra), eps_norm);
              stats.Count(match ? Event::kMatch : Event::kNoMatch);
              if (match) {
                local.push_back(MatchedPair{data_b.ids[rb], data_a.ids[ra]});
              }
            }
          }
        }
      });

  FoldEgoStats(ego_stats, &result.stats);
  internal::MatchCandidates(candidates, options.matcher, &result);
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace csj
