#ifndef CSJ_PIPELINE_SCREENING_H_
#define CSJ_PIPELINE_SCREENING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/community.h"
#include "core/join_options.h"
#include "core/method.h"

namespace csj::pipeline {

/// The paper's two-phase usage of CSJ (§3): "the usage of approximate
/// method is to fast find a group of similar-enough community pairs for
/// impending precise similarity computation. When such a group is found,
/// the exact method applies... the time-consuming exact method uses the
/// results of fast approximate method as input to alleviate its total
/// execution overhead."
///
/// This module packages that workflow: screen every candidate couple with
/// an approximate method, keep the ones above a threshold, refine those
/// with an exact method, and return a ranking.
struct PipelineOptions {
  Method screen_method = Method::kApMinMax;
  Method refine_method = Method::kExMinMax;

  /// Couples whose screened similarity reaches this survive to the exact
  /// phase (the paper's "similar-enough group").
  double screen_threshold = 0.15;

  /// Refine at most this many of the best-screened survivors (0 = all).
  uint32_t refine_top_k = 0;

  /// Before ANY join, discard couples whose bound min(CountReachable(y),
  /// |B|) / |B| is already below `screen_threshold` — the top-k walk's
  /// bound (core/dimension_reach.h), with the pivot (all-pairs:
  /// community i of couple (i, j)) as the query, one DimensionReach per
  /// querying community. Safe with respect to both phases: the bound
  /// dominates every method's similarity. A threshold <= 0 prunes
  /// nothing, so no reach is built.
  bool use_upper_bound_prune = true;

  /// Couples processed concurrently in the screen and refine phases.
  /// 1 (the default) runs the pipeline serially with no pool
  /// interaction. N > 1 executes independent couples on the persistent
  /// thread pool, scheduled MOST-EXPENSIVE-FIRST by the estimated join
  /// work |B|·|A|·d (EstimatedCoupleCost) so one skewed giant couple
  /// cannot serialize the tail. Any value produces byte-identical
  /// reports: every couple computes the same similarity in isolation and
  /// aggregation happens in candidate order (see docs/API.md,
  /// "Execution & parallelism").
  ///
  /// Composes with `join.join_threads` (intra-join chunking): the
  /// pipeline clamps the per-join thread count to the NestedJoinThreads
  /// budget so couples × chunks never outgrows the pool.
  uint32_t pipeline_threads = 1;

  /// Join parameters shared by both phases. `join.pool` (null =
  /// ThreadPool::Global()) runs the couples as well as each join's
  /// chunks and segment tasks. `join.cache`, when set, is shared by both
  /// phases (and, when the caller keeps it across runs, by successive
  /// pipeline runs): each community's encoded buffers are built once per
  /// parameter set instead of once per couple. Not owned; both must
  /// outlive the run.
  JoinOptions join;
};

/// One candidate comparison's outcome.
struct PipelineEntry {
  uint32_t candidate_index = 0;   ///< position in the input candidate list
  std::string candidate_name;     ///< Community::name of the candidate
  double screened_similarity = 0.0;
  bool refined = false;           ///< did it survive the screen?
  double refined_similarity = 0.0;  ///< valid when `refined`
  double screen_seconds = 0.0;
  double refine_seconds = 0.0;

  /// The ranking key: exact similarity when available, else the screen.
  double FinalSimilarity() const {
    return refined ? refined_similarity : screened_similarity;
  }
};

/// Aggregate outcome of one pipeline run.
struct PipelineReport {
  std::vector<PipelineEntry> entries;  ///< sorted by FinalSimilarity desc
  uint32_t screened = 0;               ///< candidates screened with a join
  uint32_t refined = 0;                ///< candidates exactly recomputed
  uint32_t inadmissible = 0;           ///< rejected by the CSJ size rule
  uint32_t bound_pruned = 0;           ///< discarded by the upper bound
  /// Wall-clock for the whole pipeline run.
  double total_seconds = 0.0;
  /// Sums of the per-entry join times, accumulated in candidate order
  /// (deterministic). These are thread-seconds: with pipeline_threads > 1
  /// they can exceed total_seconds — that surplus IS the parallel win.
  double screen_seconds = 0.0;
  double refine_seconds = 0.0;
  /// Thread-seconds the refine phase spent inside the one-to-one matcher
  /// (summed JoinStats::matching_seconds of every refined couple, in
  /// survivor order). The matcher share of refine_seconds — what the
  /// matching_threads knob can attack.
  double matching_seconds = 0.0;
  /// Wall-clock of each phase as the submitting thread saw it (screen =
  /// enumerate + screen joins; refine = survivor selection + exact joins
  /// + ranking). Unlike the thread-second sums above these SHRINK when
  /// parallelism wins — the numbers bench_pipeline's scaling check reads.
  double screen_wall_seconds = 0.0;
  double refine_wall_seconds = 0.0;
  /// Encoding-cache totals over every join of the run (0 when no cache is
  /// wired). The TOTALS are deterministic for any pipeline_threads —
  /// misses count builds, and with build deduplication the build set is a
  /// data property — but which couple pays each miss is scheduling-
  /// dependent, which is why there are no per-entry counters.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes_built = 0;
};

/// Compares `pivot` against every candidate (the brand-recommendation
/// shape: one brand vs many potential partners). Each couple is ordered
/// automatically (smaller side plays B); couples violating the
/// ceil(|A|/2) <= |B| <= |A| rule are counted as inadmissible and get no
/// entry. Candidates may be any mix of sizes; null pointers are not
/// allowed.
PipelineReport ScreenAndRefine(const Community& pivot,
                               const std::vector<const Community*>& candidates,
                               const PipelineOptions& options);

/// All-pairs variant (the broadcast-recommendation shape, paper case
/// ii.b): screens every unordered pair of `communities` and refines the
/// survivors. `candidate_index` encodes the pair as i * n + j (i < j).
PipelineReport ScreenAndRefineAllPairs(
    const std::vector<const Community*>& communities,
    const PipelineOptions& options);

/// Splits an all-pairs `candidate_index` back into (i, j).
void DecodePairIndex(uint32_t candidate_index, uint32_t n, uint32_t* i,
                     uint32_t* j);

/// Scheduling cost proxy for one couple: |x|·|y|·d. The quadratic methods
/// do exactly |B|·|A| candidate tests of d dimensions each, and the
/// pruned methods are monotone in that product — whereas member count
/// alone ranks a 12×12 d=1 couple above a 10×10 d=100 one that costs
/// ~70x more. Used by the pipeline's most-expensive-first order.
uint64_t EstimatedCoupleCost(const Community& x, const Community& y);

/// Indices of `couples`, most expensive first by EstimatedCoupleCost
/// (ties broken by position — a stable order). The order of the
/// pipeline's screen and refine phases and of the top-k walk's refine
/// waves; exposed so the policy is testable without timing a run.
std::vector<uint32_t> CostAwareOrder(
    const std::vector<std::pair<const Community*, const Community*>>& couples);

/// The nesting budget: how many intra-join threads each couple may use
/// when the pipeline is already running `pipeline_threads` couples
/// concurrently on a pool of `pool_threads`. With C couples in flight
/// (at most min(pipeline_threads, couples)), each join gets its fair
/// share pool_threads / C of the pool, never less than 1 and never more
/// than `requested`. A single couple therefore inherits the whole pool —
/// the case intra-join parallelism exists for. Chunk counts change with
/// the budget but results do not (the deterministic-merge contract).
uint32_t NestedJoinThreads(uint32_t requested, uint32_t pipeline_threads,
                           uint32_t pool_threads, uint32_t couples);

}  // namespace csj::pipeline

#endif  // CSJ_PIPELINE_SCREENING_H_
