#include "pipeline/screening.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/similarity.h"
#include "core/similarity_bound.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::pipeline {

namespace {

/// Outcome of attempting to screen one couple.
enum class ScreenOutcome { kInadmissible, kBoundPruned, kScreened };

/// One candidate couple, enumerated up front so the screen phase can
/// process couples in any order while reporting stays in candidate order.
struct CoupleTask {
  const Community* x = nullptr;
  const Community* y = nullptr;
  uint32_t candidate_index = 0;
  std::string candidate_name;
};

/// The screen phase's per-couple output slot, indexed like the tasks.
/// Cache counters ride here rather than in PipelineEntry: which couple
/// pays a build is scheduling-dependent, so only their candidate-order
/// SUMS go into the report.
struct ScreenSlot {
  ScreenOutcome outcome = ScreenOutcome::kInadmissible;
  PipelineEntry entry;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes_built = 0;
};

/// Indices of `tasks`, most expensive first (ties: candidate order).
/// Couple costs vary wildly in real catalogs; starting the giants first
/// lets the cheap couples backfill idle workers instead of a giant
/// landing last and serializing the tail.
std::vector<uint32_t> MostExpensiveFirstOrder(
    const std::vector<CoupleTask>& tasks) {
  std::vector<uint32_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t l, uint32_t r) {
    return EstimatedCoupleCost(*tasks[l].x, *tasks[l].y) >
           EstimatedCoupleCost(*tasks[r].x, *tasks[r].y);
  });
  return order;
}

/// Runs body(order[k]) for every k — serially in that order when
/// pipeline_threads <= 1, else on `options.join.pool` (already resolved)
/// with work items claimed dynamically in `order`'s sequence.
void RunCoupleTasks(const PipelineOptions& options,
                    const std::vector<uint32_t>& order,
                    const std::function<void(uint32_t)>& body) {
  if (options.pipeline_threads <= 1 || order.size() <= 1) {
    for (const uint32_t index : order) body(index);
    return;
  }
  options.join.pool->Run(static_cast<uint32_t>(order.size()),
                         [&](uint32_t k) { body(order[k]); },
                         options.pipeline_threads);
}

/// Screens one ordered couple (after the optional upper-bound gate).
ScreenOutcome ScreenCouple(const Community& x, const Community& y,
                           const PipelineOptions& options, ScreenSlot* slot) {
  if (options.use_upper_bound_prune) {
    const Community& b = x.size() <= y.size() ? x : y;
    const Community& a = x.size() <= y.size() ? y : x;
    if (!SizesAdmissible(b.size(), a.size())) {
      return ScreenOutcome::kInadmissible;
    }
    if (SimilarityUpperBound(b, a, options.join.eps) <
        options.screen_threshold) {
      return ScreenOutcome::kBoundPruned;
    }
  }
  const auto screened = ComputeSimilarityAutoOrder(options.screen_method, x,
                                                   y, options.join);
  if (!screened.has_value()) return ScreenOutcome::kInadmissible;
  slot->entry.screened_similarity = screened->Similarity();
  slot->entry.screen_seconds = screened->stats.seconds;
  slot->cache_hits = screened->stats.cache_hits;
  slot->cache_misses = screened->stats.cache_misses;
  slot->cache_bytes_built = screened->stats.cache_bytes_built;
  return ScreenOutcome::kScreened;
}

/// Runs the exact phase over the survivors (already screened entries) and
/// sorts the final ranking. Survivor selection, aggregation and the sort
/// are serial and depend only on the entries, so the ranking is
/// byte-identical for every pipeline_threads.
void RefineAndRank(
    const std::vector<std::pair<const Community*, const Community*>>& couples,
    const PipelineOptions& options, PipelineReport* report) {
  util::Timer wall;
  // Survivors in descending screened order so refine_top_k keeps the best.
  std::vector<size_t> survivors;
  for (size_t i = 0; i < report->entries.size(); ++i) {
    if (report->entries[i].screened_similarity >= options.screen_threshold) {
      survivors.push_back(i);
    }
  }
  // Ties at the refine_top_k boundary break by candidate order: which of
  // two equally-screened candidates gets the k-th refine slot must be a
  // function of the data, not of introsort's permutation — that is what
  // keeps the refined ranking identical when use_upper_bound_prune
  // shifts entry indices (pipeline_test's prune on/off differential).
  std::sort(survivors.begin(), survivors.end(), [&](size_t x, size_t y) {
    if (report->entries[x].screened_similarity !=
        report->entries[y].screened_similarity) {
      return report->entries[x].screened_similarity >
             report->entries[y].screened_similarity;
    }
    return report->entries[x].candidate_index <
           report->entries[y].candidate_index;
  });
  if (options.refine_top_k > 0 && survivors.size() > options.refine_top_k) {
    survivors.resize(options.refine_top_k);
  }

  // Refine concurrently, most expensive couple first; each survivor owns
  // its entry slot (and cache-counter slot), so writes never race.
  std::vector<uint32_t> order(survivors.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t l, uint32_t r) {
    const auto cost = [&](uint32_t s) {
      const auto& [x, y] = couples[survivors[s]];
      return EstimatedCoupleCost(*x, *y);
    };
    return cost(l) > cost(r);
  });
  std::vector<JoinStats> refine_stats(survivors.size());
  RunCoupleTasks(options, order, [&](uint32_t s) {
    PipelineEntry& entry = report->entries[survivors[s]];
    const auto& [x, y] = couples[survivors[s]];
    const auto refined = ComputeSimilarityAutoOrder(options.refine_method,
                                                    *x, *y, options.join);
    CSJ_CHECK(refined.has_value());  // admissibility already screened
    entry.refined = true;
    entry.refined_similarity = refined->Similarity();
    entry.refine_seconds = refined->stats.seconds;
    refine_stats[s] = refined->stats;
  });

  // Aggregate in survivor order: deterministic counters and timing sums.
  report->refined += static_cast<uint32_t>(survivors.size());
  for (const size_t index : survivors) {
    report->refine_seconds += report->entries[index].refine_seconds;
  }
  for (const JoinStats& stats : refine_stats) {
    report->cache_hits += stats.cache_hits;
    report->cache_misses += stats.cache_misses;
    report->cache_bytes_built += stats.cache_bytes_built;
    report->matching_seconds += stats.matching_seconds;
  }

  std::sort(report->entries.begin(), report->entries.end(),
            [](const PipelineEntry& x, const PipelineEntry& y) {
              if (x.FinalSimilarity() != y.FinalSimilarity()) {
                return x.FinalSimilarity() > y.FinalSimilarity();
              }
              return x.candidate_index < y.candidate_index;
            });
  report->refine_wall_seconds = wall.Seconds();
}

/// The shared engine behind both entry points: screen every couple
/// (concurrently when asked), aggregate in candidate order, refine the
/// survivors, rank.
PipelineReport ScreenRefineCouples(std::vector<CoupleTask> tasks,
                                   const PipelineOptions& input_options) {
  util::Timer timer;
  PipelineReport report;
  const auto num_tasks = static_cast<uint32_t>(tasks.size());

  // The couples and each join's chunks and segment tasks share one pool.
  // The nesting budget: with min(pipeline_threads, couples) couples in
  // flight, each join gets its fair share of it. Changes only how finely
  // a join chunks, never its result.
  PipelineOptions options = input_options;
  if (options.join.pool == nullptr) {
    options.join.pool = &util::ThreadPool::Global();
  }
  const uint32_t pool_threads = options.join.pool->threads();
  options.join.join_threads =
      NestedJoinThreads(options.join.join_threads, options.pipeline_threads,
                        pool_threads, num_tasks);
  // The deferred segment matching shares the same pool and the same
  // budget rule: with many couples in flight each join matches its
  // segments with its fair share (usually serially), while a
  // single-couple run inherits the whole pool for its segment farm.
  options.join.matching_threads =
      NestedJoinThreads(options.join.matching_threads,
                        options.pipeline_threads, pool_threads, num_tasks);

  std::vector<ScreenSlot> slots(num_tasks);
  RunCoupleTasks(options, MostExpensiveFirstOrder(tasks), [&](uint32_t i) {
    CoupleTask& task = tasks[i];
    ScreenSlot& slot = slots[i];
    slot.entry.candidate_index = task.candidate_index;
    slot.entry.candidate_name = std::move(task.candidate_name);
    slot.outcome = ScreenCouple(*task.x, *task.y, options, &slot);
  });

  // Aggregation walks the slots in candidate order, reproducing the
  // serial pipeline's counters, entry order and timing sums exactly.
  std::vector<std::pair<const Community*, const Community*>> couples;
  for (uint32_t i = 0; i < num_tasks; ++i) {
    switch (slots[i].outcome) {
      case ScreenOutcome::kInadmissible:
        ++report.inadmissible;
        break;
      case ScreenOutcome::kBoundPruned:
        ++report.bound_pruned;
        break;
      case ScreenOutcome::kScreened:
        ++report.screened;
        report.screen_seconds += slots[i].entry.screen_seconds;
        report.cache_hits += slots[i].cache_hits;
        report.cache_misses += slots[i].cache_misses;
        report.cache_bytes_built += slots[i].cache_bytes_built;
        report.entries.push_back(std::move(slots[i].entry));
        couples.emplace_back(tasks[i].x, tasks[i].y);
        break;
    }
  }

  report.screen_wall_seconds = timer.Seconds();
  RefineAndRank(couples, options, &report);
  report.total_seconds = timer.Seconds();
  return report;
}

}  // namespace

PipelineReport ScreenAndRefine(const Community& pivot,
                               const std::vector<const Community*>& candidates,
                               const PipelineOptions& options) {
  std::vector<CoupleTask> tasks;
  tasks.reserve(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    const Community* candidate = candidates[i];
    CSJ_CHECK(candidate != nullptr);
    tasks.push_back(CoupleTask{&pivot, candidate, i, candidate->name()});
  }
  return ScreenRefineCouples(std::move(tasks), options);
}

PipelineReport ScreenAndRefineAllPairs(
    const std::vector<const Community*>& communities,
    const PipelineOptions& options) {
  const auto n = static_cast<uint32_t>(communities.size());
  std::vector<CoupleTask> tasks;
  tasks.reserve(n == 0 ? 0 : static_cast<size_t>(n) * (n - 1) / 2);
  for (uint32_t i = 0; i < n; ++i) {
    CSJ_CHECK(communities[i] != nullptr);
    for (uint32_t j = i + 1; j < n; ++j) {
      tasks.push_back(CoupleTask{
          communities[i], communities[j], i * n + j,
          communities[i]->name() + " | " + communities[j]->name()});
    }
  }
  return ScreenRefineCouples(std::move(tasks), options);
}

void DecodePairIndex(uint32_t candidate_index, uint32_t n, uint32_t* i,
                     uint32_t* j) {
  CSJ_CHECK_GT(n, 0u);
  *i = candidate_index / n;
  *j = candidate_index % n;
}

uint64_t EstimatedCoupleCost(const Community& x, const Community& y) {
  return static_cast<uint64_t>(x.size()) *
         std::max<uint32_t>(y.size(), 1) * std::max<Dim>(x.d(), 1);
}

std::vector<uint32_t> CostAwareOrder(
    const std::vector<std::pair<const Community*, const Community*>>&
        couples) {
  std::vector<uint32_t> order(couples.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t l, uint32_t r) {
    return EstimatedCoupleCost(*couples[l].first, *couples[l].second) >
           EstimatedCoupleCost(*couples[r].first, *couples[r].second);
  });
  return order;
}

uint32_t NestedJoinThreads(uint32_t requested, uint32_t pipeline_threads,
                           uint32_t pool_threads, uint32_t couples) {
  if (requested <= 1) return 1;
  const uint32_t in_flight =
      std::max<uint32_t>(std::min(std::max<uint32_t>(pipeline_threads, 1),
                                  std::max<uint32_t>(couples, 1)),
                         1);
  const uint32_t share =
      std::max<uint32_t>(std::max<uint32_t>(pool_threads, 1) / in_flight, 1);
  return std::min(requested, share);
}

}  // namespace csj::pipeline
