#ifndef CSJ_EVOLVE_MAINTAINER_H_
#define CSJ_EVOLVE_MAINTAINER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/community.h"
#include "service/catalog.h"
#include "service/topk.h"

namespace csj::evolve {

/// Fired by a refresh exactly when the query's maintained top-k SET OR
/// ORDER changed: the ranked (id, similarity) sequence differs from the
/// previous refresh. Entry VERSIONS are deliberately excluded from the
/// comparison — a byte-identical re-upsert mints a fresh version without
/// changing what the ranking means, and must not alert anyone.
struct TriggerEvent {
  uint32_t query = 0;
  /// This query's refresh ordinal (1 = the first refresh after the
  /// baseline) at which the change was observed.
  uint64_t refresh = 0;
  std::vector<service::TopKEntry> before;
  std::vector<service::TopKEntry> after;
};

/// Keeps registered queries' top-k rankings current under catalog churn
/// without recomputing them from scratch.
///
/// Fast path (per refresh): read the catalog mutation log since the
/// query's cursor and reduce it to the last operation per id. Build a
/// candidate pool from (a) surviving prior entries — re-probed with an
/// exact join when their id mutated, kept verbatim otherwise — and (b)
/// mutated non-incumbents, which are bound-checked first: the prior k-th
/// similarity is the CUTOFF SEED, and any newcomer whose upper bound is
/// strictly below it cannot enter (same strict-tie rule as the top-k
/// walk). Rank the pool, truncate to k. Bounds and re-probes go through
/// the walk's service::CoupleScorer, so they read the entries' MinMax
/// artifacts exactly when a fresh query would.
///
/// Soundness rule: the truncated pool IS the exact top-k iff the prior
/// ranking was partial (it then contained every admissible entry), or it
/// is full again with its k-th entry ranking at-or-before the prior k-th
/// — every unmutated non-incumbent ranked strictly after the prior k-th
/// and stays strictly after the new one. When the rule fails (the
/// incumbent k-th bound was invalidated: incumbents fell or died), or
/// the cursor fell off the log's retention window, the refresh FALLS
/// BACK to TopKSimilarService::Query — the prescreen/exhaustive path —
/// and restarts the cursor. Either way the produced ranking is
/// byte-identical to a fresh recompute at any quiesce point (the
/// differential suite proves it per refresh).
///
/// Concurrency: refreshes of one query serialize on a per-query mutex;
/// different queries refresh concurrently, and catalog churn may race
/// any refresh (the ranking then reflects the same per-shard-atomic view
/// a fresh query racing the same churn could see — never a torn entry).
/// Trigger callbacks are invoked after the per-query lock is released,
/// on the refreshing thread; subscribers synchronize themselves.
class TopKMaintainer {
 public:
  struct Options {
    /// Engine for baseline/fallback recomputes (not owned). Required.
    const service::TopKSimilarService* service = nullptr;
    /// false pins every refresh to the full-recompute path (the
    /// cost-comparison arm of csj_evolve).
    bool allow_fast_path = true;
  };

  using QueryId = uint32_t;

  /// `catalog` is not owned; it should be constructed with a nonzero
  /// Options::mutation_log_capacity or every refresh will fall back.
  TopKMaintainer(const service::CommunityCatalog* catalog, Options options);

  /// Registers a standing query. The first Refresh establishes its
  /// baseline ranking with a full recompute (never fires a trigger).
  QueryId Register(std::shared_ptr<const Community> query,
                   const service::TopKOptions& topk);

  struct RefreshOutcome {
    bool changed = false;    ///< the (id, similarity) ranking moved
    bool fast_path = false;  ///< maintained incrementally, no recompute
    uint32_t records_consumed = 0;  ///< mutation-log records advanced over
    uint32_t reprobed = 0;          ///< exact joins on the fast path
    uint32_t reprobe_skipped = 0;   ///< newcomers pruned by the cutoff seed
  };

  /// Brings one query's ranking up to date (see class comment).
  RefreshOutcome Refresh(QueryId query);

  /// Refreshes every registered query in registration order; returns
  /// how many changed.
  uint32_t RefreshAll();

  /// Copy of the query's current maintained ranking.
  std::vector<service::TopKEntry> Ranking(QueryId query) const;

  uint64_t trigger_count(QueryId query) const;

  /// Registers a trigger callback (applies to all queries). Not
  /// removable; subscribe before refreshing.
  void Subscribe(std::function<void(const TriggerEvent&)> callback);

  struct Stats {
    uint64_t refreshes = 0;
    uint64_t fast_paths = 0;
    uint64_t fallbacks = 0;  ///< full recomputes, baselines included
    uint64_t log_truncations = 0;
    uint64_t reprobed_joins = 0;
    uint64_t reprobe_skipped = 0;
    uint64_t triggers = 0;
  };
  Stats GetStats() const;

 private:
  struct QueryState {
    mutable std::mutex mu;
    std::shared_ptr<const Community> community;
    service::TopKOptions topk;
    bool has_baseline = false;
    uint64_t cursor = 0;  ///< last mutation-log seq folded into `ranking`
    std::vector<service::TopKEntry> ranking;
    uint64_t refreshes = 0;
    uint64_t triggers = 0;
  };

  const service::CommunityCatalog* catalog_;
  Options options_;
  mutable std::mutex registry_mu_;  ///< guards queries_ growth + callbacks
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::vector<std::function<void(const TriggerEvent&)>> callbacks_;
  std::atomic<uint64_t> refreshes_{0};
  std::atomic<uint64_t> fast_paths_{0};
  std::atomic<uint64_t> fallbacks_{0};
  std::atomic<uint64_t> log_truncations_{0};
  std::atomic<uint64_t> reprobed_joins_{0};
  std::atomic<uint64_t> reprobe_skipped_{0};
  std::atomic<uint64_t> triggers_{0};
};

}  // namespace csj::evolve

#endif  // CSJ_EVOLVE_MAINTAINER_H_
