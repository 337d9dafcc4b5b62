#include "evolve/maintainer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace csj::evolve {

namespace {

/// The top-k total order (similarity desc, id asc) — must match
/// service/topk.cc's RankedLess exactly; the soundness rule below is
/// stated in this order.
struct RankedLess {
  bool operator()(const service::TopKEntry& x,
                  const service::TopKEntry& y) const {
    if (x.similarity != y.similarity) return x.similarity > y.similarity;
    return x.id < y.id;
  }
};

/// Trigger semantics: the ranked (id, similarity) sequences differ.
/// Versions are excluded by design (see TriggerEvent).
bool SameRanking(const std::vector<service::TopKEntry>& x,
                 const std::vector<service::TopKEntry>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id != y[i].id || x[i].similarity != y[i].similarity) {
      return false;
    }
  }
  return true;
}

}  // namespace

TopKMaintainer::TopKMaintainer(const service::CommunityCatalog* catalog,
                               Options options)
    : catalog_(catalog), options_(options) {
  CSJ_CHECK(catalog_ != nullptr);
  CSJ_CHECK(options_.service != nullptr);
}

TopKMaintainer::QueryId TopKMaintainer::Register(
    std::shared_ptr<const Community> query,
    const service::TopKOptions& topk) {
  CSJ_CHECK(query != nullptr && !query->empty());
  auto state = std::make_unique<QueryState>();
  state->community = std::move(query);
  state->topk = topk;
  state->topk.k = std::max(state->topk.k, 1u);
  std::lock_guard lock(registry_mu_);
  queries_.push_back(std::move(state));
  return static_cast<QueryId>(queries_.size() - 1);
}

TopKMaintainer::RefreshOutcome TopKMaintainer::Refresh(QueryId query) {
  QueryState* state = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    CSJ_CHECK(query < queries_.size()) << "unknown query id";
    state = queries_[query].get();
  }

  RefreshOutcome outcome;
  std::optional<TriggerEvent> trigger;
  {
    std::lock_guard lock(state->mu);
    const uint64_t prior_cursor = state->cursor;
    bool fast = options_.allow_fast_path && state->has_baseline;
    std::vector<service::MutationRecord> records;
    if (fast && !catalog_->ReadMutationsSince(prior_cursor, &records)) {
      // Fell off the log's retention window (or the log is off):
      // resynchronize through a full recompute.
      fast = false;
      log_truncations_.fetch_add(1, std::memory_order_relaxed);
    }

    std::vector<service::TopKEntry> next;
    uint64_t next_cursor = prior_cursor;

    if (fast) {
      // Fold the record suffix to the LAST operation per id: a remove
      // after any upserts means gone; an upsert after anything means the
      // current entry is what counts. std::map keys the fold ascending,
      // so pool construction order is deterministic.
      std::map<uint64_t, const service::MutationRecord*> last_op;
      for (const service::MutationRecord& record : records) {
        last_op[record.id] = &record;
      }
      if (!records.empty()) next_cursor = records.back().seq;

      const uint32_t k = state->topk.k;
      const bool prior_full = state->ranking.size() >= k;
      const service::TopKEntry old_kth =
          prior_full ? state->ranking.back() : service::TopKEntry{};

      // The walk's couple scorer: the same orientation, bound and refine
      // (from the entries' artifacts when they serve), so a re-probe
      // reproduces a fresh query's similarity bits.
      const service::CoupleScorer scorer(*catalog_, *state->community,
                                         state->topk);
      // Exact join on the current entry of `id`; nullopt when the entry
      // is gone or the couple is no longer admissible (a fresh recompute
      // would drop it the same way).
      const auto reprobe =
          [&](uint64_t id) -> std::optional<service::TopKEntry> {
        const service::CatalogEntry entry = catalog_->Get(id);
        if (entry.community == nullptr) return std::nullopt;
        if (!scorer.Admissible(entry)) return std::nullopt;
        outcome.reprobed += 1;
        return service::TopKEntry{entry.id, entry.version,
                                  scorer.Refine(entry, state->topk.join)};
      };

      // (a) Prior entries survive verbatim unless their id mutated.
      std::vector<service::TopKEntry> pool;
      pool.reserve(state->ranking.size() + last_op.size());
      for (const service::TopKEntry& incumbent : state->ranking) {
        const auto it = last_op.find(incumbent.id);
        if (it == last_op.end()) {
          pool.push_back(incumbent);
          continue;
        }
        if (it->second->remove) continue;  // incumbent died
        if (const auto probed = reprobe(incumbent.id)) pool.push_back(*probed);
      }

      // (b) Mutated non-incumbents, cutoff-seeded by the prior k-th: a
      // newcomer whose bound is strictly below it cannot enter as long
      // as the soundness rule below holds — and when it doesn't, the
      // fallback recomputes everything anyway, so skipping here is
      // always safe. The strict '<' mirrors the walk's tie rule: bound
      // == k-th could still realize the k-th similarity and win by id.
      for (const auto& [id, record] : last_op) {
        if (record->remove) continue;
        const bool incumbent = std::any_of(
            state->ranking.begin(), state->ranking.end(),
            [id = id](const service::TopKEntry& e) { return e.id == id; });
        if (incumbent) continue;  // handled in (a)
        const service::CatalogEntry entry = catalog_->Get(id);
        if (entry.community == nullptr) continue;  // raced a later remove
        if (!scorer.Admissible(entry)) continue;
        if (prior_full && scorer.Bound(entry) < old_kth.similarity) {
          outcome.reprobe_skipped += 1;
          continue;
        }
        outcome.reprobed += 1;
        pool.push_back(service::TopKEntry{
            entry.id, entry.version, scorer.Refine(entry, state->topk.join)});
      }

      std::sort(pool.begin(), pool.end(), RankedLess{});
      if (pool.size() > k) pool.resize(k);

      // Soundness: a partial prior contained EVERY admissible entry, so
      // the pool does too. A full prior proves only that unmutated
      // non-incumbents rank strictly after the old k-th — the truncated
      // pool is exact iff it is full again with its k-th at-or-before
      // the old k-th (transitively ahead of everything unexamined).
      // Otherwise the incumbent k-th bound is invalidated: fall back.
      const bool sound =
          !prior_full ||
          (pool.size() >= k && !RankedLess{}(old_kth, pool.back()));
      if (sound) {
        next = std::move(pool);
        outcome.fast_path = true;
      } else {
        fast = false;
      }
    }

    if (!fast) {
      // Full recompute — TopKSimilarService::Query takes the prescreen
      // path when the query options ask for it, exhaustive otherwise.
      // The cursor restarts at the seq read BEFORE the recompute:
      // mutations racing the recompute land after it and are re-probed
      // (possibly redundantly, never missed) next time.
      const uint64_t pre = catalog_->mutation_seq();
      const service::TopKResult result =
          options_.service->Query(*state->community, state->topk);
      CSJ_CHECK(!result.deadline_expired);
      next = result.entries;
      next_cursor = std::max(next_cursor, pre);
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      fast_paths_.fetch_add(1, std::memory_order_relaxed);
    }

    outcome.records_consumed =
        static_cast<uint32_t>(next_cursor - prior_cursor);
    outcome.changed = state->has_baseline && !SameRanking(state->ranking, next);
    if (outcome.changed) {
      trigger.emplace();
      trigger->query = query;
      trigger->before = state->ranking;
    }

    state->ranking = std::move(next);
    state->cursor = next_cursor;
    state->refreshes += 1;
    if (outcome.changed) {
      state->triggers += 1;
      trigger->refresh = state->refreshes;
      trigger->after = state->ranking;
    }
    state->has_baseline = true;

    refreshes_.fetch_add(1, std::memory_order_relaxed);
    reprobed_joins_.fetch_add(outcome.reprobed, std::memory_order_relaxed);
    reprobe_skipped_.fetch_add(outcome.reprobe_skipped,
                               std::memory_order_relaxed);
    if (outcome.changed) triggers_.fetch_add(1, std::memory_order_relaxed);
  }

  if (trigger.has_value()) {
    std::vector<std::function<void(const TriggerEvent&)>> callbacks;
    {
      std::lock_guard lock(registry_mu_);
      callbacks = callbacks_;
    }
    for (const auto& callback : callbacks) callback(*trigger);
  }
  return outcome;
}

uint32_t TopKMaintainer::RefreshAll() {
  uint32_t count = 0;
  {
    std::lock_guard lock(registry_mu_);
    count = static_cast<uint32_t>(queries_.size());
  }
  uint32_t changed = 0;
  for (uint32_t q = 0; q < count; ++q) {
    if (Refresh(q).changed) ++changed;
  }
  return changed;
}

std::vector<service::TopKEntry> TopKMaintainer::Ranking(QueryId query) const {
  const QueryState* state = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    CSJ_CHECK(query < queries_.size()) << "unknown query id";
    state = queries_[query].get();
  }
  std::lock_guard lock(state->mu);
  return state->ranking;
}

uint64_t TopKMaintainer::trigger_count(QueryId query) const {
  const QueryState* state = nullptr;
  {
    std::lock_guard lock(registry_mu_);
    CSJ_CHECK(query < queries_.size()) << "unknown query id";
    state = queries_[query].get();
  }
  std::lock_guard lock(state->mu);
  return state->triggers;
}

void TopKMaintainer::Subscribe(
    std::function<void(const TriggerEvent&)> callback) {
  std::lock_guard lock(registry_mu_);
  callbacks_.push_back(std::move(callback));
}

TopKMaintainer::Stats TopKMaintainer::GetStats() const {
  Stats stats;
  stats.refreshes = refreshes_.load(std::memory_order_relaxed);
  stats.fast_paths = fast_paths_.load(std::memory_order_relaxed);
  stats.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  stats.log_truncations = log_truncations_.load(std::memory_order_relaxed);
  stats.reprobed_joins = reprobed_joins_.load(std::memory_order_relaxed);
  stats.reprobe_skipped = reprobe_skipped_.load(std::memory_order_relaxed);
  stats.triggers = triggers_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace csj::evolve
