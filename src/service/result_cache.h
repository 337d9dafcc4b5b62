#ifndef CSJ_SERVICE_RESULT_CACHE_H_
#define CSJ_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "service/topk.h"

namespace csj::service {

/// Identity of one cacheable top-k computation. Two queries with equal
/// keys are the SAME computation: the catalog was in the same stable
/// state (`state_version`, the catalog's mutation-clock tag), the query
/// community had the same content (64-bit FNV fingerprint over d, size
/// and every counter — the same content identity the encoding cache keys
/// on), and every result-affecting option matched. `prescreen` is part of
/// the key even though both modes return identical rankings — keeping the
/// arms separate means a differential harness comparing them can never be
/// fooled by one arm serving the other's entry.
struct ResultCacheKey {
  uint64_t state_version = 0;
  uint64_t query_fingerprint = 0;
  uint32_t k = 0;
  Epsilon eps = 0;
  uint16_t method = 0;
  uint8_t prescreen = 0;
  uint8_t use_bound_cutoff = 0;
  double prescreen_threshold = 0.0;

  friend bool operator==(const ResultCacheKey&,
                         const ResultCacheKey&) = default;
};

/// Sharded hot-query result cache for TopKSimilarService rankings.
///
/// The cache stores COMPLETE rankings only (never deadline partials),
/// each tagged with the catalog state it was computed against. The
/// versioned-invalidation contract:
///
///  - Insert(key, entries) requires the caller to have PROVEN stability:
///    catalog.mutations_finished() before the compute equaled
///    catalog.mutations_started() after it (see catalog.h). The tag is
///    that common value, carried in key.state_version.
///  - Find(key) only ever returns an entry whose FULL key — including
///    state_version — matches. The caller forms the key from the current
///    clock, so a cached ranking from any older catalog state can never
///    be returned: invalidation is free, no sweep, no epochs, just the
///    monotonic clock refusing to repeat itself.
///
/// Hence a hit is byte-identical to recomputing the query at the moment
/// of the lookup (the rankings are deterministic functions of (state,
/// key)), which is exactly the property the differential tests assert.
///
/// Memory: shards hold at most `capacity / shards` rankings each, FIFO-
/// evicted. Because the clock is monotonic, entries tagged older than the
/// shard's newest tag are unreachable; any insert carrying a NEWER tag
/// drops the shard's whole map first (counted in `invalidations`), so
/// churn cannot strand dead rankings until eviction.
///
/// Thread-safety: fully synchronized (per-shard mutex + atomic counters).
class TopKResultCache {
 public:
  /// Shared, immutable cached ranking: hits hand out the pointer, so the
  /// hot path never copies entry vectors under the shard lock.
  using Ranking = std::shared_ptr<const std::vector<TopKEntry>>;

  struct Options {
    uint32_t shards = 16;     ///< clamped to >= 1
    size_t capacity = 4096;   ///< total rankings across shards (>= shards)
  };

  TopKResultCache();
  explicit TopKResultCache(Options options);

  /// The cached ranking for `key`, or nullptr. Counted as hit/miss.
  Ranking Find(const ResultCacheKey& key);

  /// Installs a complete ranking computed at key.state_version. Replaces
  /// an equal-key entry (benign race of two same-key misses). Entries
  /// tagged OLDER than the shard's newest state are dropped instead of
  /// installed — they are unreachable (the clock never goes back).
  void Insert(const ResultCacheKey& key, Ranking ranking);

  /// Drops every cached ranking (tests / manual resets).
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;  ///< shard maps dropped by a newer tag
    uint64_t evictions = 0;      ///< FIFO capacity evictions
    uint64_t entries = 0;        ///< rankings resident right now

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats GetStats() const;

 private:
  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const;
  };

  struct alignas(64) Shard {
    std::mutex mu;
    /// Newest state_version ever inserted into this shard; inserts with a
    /// newer tag clear the map (everything older is unreachable).
    uint64_t newest_state = 0;
    std::unordered_map<ResultCacheKey, Ranking, KeyHash> rankings;
    std::deque<ResultCacheKey> fifo;  ///< insertion order, for eviction
  };

  Shard& ShardOf(const ResultCacheKey& key);

  Options options_;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_RESULT_CACHE_H_
