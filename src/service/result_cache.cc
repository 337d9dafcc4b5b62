#include "service/result_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"

namespace csj::service {

size_t TopKResultCache::KeyHash::operator()(const ResultCacheKey& key) const {
  // SplitMix64 over the packed fields; the fingerprint already carries
  // the query's entropy, the rest decorrelates same-query variants.
  uint64_t h = key.query_fingerprint;
  h ^= util::SplitMix64(h) ^ key.state_version;
  h ^= util::SplitMix64(h) ^
       ((static_cast<uint64_t>(key.k) << 32) | key.eps);
  h ^= util::SplitMix64(h) ^
       ((static_cast<uint64_t>(key.method) << 16) |
        (static_cast<uint64_t>(key.prescreen) << 8) | key.use_bound_cutoff);
  h ^= util::SplitMix64(h) ^ std::bit_cast<uint64_t>(key.prescreen_threshold);
  return static_cast<size_t>(util::SplitMix64(h));
}

TopKResultCache::TopKResultCache() : TopKResultCache(Options{}) {}

TopKResultCache::TopKResultCache(Options options) : options_(options) {
  options_.shards = std::max(options_.shards, 1u);
  options_.capacity =
      std::max<size_t>(options_.capacity, options_.shards);
  shard_capacity_ = options_.capacity / options_.shards;
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TopKResultCache::Shard& TopKResultCache::ShardOf(const ResultCacheKey& key) {
  // Shard on the query fingerprint alone so one hot query's lifecycle
  // (insert, hits, invalidation) stays on one lock.
  uint64_t state = key.query_fingerprint;
  return *shards_[util::SplitMix64(state) % shards_.size()];
}

TopKResultCache::Ranking TopKResultCache::Find(const ResultCacheKey& key) {
  Shard& shard = ShardOf(key);
  Ranking ranking;
  {
    std::lock_guard lock(shard.mu);
    const auto it = shard.rankings.find(key);
    if (it != shard.rankings.end()) ranking = it->second;
  }
  if (ranking != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return ranking;
}

void TopKResultCache::Insert(const ResultCacheKey& key, Ranking ranking) {
  CSJ_CHECK(ranking != nullptr);
  Shard& shard = ShardOf(key);
  uint64_t invalidated = 0;
  uint64_t evicted = 0;
  bool inserted = false;
  {
    std::lock_guard lock(shard.mu);
    if (key.state_version < shard.newest_state) {
      // A ranking computed against an already-superseded state: no future
      // lookup can form its key (the clock is monotonic), so drop it.
    } else {
      if (key.state_version > shard.newest_state) {
        // Everything resident is tagged older — unreachable forever.
        if (!shard.rankings.empty()) {
          invalidated = shard.rankings.size();
          shard.rankings.clear();
          shard.fifo.clear();
        }
        shard.newest_state = key.state_version;
      }
      const auto [it, fresh] =
          shard.rankings.insert_or_assign(key, std::move(ranking));
      inserted = true;
      if (fresh) {
        shard.fifo.push_back(key);
        while (shard.rankings.size() > shard_capacity_ &&
               !shard.fifo.empty()) {
          shard.rankings.erase(shard.fifo.front());
          shard.fifo.pop_front();
          ++evicted;
        }
      }
    }
  }
  if (inserted) insertions_.fetch_add(1, std::memory_order_relaxed);
  if (invalidated > 0) {
    invalidations_.fetch_add(invalidated, std::memory_order_relaxed);
  }
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

void TopKResultCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->rankings.clear();
    shard->fifo.clear();
    shard->newest_state = 0;
  }
}

TopKResultCache::Stats TopKResultCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mu);
    stats.entries += shard->rankings.size();
  }
  return stats;
}

}  // namespace csj::service
