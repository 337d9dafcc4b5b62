#include "core/encoding_cache.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "ego/dimension_reorder.h"

namespace csj {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * kFnvPrime;
}

/// Entry kinds share one fingerprint space; the salt folds the kind tag
/// and the build parameters so e.g. (fp, eps=1) EncodedB and EncodedA
/// entries never collide.
enum class EntryKind : uint64_t {
  kEncodedB = 1,
  kEncodedA = 2,
  kCommunityWindow = 3,
  kDimensionOrder = 4,
  kSuperEgoPrep = 5,
};

uint64_t SaltOf(EntryKind kind, uint64_t p0 = 0, uint64_t p1 = 0,
                uint64_t p2 = 0, uint64_t p3 = 0) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(kind));
  h = FnvMix(h, p0);
  h = FnvMix(h, p1);
  h = FnvMix(h, p2);
  h = FnvMix(h, p3);
  return h;
}

using BuiltEntry = std::pair<std::shared_ptr<const void>, size_t>;

}  // namespace

CommunityDigest DigestCommunity(const Community& community) {
  CommunityDigest digest;
  // Four interleaved FNV lanes, folded at the end. A single lane
  // serializes on the multiply's latency — one mix per counter, each
  // waiting on the last — which makes the digest a fixed ~5 cycles per
  // counter no matter how wide the core is. Independent accumulators
  // overlap the multiplies; each counter still lands in exactly one
  // position-sensitive lane, so any mutation changes the fold input.
  const auto flat = community.flat();
  const size_t n = flat.size();
  // The digest is usually a community buffer's first touch since it was
  // built (catalog ingest digests long after the generator ran), so this
  // loop is a latency-bound DRAM walk without help: stream-prefetch a
  // kilobyte ahead to keep the line fills overlapped.
  constexpr size_t kPrefetchAhead = 256;  // counters = 1 KiB
  uint64_t h0 = kFnvOffset;
  uint64_t h1 = kFnvOffset ^ 0x9E3779B97F4A7C15ULL;
  uint64_t h2 = kFnvOffset ^ 0xC2B2AE3D27D4EB4FULL;
  uint64_t h3 = kFnvOffset ^ 0x165667B19E3779F9ULL;
  Count max_counter = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + kPrefetchAhead < n) __builtin_prefetch(&flat[i + kPrefetchAhead]);
    h0 = FnvMix(h0, flat[i]);
    h1 = FnvMix(h1, flat[i + 1]);
    h2 = FnvMix(h2, flat[i + 2]);
    h3 = FnvMix(h3, flat[i + 3]);
    max_counter = std::max(
        {max_counter, flat[i], flat[i + 1], flat[i + 2], flat[i + 3]});
  }
  for (; i < n; ++i) {
    h0 = FnvMix(h0, flat[i]);
    max_counter = std::max(max_counter, flat[i]);
  }
  uint64_t h = kFnvOffset;
  h = FnvMix(h, community.d());
  h = FnvMix(h, community.size());
  h = FnvMix(h, h0);
  h = FnvMix(h, h1);
  h = FnvMix(h, h2);
  h = FnvMix(h, h3);
  digest.fingerprint = h;
  digest.max_counter = max_counter;
  return digest;
}

uint64_t HashDimOrder(const std::vector<Dim>& order) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, order.size());
  for (const Dim k : order) h = FnvMix(h, k);
  return h;
}

SuperEgoPrep BuildSuperEgoPrep(const Community& community, Count max_count,
                               Epsilon eps, const std::vector<Dim>& dim_order,
                               uint32_t threshold) {
  ego::NormalizedData data =
      ego::Normalize(community, max_count, eps, dim_order);
  ego::SegmentTree tree(ego::CellsOf(data), threshold);
  VerifyWindowF window;
  window.Assign(data.size(), data.d, [&](uint32_t i) { return data.Row(i); });
  return SuperEgoPrep{std::move(data), std::move(tree), std::move(window)};
}

EncodingCache::EncodingCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_bytes_(
          capacity_bytes == 0
              ? 0
              : std::max<size_t>(1, capacity_bytes / kShards)),
      shards_(kShards) {}

EncodingCache::~EncodingCache() = default;

size_t EncodingCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      FnvMix(FnvMix(kFnvOffset, key.fingerprint), key.salt));
}

EncodingCache::Shard& EncodingCache::ShardOf(const Key& key) {
  return shards_[KeyHash{}(key) % kShards];
}

void EncodingCache::EvictLocked(Shard& shard) {
  if (capacity_bytes_ == 0) return;
  while (shard.bytes > shard_capacity_bytes_ &&
         !shard.insertion_order.empty()) {
    const Key victim = shard.insertion_order.front();
    shard.insertion_order.pop_front();
    const auto it = shard.map.find(victim);
    if (it == shard.map.end() || !it->second.ready) continue;
    shard.bytes -= it->second.bytes;
    shard.map.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename T, typename BuildFn>
std::shared_ptr<const T> EncodingCache::GetOrBuild(const Key& key,
                                                   BuildFn&& build,
                                                   JoinStats* stats) {
  Shard& shard = ShardOf(key);
  {
    // Fast path: SHARED lock only. The steady state of an all-pairs run
    // is 100% hits, and readers of one shard must not serialize — the
    // exclusive-mutex version of this probe was the dominant contention
    // source when cross-couple threads shared a hot cache.
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Hit. An in-flight slot counts too — the waiter did not build —
      // which is what keeps the hit/miss totals independent of thread
      // interleaving: misses == builds == unique keys (absent eviction).
      if (it->second.value != nullptr) {
        // Completed slot: hand out the value without the shared_future
        // round-trip.
        const std::shared_ptr<const void> value = it->second.value;
        lock.unlock();
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) ++stats->cache_hits;
        return std::static_pointer_cast<const T>(value);
      }
      const std::shared_future<std::shared_ptr<const void>> future =
          it->second.future;
      lock.unlock();
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) ++stats->cache_hits;
      return std::static_pointer_cast<const T>(future.get());
    }
  }

  std::promise<std::shared_ptr<const void>> promise;
  uint64_t token = 0;
  {
    // Double-checked upgrade: another thread may have inserted the slot
    // between the shared probe and this exclusive lock.
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second.value != nullptr) {
        const std::shared_ptr<const void> value = it->second.value;
        lock.unlock();
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) ++stats->cache_hits;
        return std::static_pointer_cast<const T>(value);
      }
      const std::shared_future<std::shared_ptr<const void>> future =
          it->second.future;
      lock.unlock();
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) ++stats->cache_hits;
      return std::static_pointer_cast<const T>(future.get());
    }
    token = next_token_.fetch_add(1, std::memory_order_relaxed);
    Slot slot;
    slot.future = promise.get_future().share();
    slot.token = token;
    shard.map.emplace(key, std::move(slot));
  }

  // Miss: this thread owns the build and runs it OUTSIDE the shard lock,
  // so concurrent lookups of other keys (and waiters of this one, who
  // block on the future, not the mutex) proceed unhindered.
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (stats != nullptr) ++stats->cache_misses;
  const BuiltEntry built = build();
  promise.set_value(built.first);
  bytes_built_.fetch_add(built.second, std::memory_order_relaxed);
  if (stats != nullptr) stats->cache_bytes_built += built.second;

  {
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    // The token check covers a Clear() (or a Clear + re-insert by another
    // thread) racing the build: only the slot THIS call inserted is
    // promoted to resident; otherwise the result is handed out but never
    // counted against the budget.
    if (it != shard.map.end() && it->second.token == token) {
      it->second.value = built.first;
      it->second.bytes = built.second;
      it->second.ready = true;
      shard.bytes += built.second;
      shard.insertion_order.push_back(key);
      EvictLocked(shard);
    }
  }
  return std::static_pointer_cast<const T>(built.first);
}

std::shared_ptr<const EncodedB> EncodingCache::GetEncodedB(
    const Community& b, const CommunityDigest& digest, Epsilon eps,
    uint32_t parts, JoinStats* stats) {
  const Key key{digest.fingerprint, SaltOf(EntryKind::kEncodedB, eps, parts)};
  return GetOrBuild<EncodedB>(
      key,
      [&]() -> BuiltEntry {
        auto ptr = std::make_shared<const EncodedB>(
            b, Encoder(b.d(), eps, parts));
        return {ptr, sizeof(EncodedB) + ptr->MemoryBytes()};
      },
      stats);
}

std::shared_ptr<const EncodedA> EncodingCache::GetEncodedA(
    const Community& a, const CommunityDigest& digest, Epsilon eps,
    uint32_t parts, JoinStats* stats) {
  const Key key{digest.fingerprint, SaltOf(EntryKind::kEncodedA, eps, parts)};
  return GetOrBuild<EncodedA>(
      key,
      [&]() -> BuiltEntry {
        auto ptr = std::make_shared<const EncodedA>(
            a, Encoder(a.d(), eps, parts));
        return {ptr, sizeof(EncodedA) + ptr->MemoryBytes()};
      },
      stats);
}

std::shared_ptr<const VerifyWindow> EncodingCache::GetCommunityWindow(
    const Community& community, const CommunityDigest& digest,
    JoinStats* stats) {
  const Key key{digest.fingerprint, SaltOf(EntryKind::kCommunityWindow)};
  return GetOrBuild<VerifyWindow>(
      key,
      [&]() -> BuiltEntry {
        auto ptr = std::make_shared<VerifyWindow>();
        ptr->Assign(community.size(), community.d(),
                    [&](uint32_t i) { return community.User(i); });
        return {ptr, sizeof(VerifyWindow) + ptr->MemoryBytes()};
      },
      stats);
}

std::shared_ptr<const std::vector<Dim>> EncodingCache::GetDimensionOrder(
    const Community& b, const Community& a, const CommunityDigest& digest_b,
    const CommunityDigest& digest_a, Epsilon eps, Count max_count,
    JoinStats* stats) {
  // ComputeDimensionOrder's histogram is commutative in its two
  // communities, so the couple key uses the UNORDERED fingerprint pair:
  // both orientations of a couple share one entry.
  const uint64_t fp_lo =
      std::min(digest_b.fingerprint, digest_a.fingerprint);
  const uint64_t fp_hi =
      std::max(digest_b.fingerprint, digest_a.fingerprint);
  const Key key{FnvMix(FnvMix(kFnvOffset, fp_lo), fp_hi),
                SaltOf(EntryKind::kDimensionOrder, eps, max_count)};
  return GetOrBuild<std::vector<Dim>>(
      key,
      [&]() -> BuiltEntry {
        auto ptr = std::make_shared<const std::vector<Dim>>(
            ego::ComputeDimensionOrder(b, a, eps, max_count));
        return {ptr, sizeof(std::vector<Dim>) + ptr->capacity() * sizeof(Dim)};
      },
      stats);
}

std::shared_ptr<const SuperEgoPrep> EncodingCache::GetSuperEgoPrep(
    const Community& community, const CommunityDigest& digest, Epsilon eps,
    Count max_count, const std::vector<Dim>& dim_order, uint64_t order_hash,
    uint32_t threshold, JoinStats* stats) {
  const Key key{digest.fingerprint,
                SaltOf(EntryKind::kSuperEgoPrep, eps, max_count, order_hash,
                       threshold)};
  return GetOrBuild<SuperEgoPrep>(
      key,
      [&]() -> BuiltEntry {
        auto ptr = std::make_shared<const SuperEgoPrep>(BuildSuperEgoPrep(
            community, max_count, eps, dim_order, threshold));
        return {ptr, sizeof(SuperEgoPrep) + ptr->MemoryBytes()};
      },
      stats);
}

void EncodingCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
    shard.insertion_order.clear();
    shard.bytes = 0;
  }
}

EncodingCache::Stats EncodingCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.bytes_built = bytes_built_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    stats.entries += shard.map.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

void EncodingCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bytes_built_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace csj
