#ifndef CSJ_CORE_ENCODING_CACHE_H_
#define CSJ_CORE_ENCODING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/community.h"
#include "core/encoding.h"
#include "core/join_result.h"
#include "core/types.h"
#include "ego/ego_join.h"
#include "ego/normalized.h"

namespace csj {

/// Content identity of a community: a 64-bit FNV-1a fingerprint over
/// (d, size, every counter) plus the maximum counter, both computed in
/// one pass over the flat buffer. The fingerprint — not the object
/// address — keys the encoding cache, so a mutated (or reloaded, or
/// copied) community can never alias a stale entry: its counters change,
/// its fingerprint changes, and the old entry simply goes cold until
/// evicted or Clear()ed.
struct CommunityDigest {
  uint64_t fingerprint = 0;
  Count max_counter = 0;
};

/// One O(n*d) pass; the irreducible per-lookup cost of content keying
/// (cheap next to the sort the cache saves). Also the source of
/// max_counter for SuperEGO's couple-level normalization, replacing a
/// second scan.
CommunityDigest DigestCommunity(const Community& community);

/// A community's SuperEGO preparation under one (eps, norm denominator,
/// dimension order, threshold): the normalized EGO-sorted rows, the
/// segment tree over their cells, and the float SoA window for batched
/// leaf verification.
struct SuperEgoPrep {
  ego::NormalizedData data;
  ego::SegmentTree tree;
  VerifyWindowF window;

  size_t MemoryBytes() const {
    return data.flat.capacity() * sizeof(float) +
           data.ids.capacity() * sizeof(UserId) + tree.MemoryBytes() +
           window.MemoryBytes();
  }
};

/// Builds one side's SuperEGO prep (shared by the cache's builder and the
/// cache-less path, so both produce bit-identical buffers).
SuperEgoPrep BuildSuperEgoPrep(const Community& community, Count max_count,
                               Epsilon eps, const std::vector<Dim>& dim_order,
                               uint32_t threshold);

/// FNV-1a over a dimension order (part of the SuperEGO prep key: the
/// reorder step is couple-driven, so one community legitimately has one
/// prep per distinct order it was joined under).
uint64_t HashDimOrder(const std::vector<Dim>& order);

/// Community-level encoded-buffer cache: a thread-safe, shard-locked memo
/// from (community fingerprint, parameters, side) to shared immutable
/// encoded buffers, so an all-pairs screening run over C communities
/// builds O(C) encodings instead of O(C^2).
///
/// Its users are ad-hoc joins that point JoinOptions::cache at it: the
/// screening pipeline, the CLI, and top-k couples the catalog entries'
/// own artifacts do not serve (non-MinMax methods, another eps or part
/// count). The serving catalog never reads or fills it.
///
/// Entries:
///   - EncodedB / EncodedA (+ its SoA verify window) per (fp, eps, parts)
///   - a community's counters as a natural-order SoA window per fp
///     (the Baseline methods' batched scans)
///   - SuperEGO prep per (fp, eps, norm_max, dim-order hash, threshold)
///   - the couple-level SuperEGO dimension order per (unordered fp pair,
///     eps, max_count) — ComputeDimensionOrder is symmetric in its two
///     communities, so the key ignores couple orientation
///
/// Concurrency: the hit path — the steady state of an all-pairs run,
/// where every community's buffers are resident after the first pass —
/// takes only a SHARED shard lock, so concurrent readers of one shard
/// never serialize (the PR-2 cross-couple scaling loss was exactly this:
/// an exclusive mutex per shard turned all-hit workloads into a lock
/// convoy). Misses upgrade to an exclusive lock, re-check, and insert an
/// in-flight slot; builds run OUTSIDE any lock. N threads requesting the
/// same key race to insert one slot — exactly one builds, the rest block
/// on its shared_future. Hence `misses` counts BUILDS: for a run with no
/// eviction the hit/miss totals are deterministic for every thread count
/// (total lookups and unique keys are data properties).
///
/// Eviction: optional byte budget, split evenly over the shards; each
/// shard evicts its oldest ready entries (insertion order) when over
/// budget. Readers holding a shared_ptr keep evicted buffers alive;
/// eviction only unpins them from the map.
class EncodingCache {
 public:
  /// `capacity_bytes` == 0 means unlimited.
  explicit EncodingCache(size_t capacity_bytes = 0);
  ~EncodingCache();

  EncodingCache(const EncodingCache&) = delete;
  EncodingCache& operator=(const EncodingCache&) = delete;

  /// Global counters since construction (or the last ResetStats()).
  /// `bytes` / `entries` describe what is resident right now.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bytes_built = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;

    double HitRate() const {
      const uint64_t lookups = hits + misses;
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups);
    }
  };

  /// The B-side MinMax buffer of `b` under (eps, parts). `parts` must be
  /// the Encoder's CLAMPED part count. `stats` (nullable) receives the
  /// lookup's hit/miss/bytes accounting.
  std::shared_ptr<const EncodedB> GetEncodedB(const Community& b,
                                              const CommunityDigest& digest,
                                              Epsilon eps, uint32_t parts,
                                              JoinStats* stats);

  /// The A-side MinMax buffer (carrying its SoA verify window).
  std::shared_ptr<const EncodedA> GetEncodedA(const Community& a,
                                              const CommunityDigest& digest,
                                              Epsilon eps, uint32_t parts,
                                              JoinStats* stats);

  /// The community's counters as a natural-order SoA window (Baseline).
  std::shared_ptr<const VerifyWindow> GetCommunityWindow(
      const Community& community, const CommunityDigest& digest,
      JoinStats* stats);

  /// The couple's SuperEGO dimension order (symmetric in b/a).
  std::shared_ptr<const std::vector<Dim>> GetDimensionOrder(
      const Community& b, const Community& a, const CommunityDigest& digest_b,
      const CommunityDigest& digest_a, Epsilon eps, Count max_count,
      JoinStats* stats);

  /// One side's SuperEGO prep under (eps, max_count, order, threshold).
  std::shared_ptr<const SuperEgoPrep> GetSuperEgoPrep(
      const Community& community, const CommunityDigest& digest, Epsilon eps,
      Count max_count, const std::vector<Dim>& dim_order, uint64_t order_hash,
      uint32_t threshold, JoinStats* stats);

  /// Drops every resident entry (buffers still referenced by shared_ptr
  /// holders stay alive). In-flight builds complete and are discarded.
  void Clear();

  Stats GetStats() const;
  void ResetStats();

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t salt = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Slot {
    std::shared_future<std::shared_ptr<const void>> future;
    /// Set once the build completes. Hits return this directly — a
    /// shared_ptr copy instead of a shared_future copy + get().
    std::shared_ptr<const void> value;
    uint64_t token = 0;   ///< insert identity (Clear() vs late completion)
    size_t bytes = 0;     ///< 0 until the build completes
    bool ready = false;
  };
  /// Cache-line aligned: adjacent shards' locks are ping-ponged by
  /// different threads; sharing a line would re-couple what sharding
  /// decoupled.
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;  ///< shared on hits, exclusive on misses
    std::unordered_map<Key, Slot, KeyHash> map;
    std::deque<Key> insertion_order;  ///< ready entries, oldest first
    size_t bytes = 0;
  };

  /// The generic memo: returns the entry for `key`, building it with
  /// `build` (returning shared_ptr<const void> + its byte size) exactly
  /// once across all racing threads.
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> GetOrBuild(const Key& key, BuildFn&& build,
                                      JoinStats* stats);

  Shard& ShardOf(const Key& key);
  void EvictLocked(Shard& shard);

  static constexpr size_t kShards = 16;

  const size_t capacity_bytes_;
  const size_t shard_capacity_bytes_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> next_token_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> bytes_built_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace csj

#endif  // CSJ_CORE_ENCODING_CACHE_H_
