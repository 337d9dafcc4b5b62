// TopKResultCache: the versioned-invalidation contract at the unit level
// (monotonic-clock invalidation, stale-insert drop, FIFO eviction), then
// the server-level differential gates — a quiesced cache-on server must
// answer byte-identically to a direct cache-off Query, and under
// concurrent upsert churn every response naming the same catalog state
// must carry the same bytes (a stale hit served across a version bump
// would disagree with a fresh recompute at that state and fail here).

#include "service/result_cache.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "service/server.h"
#include "service/workload.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

TopKResultCache::Ranking MakeRanking(std::vector<TopKEntry> entries) {
  return std::make_shared<const std::vector<TopKEntry>>(std::move(entries));
}

ResultCacheKey MakeKey(uint64_t state_version, uint64_t fingerprint,
                       uint32_t k = 10) {
  ResultCacheKey key;
  key.state_version = state_version;
  key.query_fingerprint = fingerprint;
  key.k = k;
  key.eps = 1;
  key.method = 0;
  return key;
}

TEST(ResultCache, MissThenInsertThenHit) {
  TopKResultCache cache(TopKResultCache::Options{4, 64});
  const ResultCacheKey key = MakeKey(5, 0xF00D);
  EXPECT_EQ(cache.Find(key), nullptr);

  const std::vector<TopKEntry> entries = {{1, 3, 0.5}, {2, 1, 0.25}};
  cache.Insert(key, MakeRanking(entries));
  const TopKResultCache::Ranking hit = cache.Find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, entries);

  const TopKResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, FullKeyMustMatch) {
  TopKResultCache cache(TopKResultCache::Options{4, 64});
  cache.Insert(MakeKey(5, 0xF00D, /*k=*/10), MakeRanking({{1, 1, 0.5}}));
  // Same query, same state, different k: a different computation.
  EXPECT_EQ(cache.Find(MakeKey(5, 0xF00D, /*k=*/3)), nullptr);
  // Same everything, older state: never served.
  EXPECT_EQ(cache.Find(MakeKey(4, 0xF00D, /*k=*/10)), nullptr);
  EXPECT_NE(cache.Find(MakeKey(5, 0xF00D, /*k=*/10)), nullptr);
}

TEST(ResultCache, NewerTagInvalidatesShard) {
  TopKResultCache cache(TopKResultCache::Options{4, 64});
  // Same fingerprint => same shard, so the k=7 insert at state 6 must
  // clear BOTH state-5 residents (they are unreachable: the clock never
  // reads 5 again).
  cache.Insert(MakeKey(5, 0xBEEF, 10), MakeRanking({{1, 1, 0.5}}));
  cache.Insert(MakeKey(5, 0xBEEF, 3), MakeRanking({{1, 1, 0.5}}));
  cache.Insert(MakeKey(6, 0xBEEF, 7), MakeRanking({{2, 2, 0.75}}));

  EXPECT_EQ(cache.Find(MakeKey(5, 0xBEEF, 10)), nullptr);
  EXPECT_EQ(cache.Find(MakeKey(5, 0xBEEF, 3)), nullptr);
  EXPECT_NE(cache.Find(MakeKey(6, 0xBEEF, 7)), nullptr);

  const TopKResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, StaleInsertIsDropped) {
  TopKResultCache cache(TopKResultCache::Options{4, 64});
  cache.Insert(MakeKey(6, 0xCAFE, 10), MakeRanking({{2, 2, 0.75}}));
  // A ranking computed against superseded state 5 arrives late (two
  // same-shard queries raced across an upsert): it must not be installed.
  cache.Insert(MakeKey(5, 0xCAFE, 10), MakeRanking({{1, 1, 0.5}}));
  EXPECT_EQ(cache.Find(MakeKey(5, 0xCAFE, 10)), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(ResultCache, FifoEvictionAtCapacity) {
  // One shard, capacity 4: the 6th distinct key evicts the 2 oldest.
  TopKResultCache cache(TopKResultCache::Options{1, 4});
  for (uint64_t q = 0; q < 6; ++q) {
    cache.Insert(MakeKey(9, 0x1000 + q), MakeRanking({{q, 1, 0.5}}));
  }
  const TopKResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(cache.Find(MakeKey(9, 0x1000)), nullptr);  // oldest: gone
  EXPECT_EQ(cache.Find(MakeKey(9, 0x1001)), nullptr);
  EXPECT_NE(cache.Find(MakeKey(9, 0x1005)), nullptr);  // newest: kept
}

TEST(ResultCache, ReinsertSameKeyDoesNotGrow) {
  TopKResultCache cache(TopKResultCache::Options{1, 4});
  const ResultCacheKey key = MakeKey(9, 0xD1CE);
  cache.Insert(key, MakeRanking({{1, 1, 0.5}}));
  cache.Insert(key, MakeRanking({{1, 1, 0.5}}));  // benign same-key race
  const TopKResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

// ---------------------------------------------------------------------
// Server-level differential gates.
// ---------------------------------------------------------------------

WorkloadOptions SmallWorkload(uint64_t seed) {
  WorkloadOptions options;
  options.catalog_size = 10;
  options.community_size = 60;
  options.upsert_fraction = 0.0;
  options.seed = seed;
  return options;
}

/// A quiesced cache-on server answers every query twice; the second pass
/// must hit, and both passes must be byte-identical to the direct
/// cache-off TopKSimilarService::Query on the same catalog.
TEST(ResultCacheServer, QuiescedHitsAreByteIdenticalToRecompute) {
  const ServeWorkload workload(
      SmallWorkload(csj::testing::TestSeed(0x5CA1E)));

  CsjServer::Options options;
  options.workers = 2;
  options.result_cache = true;
  CsjServer server(options);
  workload.Populate(&server);

  TopKOptions topk;
  topk.k = 5;

  for (const std::shared_ptr<const Community>& community :
       workload.communities()) {
    const TopKResult reference = server.topk().Query(*community, topk);

    ServeRequest request;
    request.kind = RequestKind::kTopK;
    request.community = community;
    request.topk = topk;

    const ServeResponse first = server.SubmitAndWait(request);
    const ServeResponse second = server.SubmitAndWait(request);
    ASSERT_EQ(first.status, ServeStatus::kOk);
    ASSERT_EQ(second.status, ServeStatus::kOk);
    // The catalog is quiescent: the miss was computed against a proven
    // stable state, so the second pass must be a hit at the same tag.
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(first.state_version, second.state_version);
    EXPECT_NE(first.state_version, 0u);
    // Byte identity (TopKEntry::operator== compares double bits exactly
    // for our deterministic pipelines — same (id, version, similarity)).
    EXPECT_EQ(first.topk.entries, reference.entries);
    EXPECT_EQ(second.topk.entries, reference.entries);
  }

  const CsjServer::Stats stats = server.GetStats();
  EXPECT_GE(stats.result_cache.hits, workload.communities().size());
}

/// The churn differential: readers hammer the seeded pool while a writer
/// upserts over it. Group every OK response by (query index, the catalog
/// state tag it names); within a group, all responses — hits and fresh
/// computes alike — must be byte-identical. A cache serving a ranking
/// from before an upsert under a post-upsert tag would break the group.
TEST(ResultCacheServer, ChurnNeverServesStaleBytes) {
  const ServeWorkload workload(
      SmallWorkload(csj::testing::TestSeed(0xC4012)));

  CsjServer::Options options;
  options.workers = 3;
  options.result_cache = true;
  CsjServer server(options);
  workload.Populate(&server);

  TopKOptions topk;
  topk.k = 5;

  struct Observation {
    uint32_t query = 0;
    uint64_t state_version = 0;
    bool cache_hit = false;
    std::vector<TopKEntry> entries;
  };
  std::mutex observations_mu;
  std::vector<Observation> observations;

  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 60;
  constexpr int kChurnUpserts = 40;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(csj::testing::TestSeed(0x8EAD + static_cast<uint64_t>(r)));
      for (int i = 0; i < kReadsPerReader; ++i) {
        const auto query = static_cast<uint32_t>(
            rng.Below(workload.communities().size()));
        ServeRequest request;
        request.kind = RequestKind::kTopK;
        request.community = workload.communities()[query];
        request.topk = topk;
        const ServeResponse response = server.SubmitAndWait(request);
        if (response.status != ServeStatus::kOk) continue;
        std::lock_guard lock(observations_mu);
        observations.push_back({query, response.state_version,
                                response.cache_hit,
                                response.topk.entries});
      }
    });
  }

  std::thread churn([&] {
    util::Rng rng(csj::testing::TestSeed(0xC403));
    for (int i = 0; i < kChurnUpserts; ++i) {
      // Install a different seeded community over a random id: real
      // content changes, so any stale ranking has different bytes.
      const uint64_t id = 1 + rng.Below(workload.communities().size());
      const auto source = static_cast<uint32_t>(
          rng.Below(workload.communities().size()));
      ServeRequest request;
      request.kind = RequestKind::kUpsert;
      request.id = id;
      request.community = workload.communities()[source];
      (void)server.SubmitAndWait(request);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread& reader : readers) reader.join();
  churn.join();

  // Group by (query, named stable state); bytes must agree within every
  // group. state_version == 0 means "no stable state can be named" — the
  // cache was bypassed there, nothing to cross-check.
  std::map<std::pair<uint32_t, uint64_t>, const Observation*> canonical;
  uint64_t grouped = 0;
  for (const Observation& observation : observations) {
    if (observation.state_version == 0) continue;
    ++grouped;
    const auto key =
        std::make_pair(observation.query, observation.state_version);
    const auto [it, fresh] = canonical.emplace(key, &observation);
    if (!fresh) {
      EXPECT_EQ(observation.entries, it->second->entries)
          << "divergent bytes for query " << observation.query
          << " at catalog state " << observation.state_version
          << " (hit=" << observation.cache_hit << ")";
    }
  }
  EXPECT_GT(grouped, 0u);

  // End state: quiesced, every query must match the direct cache-off
  // recompute (final stable tag, hit or miss).
  for (uint32_t q = 0;
       q < static_cast<uint32_t>(workload.communities().size()); ++q) {
    const TopKResult reference =
        server.topk().Query(*workload.communities()[q], topk);
    ServeRequest request;
    request.kind = RequestKind::kTopK;
    request.community = workload.communities()[q];
    request.topk = topk;
    const ServeResponse response = server.SubmitAndWait(request);
    ASSERT_EQ(response.status, ServeStatus::kOk);
    EXPECT_EQ(response.topk.entries, reference.entries);
  }
}

}  // namespace
}  // namespace csj::service
