// Tests for the community-level encoding cache: keying and invalidation,
// build deduplication under thread races, Clear/eviction safety, the
// JoinStats counter surfacing, and — the load-bearing guarantee — cache-on
// vs cache-off byte-identical pipeline reports for every method pairing.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/encoding_cache.h"
#include "core/join_options.h"
#include "core/method.h"
#include "pipeline/screening.h"
#include "util/rng.h"

namespace csj {
namespace {

Community RandomCommunity(Dim d, uint32_t users, Count max_value,
                          uint64_t seed, const std::string& name) {
  util::Rng rng(seed);
  Community community(d, name);
  std::vector<Count> row(d);
  for (uint32_t u = 0; u < users; ++u) {
    for (Dim k = 0; k < d; ++k) {
      row[k] = static_cast<Count>(rng.Below(max_value + 1));
    }
    community.AddUser(row);
  }
  return community;
}

TEST(CommunityDigestTest, ContentKeyedAndMutationAware) {
  const Community x = RandomCommunity(27, 50, 6, 1, "x");
  Community y = x;  // identical content, distinct object
  EXPECT_EQ(DigestCommunity(x).fingerprint, DigestCommunity(y).fingerprint);
  EXPECT_EQ(DigestCommunity(x).max_counter, x.MaxCounter());

  // Any counter mutation must change the fingerprint — that IS the
  // invalidation story: a mutated community simply keys new entries.
  y.MutableUser(7)[3] += 1;
  EXPECT_NE(DigestCommunity(x).fingerprint, DigestCommunity(y).fingerprint);

  // Same counters in a different shape must not collide.
  const Community flat(1, std::vector<Count>{1, 2, 3, 4});
  const Community tall(2, std::vector<Count>{1, 2, 3, 4});
  EXPECT_NE(DigestCommunity(flat).fingerprint,
            DigestCommunity(tall).fingerprint);
}

TEST(EncodingCacheTest, SecondLookupHitsAndSharesTheBuffer) {
  EncodingCache cache;
  const Community a = RandomCommunity(27, 80, 6, 2, "a");
  const CommunityDigest digest = DigestCommunity(a);

  JoinStats stats1;
  const auto first = cache.GetEncodedA(a, digest, 1, 4, &stats1);
  EXPECT_EQ(stats1.cache_misses, 1u);
  EXPECT_EQ(stats1.cache_hits, 0u);
  EXPECT_GT(stats1.cache_bytes_built, 0u);

  JoinStats stats2;
  const auto second = cache.GetEncodedA(a, digest, 1, 4, &stats2);
  EXPECT_EQ(stats2.cache_misses, 0u);
  EXPECT_EQ(stats2.cache_hits, 1u);
  EXPECT_EQ(stats2.cache_bytes_built, 0u);
  EXPECT_EQ(first.get(), second.get());  // one shared immutable buffer

  // Different parameters are different entries.
  JoinStats stats3;
  const auto other_eps = cache.GetEncodedA(a, digest, 2, 4, &stats3);
  EXPECT_EQ(stats3.cache_misses, 1u);
  EXPECT_NE(first.get(), other_eps.get());

  const EncodingCache::Stats totals = cache.GetStats();
  EXPECT_EQ(totals.misses, 2u);
  EXPECT_EQ(totals.hits, 1u);
  EXPECT_EQ(totals.entries, 2u);
  EXPECT_GT(totals.bytes, 0u);
}

TEST(EncodingCacheTest, ConcurrentLookupsBuildExactlyOnce) {
  // N threads race on ONE key: build dedup must make misses == 1 and all
  // threads must end up with the same buffer. Run several rounds over
  // fresh keys to give interleavings a chance to vary.
  EncodingCache cache;
  const Community a = RandomCommunity(27, 400, 6, 3, "a");
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kRounds = 5;
  for (uint32_t round = 0; round < kRounds; ++round) {
    const Epsilon eps = static_cast<Epsilon>(round + 1);  // fresh key
    const CommunityDigest digest = DigestCommunity(a);
    std::vector<std::shared_ptr<const EncodedA>> results(kThreads);
    std::vector<JoinStats> stats(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = cache.GetEncodedA(a, digest, eps, 4, &stats[t]);
      });
    }
    for (auto& thread : threads) thread.join();

    uint64_t misses = 0;
    uint64_t hits = 0;
    for (uint32_t t = 0; t < kThreads; ++t) {
      ASSERT_NE(results[t], nullptr);
      EXPECT_EQ(results[t].get(), results[0].get());
      misses += stats[t].cache_misses;
      hits += stats[t].cache_hits;
    }
    EXPECT_EQ(misses, 1u) << "round " << round;
    EXPECT_EQ(hits, kThreads - 1) << "round " << round;
  }
}

TEST(EncodingCacheTest, ClearDropsEntriesButNotBorrowedBuffers) {
  EncodingCache cache;
  const Community a = RandomCommunity(27, 60, 6, 4, "a");
  const CommunityDigest digest = DigestCommunity(a);
  const auto held = cache.GetEncodedA(a, digest, 1, 4, nullptr);
  ASSERT_EQ(cache.GetStats().entries, 1u);

  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
  // The borrowed buffer stays alive and readable.
  EXPECT_EQ(held->size(), 60u);
  EXPECT_EQ(held->window().size(), 60u);

  // Next lookup is a miss and builds a NEW buffer.
  JoinStats stats;
  const auto rebuilt = cache.GetEncodedA(a, digest, 1, 4, &stats);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_NE(rebuilt.get(), held.get());
}

TEST(EncodingCacheTest, EvictionUnpinsOldEntriesUnderAByteBudget) {
  // A budget small enough that a handful of communities cannot all stay
  // resident. Evicted buffers must stay valid through live shared_ptrs.
  EncodingCache cache(/*capacity_bytes=*/64 * 1024);
  std::vector<std::shared_ptr<const EncodedA>> held;
  for (uint32_t i = 0; i < 24; ++i) {
    const Community a = RandomCommunity(27, 300, 6, 100 + i, "a");
    held.push_back(cache.GetEncodedA(a, DigestCommunity(a), 1, 4, nullptr));
  }
  const EncodingCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 24u);
  for (const auto& ptr : held) {
    ASSERT_NE(ptr, nullptr);
    EXPECT_EQ(ptr->size(), 300u);  // evicted or not, still readable
  }
}

TEST(EncodingCacheTest, JoinSurfacesCacheCountersInStats) {
  EncodingCache cache;
  const Community b = RandomCommunity(27, 100, 5, 5, "b");
  const Community a = RandomCommunity(27, 140, 5, 6, "a");
  JoinOptions options;
  options.eps = 1;
  options.cache = &cache;

  const JoinResult cold = RunMethod(Method::kApMinMax, b, a, options);
  EXPECT_EQ(cold.stats.cache_misses, 2u);  // EncodedB + EncodedA
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.cache_bytes_built, 0u);

  const JoinResult warm = RunMethod(Method::kApMinMax, b, a, options);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 2u);
  EXPECT_EQ(warm.stats.cache_bytes_built, 0u);
  EXPECT_EQ(warm.pairs, cold.pairs);
}

/// Everything observable about a report except timings and cache totals
/// (timings are wall-clock; cache totals legitimately differ between the
/// cache-on and cache-off arms).
void ExpectReportsIdentical(const pipeline::PipelineReport& x,
                            const pipeline::PipelineReport& y,
                            const std::string& label) {
  EXPECT_EQ(x.screened, y.screened) << label;
  EXPECT_EQ(x.refined, y.refined) << label;
  EXPECT_EQ(x.inadmissible, y.inadmissible) << label;
  EXPECT_EQ(x.bound_pruned, y.bound_pruned) << label;
  ASSERT_EQ(x.entries.size(), y.entries.size()) << label;
  for (size_t i = 0; i < x.entries.size(); ++i) {
    const pipeline::PipelineEntry& ex = x.entries[i];
    const pipeline::PipelineEntry& ey = y.entries[i];
    EXPECT_EQ(ex.candidate_index, ey.candidate_index) << label << " #" << i;
    EXPECT_EQ(ex.candidate_name, ey.candidate_name) << label << " #" << i;
    EXPECT_EQ(ex.refined, ey.refined) << label << " #" << i;
    // Bitwise double equality: the similarity must be the same NUMBER,
    // not merely close.
    EXPECT_EQ(std::memcmp(&ex.screened_similarity, &ey.screened_similarity,
                          sizeof(double)),
              0)
        << label << " #" << i;
    EXPECT_EQ(std::memcmp(&ex.refined_similarity, &ey.refined_similarity,
                          sizeof(double)),
              0)
        << label << " #" << i;
  }
}

TEST(EncodingCachePipelineTest, CacheOnOffIdenticalForEveryMethodPairing) {
  // A small catalog with enough overlap that screens pass and refines run.
  std::vector<Community> catalog;
  for (uint32_t i = 0; i < 5; ++i) {
    catalog.push_back(RandomCommunity(27, 120 + 10 * i, 4, 40 + i,
                                      std::string("c") + std::to_string(i)));
  }
  std::vector<const Community*> pointers;
  for (const Community& c : catalog) pointers.push_back(&c);

  const Method screens[] = {Method::kApBaseline, Method::kApMinMax,
                            Method::kApSuperEgo, Method::kApMinMaxEgo};
  const Method refines[] = {Method::kExBaseline, Method::kExMinMax,
                            Method::kExSuperEgo, Method::kExMinMaxEgo};
  for (const Method screen : screens) {
    for (const Method refine : refines) {
      pipeline::PipelineOptions options;
      options.screen_method = screen;
      options.refine_method = refine;
      // Refine EVERY couple: the SuperEGO screens key their prep by the
      // couple's max counter and dimension order, so with all-distinct
      // couples their reuse comes from the refine phase revisiting the
      // same communities — which must therefore run.
      options.screen_threshold = 0.0;
      options.join.eps = 1;

      const pipeline::PipelineReport off =
          pipeline::ScreenAndRefineAllPairs(pointers, options);

      EncodingCache cache;
      options.join.cache = &cache;
      const pipeline::PipelineReport on =
          pipeline::ScreenAndRefineAllPairs(pointers, options);

      std::string label = MethodName(screen);
      label += " / ";
      label += MethodName(refine);
      ExpectReportsIdentical(off, on, label);
      EXPECT_EQ(off.cache_hits + off.cache_misses, 0u) << label;
      EXPECT_GT(on.cache_misses, 0u) << label;  // something was built
      EXPECT_GT(on.cache_hits, 0u) << label;    // ... and then reused
    }
  }
}

TEST(EncodingCachePipelineTest, CacheTotalsDeterministicAcrossThreadCounts) {
  std::vector<Community> catalog;
  for (uint32_t i = 0; i < 5; ++i) {
    catalog.push_back(RandomCommunity(27, 120, 4, 70 + i, "c"));
  }
  std::vector<const Community*> pointers;
  for (const Community& c : catalog) pointers.push_back(&c);

  pipeline::PipelineOptions options;
  options.screen_method = Method::kApMinMax;
  options.refine_method = Method::kExMinMax;
  options.screen_threshold = 0.01;
  options.join.eps = 1;

  std::vector<pipeline::PipelineReport> reports;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    EncodingCache cache;  // fresh cache per run: same build set every time
    options.join.cache = &cache;
    options.pipeline_threads = threads;
    reports.push_back(pipeline::ScreenAndRefineAllPairs(pointers, options));
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    ExpectReportsIdentical(reports[0], reports[i], "threads");
    EXPECT_EQ(reports[0].cache_hits, reports[i].cache_hits);
    EXPECT_EQ(reports[0].cache_misses, reports[i].cache_misses);
    EXPECT_EQ(reports[0].cache_bytes_built, reports[i].cache_bytes_built);
  }
}

}  // namespace
}  // namespace csj
