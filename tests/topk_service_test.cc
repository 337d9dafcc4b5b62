// Differential test of the top-k cutoff: the best-bound-first walk with
// the strict current-kth cutoff must return BYTE-IDENTICAL rankings —
// same (id, similarity) sequence, same double bits — as exhaustively
// refining every admissible entry, on hundreds of seeded catalogs, for
// both exact methods and several epsilon regimes.

#include "service/topk.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "service/catalog.h"
#include "service/workload.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

/// One seeded catalog + query. Communities are kept tiny (12-30 users)
/// so the suite refines thousands of exact joins in seconds; the cutoff
/// logic is size-oblivious.
struct Scenario {
  CommunityCatalog catalog;
  Community query{1};
};

/// Builds catalog entries clustered around anchors so the bound ordering
/// sees real structure (near-duplicates, graded similarity, uniform
/// noise) instead of uniformly-mediocre candidates.
void BuildScenario(Scenario* scenario, uint64_t salt, Epsilon eps,
                   bool plant_ties) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(
      static_cast<data::Category>(salt % data::kNumCategories));
  const uint32_t entries = 6 + static_cast<uint32_t>(rng.Below(7));  // 6-12

  // The query: a fresh community mid-band so most entries are admissible.
  const auto query_size = static_cast<uint32_t>(rng.Between(14, 24));
  scenario->query = data::MakeCommunity(gen, query_size, rng);

  for (uint64_t id = 1; id <= entries; ++id) {
    const auto size = static_cast<uint32_t>(rng.Between(12, 30));
    Community community(gen.d());
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      // Planted against the query at a graded similarity target, capped
      // so the planted user count never exceeds the query's size (the
      // sampler's precondition).
      data::CoupleSpec spec;
      spec.size_b = size;
      spec.eps = eps;
      const double target = 0.1 + 0.15 * static_cast<double>(id % 5);
      const double cap = 0.9 * static_cast<double>(scenario->query.size()) /
                         static_cast<double>(size);
      spec.target_similarity = std::min(target, cap);
      community = data::PlantCommunityAgainst(scenario->query, gen, spec, rng);
    } else {
      community = data::MakeCommunity(gen, size, rng);
    }
    scenario->catalog.Upsert(id, std::move(community));
  }

  if (plant_ties) {
    // Exact duplicates of an existing entry: identical similarity AND
    // identical bound, so both the kth-tie rule (a candidate with bound
    // == kth similarity must refine) and the id-ascending tie-break in
    // the final ranking are exercised.
    const CatalogEntry dup = scenario->catalog.Get(1);
    ASSERT_NE(dup.community, nullptr);
    scenario->catalog.Upsert(entries + 1, Community(*dup.community));
    scenario->catalog.Upsert(entries + 2, Community(*dup.community));
  }
}

/// The two arms differ ONLY in use_bound_cutoff; everything else —
/// including the deterministic serial execution — is shared.
void ExpectCutoffIdentity(const Scenario& scenario, Method method,
                          Epsilon eps, uint32_t k, uint64_t* bound_skipped,
                          uint64_t* refined_saved) {
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = k;
  options.method = method;
  options.join.eps = eps;

  options.use_bound_cutoff = true;
  const TopKResult pruned = service.Query(scenario.query, options);
  options.use_bound_cutoff = false;
  const TopKResult exhaustive = service.Query(scenario.query, options);

  EXPECT_FALSE(pruned.deadline_expired);
  EXPECT_FALSE(exhaustive.deadline_expired);
  // Byte identity: TopKEntry::operator== compares the doubles exactly.
  ASSERT_EQ(pruned.entries.size(), exhaustive.entries.size());
  for (size_t i = 0; i < pruned.entries.size(); ++i) {
    EXPECT_EQ(pruned.entries[i], exhaustive.entries[i])
        << "rank " << i << " diverged (method "
        << MethodName(method) << ", eps " << eps << ")";
  }
  // The exhaustive arm by definition refines every admissible entry.
  EXPECT_EQ(exhaustive.stats.refined, exhaustive.stats.admissible);
  EXPECT_EQ(exhaustive.stats.bound_skipped, 0u);
  EXPECT_LE(pruned.stats.refined, exhaustive.stats.refined);
  EXPECT_EQ(pruned.stats.refined + pruned.stats.bound_skipped,
            pruned.stats.admissible);
  *bound_skipped += pruned.stats.bound_skipped;
  *refined_saved += exhaustive.stats.refined - pruned.stats.refined;
}

TEST(TopKServiceTest, CutoffIdenticalToExhaustiveRefine) {
  const Method methods[] = {Method::kExMinMax, Method::kExBaseline};
  const Epsilon eps_values[] = {0, 2, 8};
  // 100 scenarios x 2 methods x 3 eps = 600 seeded catalog comparisons
  // (>= the 500 the acceptance bar asks for). Every 4th scenario plants
  // duplicate entries to force exact ties at the kth slot.
  constexpr uint64_t kScenarios = 100;
  uint64_t bound_skipped = 0;
  uint64_t refined_saved = 0;
  for (uint64_t s = 0; s < kScenarios; ++s) {
    for (const Epsilon eps : eps_values) {
      Scenario scenario;
      BuildScenario(&scenario, /*salt=*/s * 31 + eps, eps,
                    /*plant_ties=*/s % 4 == 0);
      if (::testing::Test::HasFatalFailure()) return;
      for (const Method method : methods) {
        // Small k relative to the catalog so the cutoff has room to act.
        ExpectCutoffIdentity(scenario, method, eps, /*k=*/3, &bound_skipped,
                             &refined_saved);
      }
    }
  }
  // The cutoff must actually fire across the suite — otherwise this test
  // only proves the trivial identity.
  EXPECT_GT(bound_skipped, 0u);
  EXPECT_GT(refined_saved, 0u);
}

TEST(TopKServiceTest, CutoffIdenticalUnderBatchedParallelWaves) {
  // Multi-couple waves (query_threads > 1, one join per thread per wave)
  // refine extra candidates per wave; the merged ranking must not change.
  uint64_t skipped = 0;
  uint64_t saved = 0;
  for (uint64_t s = 0; s < 16; ++s) {
    Scenario scenario;
    BuildScenario(&scenario, /*salt=*/7000 + s, /*eps=*/2,
                  /*plant_ties=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    const TopKSimilarService service(&scenario.catalog);

    // k = 1 keeps the cutoff as tight as possible, so it demonstrably
    // fires even in small catalogs; ranking identity is what matters.
    TopKOptions serial;
    serial.k = 1;
    serial.join.eps = 2;
    serial.use_bound_cutoff = false;
    const TopKResult oracle = service.Query(scenario.query, serial);

    TopKOptions batched = serial;
    batched.use_bound_cutoff = true;
    batched.query_threads = 4;
    const TopKResult waved = service.Query(scenario.query, batched);

    ASSERT_EQ(waved.entries.size(), oracle.entries.size());
    for (size_t i = 0; i < waved.entries.size(); ++i) {
      EXPECT_EQ(waved.entries[i], oracle.entries[i]) << "rank " << i;
    }
    skipped += waved.stats.bound_skipped;
    saved += oracle.stats.refined - waved.stats.refined;
  }
  EXPECT_GT(skipped + saved, 0u);
}

TEST(TopKServiceTest, RankingIsSimilarityDescThenIdAsc) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/123, /*eps=*/2, /*plant_ties=*/true);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 100;  // everything admissible
  options.join.eps = 2;
  const TopKResult result = service.Query(scenario.query, options);
  ASSERT_GT(result.entries.size(), 1u);
  for (size_t i = 1; i < result.entries.size(); ++i) {
    const TopKEntry& prev = result.entries[i - 1];
    const TopKEntry& here = result.entries[i];
    EXPECT_TRUE(prev.similarity > here.similarity ||
                (prev.similarity == here.similarity && prev.id < here.id))
        << "rank " << i << " out of order";
  }
}

TEST(TopKServiceTest, DuplicateEntriesTieBreakAscending) {
  // Three byte-identical communities: similarities are exactly equal, so
  // the ranking among them must be id-ascending regardless of the walk.
  Scenario scenario;
  util::Rng rng(testing::TestSeed(55));
  data::VkLikeGenerator gen(data::Category::kMusic);
  scenario.query = data::MakeCommunity(gen, 20, rng);
  const Community base = data::MakeCommunity(gen, 20, rng);
  scenario.catalog.Upsert(11, Community(base));
  scenario.catalog.Upsert(3, Community(base));
  scenario.catalog.Upsert(7, Community(base));

  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 2;  // k smaller than the tie group: the cutoff sees a tie
  options.join.eps = 2;
  const TopKResult pruned = service.Query(scenario.query, options);
  options.use_bound_cutoff = false;
  const TopKResult exhaustive = service.Query(scenario.query, options);

  ASSERT_EQ(pruned.entries.size(), 2u);
  EXPECT_EQ(pruned.entries[0].id, 3u);
  EXPECT_EQ(pruned.entries[1].id, 7u);
  ASSERT_EQ(exhaustive.entries.size(), 2u);
  EXPECT_EQ(pruned.entries[0], exhaustive.entries[0]);
  EXPECT_EQ(pruned.entries[1], exhaustive.entries[1]);
}

TEST(TopKServiceTest, StatsAccountForEveryEntry) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/9, /*eps=*/2, /*plant_ties=*/false);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = 2;
  const TopKResult result = service.Query(scenario.query, options);
  EXPECT_EQ(result.stats.catalog_entries, scenario.catalog.size());
  EXPECT_EQ(result.stats.admissible + result.stats.inadmissible,
            result.stats.catalog_entries);
  EXPECT_EQ(result.stats.refined + result.stats.bound_skipped,
            result.stats.admissible);
  EXPECT_LE(result.entries.size(), 3u);
}

TEST(TopKServiceTest, ExpiredDeadlineReturnsFlaggedPartial) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/77, /*eps=*/2, /*plant_ties=*/false);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = 2;
  // A deadline already in the past: the query must bail at the first
  // phase boundary, flag the result, and refine nothing.
  const Deadline expired =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const TopKResult result = service.Query(scenario.query, options, expired);
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_EQ(result.stats.refined, 0u);
}

// ---- Entry artifacts vs the per-couple path --------------------------

/// One catalog of the entry-artifact differential, with the cache its
/// queries hand to JoinOptions::cache (null for none).
struct Arm {
  std::unique_ptr<EncodingCache> cache;
  std::unique_ptr<CommunityCatalog> catalog;
};

constexpr Epsilon kWarmEps = 2;
/// A warm eps no query of the differential uses: that catalog's entries
/// never serve a couple, so it is the per-couple reference.
constexpr Epsilon kOtherWarmEps = 5;

Arm MakeArm(const std::vector<Community>& entries, uint32_t shards,
            Epsilon warm_eps, bool with_cache, size_t cache_bytes) {
  Arm arm;
  CommunityCatalog::Options options;
  options.shards = shards;
  options.warm_eps = warm_eps;
  options.signatures = SignatureOptions{};
  if (with_cache) arm.cache = std::make_unique<EncodingCache>(cache_bytes);
  arm.catalog = std::make_unique<CommunityCatalog>(options);
  for (size_t i = 0; i < entries.size(); ++i) {
    arm.catalog->Upsert(i + 1, Community(entries[i]));
  }
  return arm;
}

/// A seeded catalog clustered around `anchor` (graded planted entries
/// plus noise) and entry sizes on both sides of the queries', so both
/// couple orientations occur.
std::vector<Community> SeededEntries(uint64_t salt, const Community& anchor,
                                     uint32_t count) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  std::vector<Community> entries;
  for (uint32_t i = 0; i < count; ++i) {
    const auto size = static_cast<uint32_t>(rng.Between(10, 32));
    if (i % 2 == 0) {
      data::CoupleSpec spec;
      spec.size_b = size;
      spec.eps = kWarmEps;
      const double cap = 0.9 * static_cast<double>(anchor.size()) /
                         static_cast<double>(size);
      spec.target_similarity = std::min(0.15 + 0.1 * (i % 7), cap);
      entries.push_back(data::PlantCommunityAgainst(anchor, gen, spec, rng));
    } else {
      entries.push_back(data::MakeCommunity(gen, size, rng));
    }
  }
  return entries;
}

void ExpectSameAnswer(const TopKResult& got, const TopKResult& want,
                      const std::string& where) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
  for (size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i], want.entries[i]) << where << " rank " << i;
  }
  EXPECT_EQ(got.stats.admissible, want.stats.admissible) << where;
  EXPECT_EQ(got.stats.inadmissible, want.stats.inadmissible) << where;
  EXPECT_EQ(got.stats.refined, want.stats.refined) << where;
  EXPECT_EQ(got.stats.bound_skipped, want.stats.bound_skipped) << where;
  EXPECT_EQ(got.stats.waves, want.stats.waves) << where;
  EXPECT_EQ(got.stats.prescreen_probed, want.stats.prescreen_probed)
      << where;
  EXPECT_EQ(got.stats.fallback, want.stats.fallback) << where;
}

TEST(TopKServiceTest, EntryArtifactsMatchThePerCouplePath) {
  const uint32_t shard_counts[] = {1, 3, 8};
  const Method methods[] = {Method::kExMinMax, Method::kApMinMax};
  uint64_t compared = 0;
  uint64_t bound_skipped = 0;
  for (uint64_t s = 0; s < 6; ++s) {
    util::Rng rng(testing::TestSeed(9100 + s));
    data::VkLikeGenerator gen(data::Category::kSport);
    std::vector<Community> queries;
    for (int q = 0; q < 3; ++q) {
      queries.push_back(data::MakeCommunity(
          gen, static_cast<uint32_t>(rng.Between(14, 24)), rng));
    }
    const std::vector<Community> entries =
        SeededEntries(9200 + s, queries[0], 36);
    queries.push_back(entries[3]);  // a query equal to a catalog entry

    const uint32_t shards = shard_counts[s % 3];
    const Arm reference = MakeArm(entries, shards, kOtherWarmEps,
                                  /*with_cache=*/false, 0);
    const Arm plain =
        MakeArm(entries, shards, kWarmEps, /*with_cache=*/false, 0);
    const Arm warm = MakeArm(entries, shards, kWarmEps, /*with_cache=*/true, 0);
    // A budget far below one couple's encodings: off the warm eps the
    // per-couple path keeps evicting what it builds.
    const Arm tight =
        MakeArm(entries, shards, kWarmEps, /*with_cache=*/true, 2048);
    const TopKSimilarService reference_service(reference.catalog.get());

    for (size_t q = 0; q < queries.size(); ++q) {
      for (const Method method : methods) {
        for (const uint32_t k : {1u, 3u, 10u}) {
          for (const bool prescreen : {false, true}) {
            // eps 3 differs from the warm eps: the per-couple path serves
            // every arm, through the cache on the arms that have one.
            for (const Epsilon eps : {kWarmEps, Epsilon{3}}) {
              TopKOptions options;
              options.k = k;
              options.method = method;
              options.join.eps = eps;
              options.prescreen = prescreen;
              options.prescreen_threshold = 0.2;
              if (k == 3) {  // parallel bound phase and waves
                options.query_threads = 4;
              }
              const TopKResult want =
                  reference_service.Query(queries[q], options);
              const std::string where =
                  "scenario " + std::to_string(s) + " query " +
                  std::to_string(q) + " " + MethodName(method) + " k " +
                  std::to_string(k) + " prescreen " +
                  std::to_string(prescreen) + " eps " + std::to_string(eps);
              for (const Arm* arm : {&plain, &warm, &tight}) {
                options.join.cache = arm->cache.get();
                const EncodingCache::Stats before =
                    arm->cache == nullptr ? EncodingCache::Stats{}
                                          : arm->cache->GetStats();
                const TopKResult got =
                    TopKSimilarService(arm->catalog.get())
                        .Query(queries[q], options);
                ExpectSameAnswer(got, want, where);
                if (eps == kWarmEps && arm->cache != nullptr) {
                  // The entries' artifacts and the query's own encodings
                  // served every couple: the cache saw no lookup at all.
                  const EncodingCache::Stats after = arm->cache->GetStats();
                  EXPECT_EQ(after.misses, before.misses) << where;
                  EXPECT_EQ(after.hits, before.hits) << where;
                  EXPECT_EQ(after.bytes_built, before.bytes_built) << where;
                  EXPECT_EQ(after.entries, before.entries) << where;
                }
              }
              ++compared;
              bound_skipped += want.stats.bound_skipped;
            }
          }
        }
      }
    }
    EXPECT_GT(warm.cache->GetStats().misses, 0u);  // eps 3 went through it
    EXPECT_GT(tight.cache->GetStats().evictions, 0u);
  }
  EXPECT_EQ(compared, 6u * 4 * 2 * 3 * 2 * 2);
  EXPECT_GT(bound_skipped, 0u);  // the cutoff fired, so the bounds mattered
}

TEST(TopKServiceTest, AdHocQueriesLeaveTheEncodingCacheUnchanged) {
  util::Rng rng(testing::TestSeed(9300));
  data::VkLikeGenerator gen(data::Category::kMusic);
  const Community anchor = data::MakeCommunity(gen, 20, rng);
  const Arm arm = MakeArm(SeededEntries(9301, anchor, 24), /*shards=*/4,
                          kWarmEps, /*with_cache=*/true, /*cache_bytes=*/0);
  const EncodingCache::Stats before = arm.cache->GetStats();

  const TopKSimilarService service(arm.catalog.get());
  TopKOptions options;
  options.k = 5;
  options.join.eps = kWarmEps;
  options.join.cache = arm.cache.get();
  uint32_t refined = 0;
  for (int q = 0; q < 40; ++q) {  // distinct communities, none cataloged
    const Community query = data::MakeCommunity(
        gen, static_cast<uint32_t>(rng.Between(12, 26)), rng);
    refined += service.Query(query, options).stats.refined;
  }
  EXPECT_GT(refined, 0u);
  const EncodingCache::Stats after = arm.cache->GetStats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(TopKServiceTest, ConcurrentQueriesShareEntryArtifacts) {
  // Readers on several threads walk the same entries' artifacts, each
  // with its own parallel waves; every answer equals the serial one.
  util::Rng rng(testing::TestSeed(9400));
  data::VkLikeGenerator gen(data::Category::kSport);
  std::vector<Community> queries;
  for (int q = 0; q < 4; ++q) {
    queries.push_back(data::MakeCommunity(
        gen, static_cast<uint32_t>(rng.Between(14, 24)), rng));
  }
  const Arm arm = MakeArm(SeededEntries(9401, queries[0], 30), /*shards=*/4,
                          kWarmEps, /*with_cache=*/false, /*cache_bytes=*/0);
  const TopKSimilarService service(arm.catalog.get());
  TopKOptions options;
  options.k = 4;
  options.join.eps = kWarmEps;
  options.query_threads = 2;
  std::vector<std::vector<TopKEntry>> serial;
  for (const Community& query : queries) {
    serial.push_back(service.Query(query, options).entries);
  }
  std::vector<int> mismatches(queries.size(), 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < queries.size(); ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        if (service.Query(queries[t], options).entries != serial[t]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (size_t t = 0; t < queries.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  }
}

TEST(TopKServiceTest, ReachBoundRefinesAFewCouplesOnAPrescreenCatalog) {
  // The prescreen serving shape at 3k entries: 40-user communities in
  // 12-member clusters planted at 0.5-0.8 with eps 1. Couple totals are
  // alike across topics, so only a per-dimension bound can separate the
  // planted cluster from the rest of the catalog.
  WorkloadOptions shape;
  shape.catalog_size = 3000;
  shape.community_size = 40;
  shape.cluster_size = 12;
  shape.plant_lo = 0.5;
  shape.plant_hi = 0.8;
  shape.eps = 1;
  shape.seed = testing::TestSeed(9500);
  const ServeWorkload workload(shape);
  CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = shape.eps;
  catalog_options.signatures = SignatureOptions{};
  CommunityCatalog catalog(catalog_options);
  for (size_t i = 0; i < workload.communities().size(); ++i) {
    catalog.Upsert(i + 1, Community(*workload.communities()[i]));
  }
  const TopKSimilarService service(&catalog);

  uint64_t admissible = 0;
  uint64_t refined = 0;
  uint64_t probed = 0;
  uint64_t skipped = 0;
  uint64_t fallbacks = 0;
  util::Rng rng(testing::TestSeed(9501));
  for (int q = 0; q < 24; ++q) {
    const Community& query = *workload.communities()[rng.Below(
        workload.communities().size())];
    TopKOptions options;
    options.k = 5;
    options.join.eps = shape.eps;
    options.use_bound_cutoff = false;
    const TopKResult want = service.Query(query, options);
    options.use_bound_cutoff = true;
    const TopKResult walked = service.Query(query, options);
    options.prescreen = true;
    const TopKResult screened = service.Query(query, options);
    const std::string where = "query " + std::to_string(q);
    ASSERT_EQ(want.entries.size(), 5u) << where;
    EXPECT_EQ(walked.entries, want.entries) << where;
    EXPECT_EQ(screened.entries, want.entries) << where;
    EXPECT_EQ(walked.stats.admissible, want.stats.admissible) << where;
    admissible += walked.stats.admissible;
    refined += walked.stats.refined;
    probed += screened.stats.prescreen_probed;
    skipped += screened.stats.prescreen_skipped;
    fallbacks += screened.stats.fallback;
  }
  // The interval bound on encoded totals refined ~100% of admissible
  // couples here; the reach bound refines little beyond the top-k.
  EXPECT_LE(refined * 20, admissible)
      << "refined " << refined << " of " << admissible << " admissible";
  // The prescreen's structural claims at this shape: the sweep admits
  // under 10% of the catalog to the exact path (~4% measured), and every
  // top-k certifies from its candidates without the exhaustive fallback.
  EXPECT_LT(probed * 10, probed + skipped)
      << "probed " << probed << " of " << probed + skipped << " swept";
  EXPECT_EQ(fallbacks, 0u);
}

}  // namespace
}  // namespace csj::service
