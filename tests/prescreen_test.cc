// Differential test of prescreen serving: with the signature index in
// front of the exact bound+refine path, every top-k query must return
// BYTE-IDENTICAL rankings — same (id, similarity) sequence, same double
// bits — as the exhaustive scan, on hundreds of seeded catalogs. The
// suite also pins the fallback contract (certified results skip the
// fallback, uncertified ones rerun exhaustively), the stats invariants,
// the inert configurations, how a probe head is refined once its entry
// moved on, and index/entry-map consistency under concurrent
// upsert/remove churn (the TSan target).

#include "service/topk.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "core/similarity.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "service/catalog.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

CommunityCatalog::Options WithSignatures() {
  CommunityCatalog::Options options;
  options.signatures = SignatureOptions{};
  return options;
}

/// One seeded catalog + query, signatures enabled. Mirrors the
/// topk_service_test scenario builder but mixes categories so the
/// signature sweep sees genuinely dissimilar entries it can certify away
/// (same-category noise mostly survives the cap; cross-category noise
/// mostly does not).
struct Scenario {
  CommunityCatalog catalog{WithSignatures()};
  Community query{1};
};

void BuildScenario(Scenario* scenario, uint64_t salt, Epsilon eps) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(
      static_cast<data::Category>(salt % data::kNumCategories));
  const uint32_t entries = 8 + static_cast<uint32_t>(rng.Below(9));  // 8-16

  const auto query_size = static_cast<uint32_t>(rng.Between(14, 24));
  scenario->query = data::MakeCommunity(gen, query_size, rng);

  for (uint64_t id = 1; id <= entries; ++id) {
    const auto size = static_cast<uint32_t>(rng.Between(12, 30));
    Community community(gen.d());
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      // Planted against the query at a graded similarity target.
      data::CoupleSpec spec;
      spec.size_b = size;
      spec.eps = eps;
      const double target = 0.1 + 0.15 * static_cast<double>(id % 5);
      const double cap = 0.9 * static_cast<double>(scenario->query.size()) /
                         static_cast<double>(size);
      spec.target_similarity = std::min(target, cap);
      community = data::PlantCommunityAgainst(scenario->query, gen, spec, rng);
    } else if (roll < 0.7) {
      // Same-category noise: plausible but unplanted.
      community = data::MakeCommunity(gen, size, rng);
    } else {
      // Cross-category noise: what the sweep should certify away.
      data::VkLikeGenerator other(static_cast<data::Category>(
          (salt + id) % data::kNumCategories));
      community = data::MakeCommunity(other, size, rng);
    }
    scenario->catalog.Upsert(id, std::move(community));
  }
}

/// The two arms differ ONLY in options.prescreen.
void ExpectPrescreenIdentity(const Scenario& scenario, Epsilon eps,
                             uint32_t k, double threshold,
                             uint64_t* skipped_total,
                             uint64_t* fallback_total,
                             uint64_t* certified_total,
                             uint64_t* packs_skipped_total) {
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = k;
  options.method = Method::kExMinMax;
  options.join.eps = eps;
  options.prescreen_threshold = threshold;

  options.prescreen = false;
  const TopKResult scan = service.Query(scenario.query, options);
  options.prescreen = true;
  const TopKResult screened = service.Query(scenario.query, options);

  EXPECT_FALSE(scan.deadline_expired);
  EXPECT_FALSE(screened.deadline_expired);
  ASSERT_EQ(screened.entries.size(), scan.entries.size());
  for (size_t i = 0; i < scan.entries.size(); ++i) {
    EXPECT_EQ(screened.entries[i], scan.entries[i])
        << "rank " << i << " diverged (eps " << eps << ", k " << k
        << ", tau " << threshold << ")";
  }

  // Stats invariants of the prescreen path.
  if (screened.stats.fallback == 0) {
    EXPECT_EQ(screened.stats.prescreen_probed + screened.stats.prescreen_skipped,
              static_cast<uint64_t>(screened.stats.catalog_entries));
    EXPECT_EQ(screened.stats.admissible + screened.stats.inadmissible,
              screened.stats.prescreen_probed);
    ++*certified_total;
  } else {
    EXPECT_EQ(screened.stats.fallback, 1u);
    // The fallback refined against the full snapshot.
    EXPECT_EQ(screened.stats.catalog_entries, scan.stats.catalog_entries);
    ++*fallback_total;
  }
  *skipped_total += screened.stats.prescreen_skipped;
  *packs_skipped_total += screened.stats.prescreen_packs_skipped;
}

TEST(PrescreenTest, IdenticalToExhaustiveScanOnSeededCatalogs) {
  const Epsilon eps_values[] = {0, 2, 8};
  const uint32_t k_values[] = {1, 3, 5};
  uint64_t skipped = 0, fallbacks = 0, certified = 0, packs_skipped = 0;
  // 120 scenarios x 3 (eps, k) pairings = 360 seeded catalog
  // comparisons (>= the 300 the acceptance bar asks for).
  for (uint64_t salt = 0; salt < 120; ++salt) {
    for (uint32_t variant = 0; variant < 3; ++variant) {
      Scenario scenario;
      const Epsilon eps = eps_values[variant];
      BuildScenario(&scenario, salt * 3 + variant, eps);
      ExpectPrescreenIdentity(scenario, eps, k_values[variant],
                              /*threshold=*/0.10, &skipped, &fallbacks,
                              &certified, &packs_skipped);
    }
  }
  // The suite must exercise all three regimes: entries certified away by
  // the sweep, queries that fall back, and queries certified without a
  // fallback — otherwise the differential proves nothing. The pack-level
  // prefilter must also fire somewhere across the 360 catalogs, or the
  // second filter level rode along untested.
  EXPECT_GT(skipped, 0u) << "no entry was ever prescreen-skipped";
  EXPECT_GT(fallbacks, 0u) << "the fallback path never ran";
  EXPECT_GT(certified, 0u) << "no query was ever certified";
  EXPECT_GT(packs_skipped, 0u) << "the pack prefilter never skipped a pack";
}

TEST(PrescreenTest, EmptyQueryReturnsEmptyResultOnce) {
  Scenario scenario;
  BuildScenario(&scenario, 7001, /*eps=*/1);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  const Community empty(scenario.query.d());
  for (const bool prescreen : {false, true}) {
    options.prescreen = prescreen;
    const TopKResult result = service.Query(empty, options);
    EXPECT_TRUE(result.entries.empty());
    EXPECT_EQ(result.stats.refined, 0u);
    EXPECT_EQ(result.stats.inadmissible, result.stats.catalog_entries);
  }
}

TEST(PrescreenTest, InertWithoutSignatureIndex) {
  // prescreen = true against a catalog built WITHOUT signatures must
  // silently take the exhaustive path (documented inert case).
  CommunityCatalog catalog;  // no Options::signatures
  util::Rng rng(testing::TestSeed(7002));
  data::VkLikeGenerator gen(data::Category::kMusic);
  for (uint64_t id = 1; id <= 6; ++id) {
    catalog.Upsert(id, data::MakeCommunity(
                           gen, static_cast<uint32_t>(rng.Between(12, 20)),
                           rng));
  }
  const Community query = data::MakeCommunity(gen, 16, rng);
  const TopKSimilarService service(&catalog);
  TopKOptions options;
  options.k = 3;
  options.prescreen = true;
  const TopKResult result = service.Query(query, options);
  EXPECT_EQ(result.stats.prescreen_probed, 0u);
  EXPECT_EQ(result.stats.prescreen_skipped, 0u);
  EXPECT_EQ(result.stats.fallback, 0u);
  EXPECT_EQ(result.stats.catalog_entries, 6u);
}

TEST(PrescreenTest, FallbackFillsKWhenCandidatesCannotCertify) {
  // A high threshold starves the candidate set; the fallback must still
  // produce the full exhaustive top-k.
  Scenario scenario;
  BuildScenario(&scenario, 7003, /*eps=*/1);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 5;
  options.join.eps = 1;
  options.prescreen_threshold = 0.99;  // virtually nothing passes

  options.prescreen = false;
  const TopKResult scan = service.Query(scenario.query, options);
  options.prescreen = true;
  const TopKResult screened = service.Query(scenario.query, options);
  ASSERT_EQ(screened.entries.size(), scan.entries.size());
  for (size_t i = 0; i < scan.entries.size(); ++i) {
    EXPECT_EQ(screened.entries[i], scan.entries[i]) << "rank " << i;
  }
  EXPECT_EQ(screened.stats.fallback, 1u);
}

TEST(PrescreenTest, ThresholdZeroAdmitsEverythingAndSkipsFallback) {
  // tau <= 0: the sweep passes every admissible entry, so the candidate
  // set IS the snapshot and the service must not rerun exhaustively.
  Scenario scenario;
  BuildScenario(&scenario, 7004, /*eps=*/1);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = 1;
  options.prescreen = true;
  options.prescreen_threshold = 0.0;
  const TopKResult result = service.Query(scenario.query, options);
  EXPECT_EQ(result.stats.fallback, 0u);
  EXPECT_EQ(result.stats.prescreen_skipped, 0u);
  EXPECT_EQ(result.stats.prescreen_probed,
            static_cast<uint64_t>(result.stats.catalog_entries));
}

TEST(PrescreenTest, SlotsSkippedOnlyForDimensionOrSizeNeedNoFallback) {
  // Slots of another dimensionality or an inadmissible size are
  // inadmissible to the scan too, so a sweep that skipped nothing by cap
  // already holds every admissible entry: even an uncertified result
  // (fewer than k entries) must equal the scan without a fallback.
  CommunityCatalog catalog(WithSignatures());
  util::Rng rng(testing::TestSeed(7005));
  // Rows within eps = 1 of `base`, `users` of them.
  const auto near_copy = [&](const Community& base, uint32_t users) {
    std::vector<Count> flat;
    for (uint32_t u = 0; u < users; ++u) {
      for (const Count v : base.User(u % base.size())) {
        flat.push_back(v + static_cast<Count>(rng.Below(2)));
      }
    }
    return Community(base.d(), std::move(flat));
  };
  data::VkLikeGenerator gen(data::Category::kSport);
  const Community query = data::MakeCommunity(gen, 20, rng);
  // A query of a foreign dimensionality, to which the entries of the
  // generator's d are inadmissible.
  const Dim foreign_d = query.d() + 3;
  std::vector<Count> foreign_flat(static_cast<size_t>(20) * foreign_d);
  for (Count& v : foreign_flat) v = static_cast<Count>(rng.Below(30));
  const Community foreign(foreign_d, std::move(foreign_flat));
  // Near copies of both queries (caps near 1), and copies of `query`
  // too large to be admissible against it.
  for (uint64_t id = 1; id <= 3; ++id) {
    catalog.Upsert(id, near_copy(foreign, 20));
    catalog.Upsert(10 + id, near_copy(query, 20));
  }
  for (uint64_t id = 21; id <= 22; ++id) {
    catalog.Upsert(id, near_copy(query, 60));
  }

  const TopKSimilarService service(&catalog);
  const uint32_t catalog_size = catalog.size();
  for (const Community* q : {&foreign, &query}) {
    TopKOptions options;
    options.k = 5;  // more than the three admissible near copies
    options.join.eps = 1;
    options.prescreen_threshold = 0.10;
    options.prescreen = false;
    const TopKResult scan = service.Query(*q, options);
    options.prescreen = true;
    const TopKResult screened = service.Query(*q, options);
    SCOPED_TRACE("query d " + std::to_string(q->d()));
    ASSERT_EQ(scan.entries.size(), 3u);  // uncertified: fewer than k
    ASSERT_EQ(screened.entries.size(), scan.entries.size());
    for (size_t i = 0; i < scan.entries.size(); ++i) {
      EXPECT_EQ(screened.entries[i], scan.entries[i]) << "rank " << i;
    }
    EXPECT_EQ(screened.stats.fallback, 0u);
    EXPECT_GT(screened.stats.prescreen_skipped, 0u);
    EXPECT_EQ(screened.stats.prescreen_probed +
                  screened.stats.prescreen_skipped,
              catalog_size);
  }
}

TEST(PrescreenTest, HeadsRefineFromResidentArtifactsOrTheirPinnedCommunity) {
  // A probe hands the walk heads without artifacts; Refine fetches the
  // resident entry's artifacts only while it still has the head's
  // version. A head whose entry was replaced or removed after the probe
  // refines its pinned community instead, to the same bits.
  Scenario scenario;
  BuildScenario(&scenario, 7500, /*eps=*/1);
  CommunityCatalog& catalog = scenario.catalog;
  EncodingCache cache;
  TopKOptions options;
  options.method = Method::kExMinMax;
  options.join.eps = 1;  // the catalog's warm eps: artifacts serve
  options.join.cache = &cache;
  const CoupleScorer scorer(catalog, scenario.query, options);
  // The per-couple path on the probed community, without the cache.
  JoinOptions plain = options.join;
  plain.cache = nullptr;
  const auto per_couple = [&](const CatalogEntry& head) {
    const CoupleScorer::Couple couple = scorer.Orient(head);
    return ComputeSimilarity(options.method, *couple.b, *couple.a, plain)
        ->Similarity();
  };
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };

  const CommunitySignature signature(scenario.query,
                                     *catalog.signature_options());
  const CommunityCatalog::ProbeResult probe = catalog.ProbeCandidates(
      signature, SignatureProbeOrder(signature), options.join.eps, 0.0);
  std::vector<CatalogEntry> heads;
  for (const CatalogEntry& head : probe.candidates) {
    EXPECT_EQ(head.encodings, nullptr) << "id " << head.id;
    if (scorer.Admissible(head)) heads.push_back(head);
  }
  ASSERT_GE(heads.size(), 3u);
  // The replaced head must refine above 0, so that its new content (far
  // from every query user) would refine to other bits.
  const auto replaced = std::find_if(
      heads.begin(), heads.end(),
      [&](const CatalogEntry& head) { return per_couple(head) > 0.0; });
  ASSERT_NE(replaced, heads.end());
  const uint64_t replaced_id = replaced->id;
  const uint64_t removed_id =
      (replaced == heads.begin() ? heads.back() : heads.front()).id;

  const std::span<const Count> near = replaced->community->flat();
  std::vector<Count> far(near.begin(), near.end());
  for (Count& v : far) v += 1000;
  catalog.Upsert(replaced_id, Community(replaced->community->d(),
                                        std::move(far)));
  ASSERT_TRUE(catalog.Remove(removed_id));
  ASSERT_NE(bits(per_couple(catalog.Get(replaced_id))),
            bits(per_couple(*replaced)));

  uint32_t moved = 0;
  uint32_t unchanged = 0;
  for (const CatalogEntry& head : heads) {
    if (head.id == replaced_id || head.id == removed_id) {
      EXPECT_EQ(bits(scorer.Refine(head, options.join)),
                bits(per_couple(head)))
          << "moved head " << head.id;
      ++moved;
      continue;
    }
    const CatalogEntry entry = catalog.Get(head.id);
    ASSERT_EQ(entry.version, head.version);
    const EncodingCache::Stats before = cache.GetStats();
    const double got = scorer.Refine(head, options.join);
    const EncodingCache::Stats after = cache.GetStats();
    EXPECT_EQ(bits(got), bits(scorer.Refine(entry, options.join)))
        << "unchanged head " << head.id;
    EXPECT_EQ(after.hits, before.hits) << "unchanged head " << head.id;
    EXPECT_EQ(after.misses, before.misses) << "unchanged head " << head.id;
    ++unchanged;
  }
  EXPECT_EQ(moved, 2u);
  EXPECT_GT(unchanged, 0u);
}

TEST(PrescreenTest, IndexTracksCatalogUnderConcurrentChurn) {
  // The TSan target: writers upsert/remove while readers probe and
  // query. Afterwards the signature index must agree with the entry map
  // exactly — every snapshot entry resident in exactly one shard at the
  // entry's version — and prescreen must still equal the scan.
  CommunityCatalog catalog(WithSignatures());
  constexpr uint32_t kIds = 48;
  constexpr uint32_t kWriters = 3;
  constexpr uint32_t kReaders = 2;
  constexpr uint32_t kOpsPerWriter = 120;

  {
    util::Rng seed_rng(testing::TestSeed(7100));
    data::VkLikeGenerator gen(data::Category::kEntertainment);
    for (uint64_t id = 1; id <= kIds; ++id) {
      catalog.Upsert(id,
                     data::MakeCommunity(
                         gen, static_cast<uint32_t>(seed_rng.Between(12, 24)),
                         seed_rng));
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> crew;
  for (uint32_t w = 0; w < kWriters; ++w) {
    crew.emplace_back([&, w] {
      util::Rng rng(testing::TestSeed(7200 + w));
      data::VkLikeGenerator gen(
          static_cast<data::Category>(w % data::kNumCategories));
      for (uint32_t op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t id = 1 + rng.Below(kIds);
        if (rng.NextDouble() < 0.8) {
          catalog.Upsert(id, data::MakeCommunity(
                                 gen,
                                 static_cast<uint32_t>(rng.Between(12, 24)),
                                 rng));
        } else {
          catalog.Remove(id);
        }
      }
    });
  }
  for (uint32_t r = 0; r < kReaders; ++r) {
    crew.emplace_back([&, r] {
      util::Rng rng(testing::TestSeed(7300 + r));
      data::VkLikeGenerator gen(data::Category::kInternet);
      const TopKSimilarService service(&catalog);
      TopKOptions options;
      options.k = 3;
      options.prescreen = true;
      while (!stop.load(std::memory_order_acquire)) {
        const Community query = data::MakeCommunity(
            gen, static_cast<uint32_t>(rng.Between(14, 22)), rng);
        const TopKResult result = service.Query(query, options);
        // Under churn the sweep's verdicts must stay internally
        // consistent even as the resident set changes between queries.
        if (result.stats.fallback == 0) {
          EXPECT_EQ(result.stats.prescreen_probed +
                        result.stats.prescreen_skipped,
                    static_cast<uint64_t>(result.stats.catalog_entries));
        }
      }
    });
  }
  for (uint32_t w = 0; w < kWriters; ++w) crew[w].join();
  stop.store(true, std::memory_order_release);
  for (uint32_t r = kWriters; r < crew.size(); ++r) crew[r].join();

  // Quiesced: index and entry map must agree exactly. Entries hold 12-24
  // users, all admissible against an 18-user query, so an inert probe
  // passes every resident entry once, at its snapshot version.
  const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
  {
    util::Rng rng(testing::TestSeed(7350));
    data::VkLikeGenerator gen(data::Category::kInternet);
    const CommunitySignature probe_signature(data::MakeCommunity(gen, 18, rng),
                                             *catalog.signature_options());
    const auto inert = catalog.ProbeCandidates(
        probe_signature, SignatureProbeOrder(probe_signature), 1, 0.0);
    EXPECT_EQ(inert.stats.examined, snapshot.size());
    EXPECT_EQ(inert.stats.passed, snapshot.size());
    ASSERT_EQ(inert.candidates.size(), snapshot.size());
    for (size_t i = 0; i < snapshot.size(); ++i) {
      EXPECT_EQ(inert.candidates[i].id, snapshot[i].id);
      EXPECT_EQ(inert.candidates[i].version, snapshot[i].version)
          << "id " << snapshot[i].id;
    }
  }
  for (const CatalogEntry& entry : snapshot) {
    const CommunitySignature fresh(*entry.community,
                                   *catalog.signature_options());
    EXPECT_TRUE(std::ranges::equal(catalog.SketchAt(entry.id, entry.version),
                                   fresh.table()))
        << "id " << entry.id;
  }

  // And the settled catalog still serves identical rankings both ways.
  util::Rng rng(testing::TestSeed(7400));
  data::VkLikeGenerator gen(data::Category::kEntertainment);
  const Community query = data::MakeCommunity(gen, 18, rng);
  const TopKSimilarService service(&catalog);
  TopKOptions options;
  options.k = 5;
  options.prescreen = false;
  const TopKResult scan = service.Query(query, options);
  options.prescreen = true;
  const TopKResult screened = service.Query(query, options);
  ASSERT_EQ(screened.entries.size(), scan.entries.size());
  for (size_t i = 0; i < scan.entries.size(); ++i) {
    EXPECT_EQ(screened.entries[i], scan.entries[i]) << "rank " << i;
  }
}

}  // namespace
}  // namespace csj::service
