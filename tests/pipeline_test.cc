// Tests for the screen-then-refine pipeline (the paper §3's two-phase
// approximate -> exact workflow).

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/method.h"
#include "data/categories.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "pipeline/screening.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::pipeline {
namespace {

/// Builds a candidate with a planted similarity against the REAL pivot
/// community.
Community MakeCandidate(const Community& pivot, data::Category category,
                        uint32_t size, double planted, uint64_t seed,
                        const std::string& name) {
  data::VkLikeGenerator gen(category);
  data::CoupleSpec spec;
  spec.size_b = size;
  spec.target_similarity = planted;
  spec.eps = 1;
  util::Rng rng(seed);
  Community candidate = data::PlantCommunityAgainst(pivot, gen, spec, rng);
  candidate.set_name(name);
  return candidate;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::VkLikeGenerator pivot_gen(data::Category::kSport);
    util::Rng rng(99);
    pivot_ = data::MakeCommunity(pivot_gen, 600, rng, "pivot");
    // Planted similarities: high, medium, below threshold.
    high_ = MakeCandidate(pivot_, data::Category::kSport, 600, 0.40, 1,
                          "high");
    medium_ = MakeCandidate(pivot_, data::Category::kHobbies, 600, 0.22, 2,
                            "medium");
    low_ = MakeCandidate(pivot_, data::Category::kAnimals, 600, 0.05, 3,
                         "low");
    // Too small for the CSJ size rule against the 600-user pivot.
    data::VkLikeGenerator tiny_gen(data::Category::kMedia);
    util::Rng tiny_rng(4);
    tiny_ = data::MakeCommunity(tiny_gen, 100, tiny_rng, "tiny");
  }

  Community pivot_{27};
  Community high_{27};
  Community medium_{27};
  Community low_{27};
  Community tiny_{27};
};

TEST_F(PipelineTest, ScreensRefinesAndRanks) {
  PipelineOptions options;
  options.screen_threshold = 0.15;
  options.join.eps = 1;
  const PipelineReport report = ScreenAndRefine(
      pivot_, {&high_, &medium_, &low_, &tiny_}, options);

  EXPECT_EQ(report.inadmissible, 1u);  // tiny fails the size rule
  // low (planted at 0.05) cannot reach the threshold: its reach bound
  // drops it before any join.
  EXPECT_EQ(report.bound_pruned, 1u);
  EXPECT_EQ(report.screened, 2u);
  EXPECT_EQ(report.refined, 2u);  // high and medium pass the screen
  ASSERT_EQ(report.entries.size(), 2u);

  // Ranked by final similarity: high, medium.
  EXPECT_EQ(report.entries[0].candidate_name, "high");
  EXPECT_EQ(report.entries[1].candidate_name, "medium");
  EXPECT_TRUE(report.entries[0].refined);
  EXPECT_TRUE(report.entries[1].refined);

  // The exact phase can only confirm or improve a greedy screen.
  EXPECT_GE(report.entries[0].refined_similarity + 1e-9,
            report.entries[0].screened_similarity);
  EXPECT_NEAR(report.entries[0].refined_similarity, 0.40, 0.05);
  EXPECT_NEAR(report.entries[1].refined_similarity, 0.22, 0.05);
  EXPECT_GT(report.total_seconds, 0.0);
}

TEST_F(PipelineTest, TopKLimitsRefinement) {
  PipelineOptions options;
  options.screen_threshold = 0.01;  // everyone passes the screen
  options.refine_top_k = 1;
  options.join.eps = 1;
  const PipelineReport report =
      ScreenAndRefine(pivot_, {&high_, &medium_, &low_}, options);
  EXPECT_EQ(report.refined, 1u);
  // Only the best-screened candidate got the exact treatment.
  EXPECT_EQ(report.entries[0].candidate_name, "high");
  EXPECT_TRUE(report.entries[0].refined);
  EXPECT_FALSE(report.entries[1].refined);
}

TEST_F(PipelineTest, ThresholdOfOneRefinesNothing) {
  PipelineOptions options;
  options.screen_threshold = 1.01;
  // The upper bound never exceeds 1, so with this threshold it would
  // drop everything before screening; disable it to exercise the
  // "screened but no survivors" path.
  options.use_upper_bound_prune = false;
  options.join.eps = 1;
  const PipelineReport report =
      ScreenAndRefine(pivot_, {&high_, &medium_}, options);
  EXPECT_EQ(report.refined, 0u);
  for (const PipelineEntry& entry : report.entries) {
    EXPECT_FALSE(entry.refined);
  }
}

TEST_F(PipelineTest, MixedDimensionalityAndEmptyCandidatesAreInadmissible) {
  // A candidate of another dimensionality and an empty one: both are
  // inadmissible to every join, and the bound gate must count them the
  // same way instead of reaching CountReachable (which requires equal d).
  Community other_d(pivot_.d() + 1, "other_d");
  const std::vector<Count> vec(pivot_.d() + 1, 3);
  for (int i = 0; i < 600; ++i) other_d.AddUser(vec);
  const Community empty(pivot_.d(), "empty");
  const Community empty_other_d(pivot_.d() + 1, "empty_other_d");

  for (const double threshold : {0.0, 0.15}) {
    PipelineOptions options;
    options.screen_threshold = threshold;
    options.join.eps = 1;
    for (const bool prune : {true, false}) {
      options.use_upper_bound_prune = prune;
      const PipelineReport pivot_report = ScreenAndRefine(
          pivot_, {&high_, &other_d, &empty, &empty_other_d}, options);
      EXPECT_EQ(pivot_report.inadmissible, 3u) << "prune " << prune;
      EXPECT_EQ(pivot_report.screened, 1u) << "prune " << prune;
      ASSERT_EQ(pivot_report.entries.size(), 1u);
      EXPECT_EQ(pivot_report.entries[0].candidate_name, "high");

      // Pairs: (pivot, high) admissible; every pair touching other_d or
      // an empty community is not — 5 of the 6.
      const PipelineReport pairs_report = ScreenAndRefineAllPairs(
          {&pivot_, &other_d, &high_, &empty}, options);
      EXPECT_EQ(pairs_report.inadmissible, 5u) << "prune " << prune;
      EXPECT_EQ(pairs_report.screened, 1u) << "prune " << prune;
    }
  }
}

TEST_F(PipelineTest, EmptyCandidateList) {
  PipelineOptions options;
  options.join.eps = 1;
  const PipelineReport report = ScreenAndRefine(pivot_, {}, options);
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(report.screened, 0u);
}

TEST_F(PipelineTest, AllPairsCoversEveryAdmissibleCouple) {
  PipelineOptions options;
  options.screen_threshold = 0.0;
  options.join.eps = 1;
  const std::vector<const Community*> communities = {&high_, &medium_,
                                                     &low_};
  const PipelineReport report =
      ScreenAndRefineAllPairs(communities, options);
  // 3 choose 2 = 3 pairs, all same-size hence admissible.
  EXPECT_EQ(report.screened, 3u);
  EXPECT_EQ(report.refined, 3u);
  for (const PipelineEntry& entry : report.entries) {
    uint32_t i = 0;
    uint32_t j = 0;
    DecodePairIndex(entry.candidate_index,
                    static_cast<uint32_t>(communities.size()), &i, &j);
    EXPECT_LT(i, j);
    EXPECT_LT(j, communities.size());
  }
}

TEST(PipelinePruneTest, DropsHopelessCandidates) {
  data::VkLikeGenerator gen(data::Category::kMusic);
  util::Rng rng(3);
  const Community pivot = data::MakeCommunity(gen, 300, rng, "pivot");

  // Every user of the candidate is far heavier than anything in the
  // pivot in every dimension, so none is reachable: the bound is 0.
  Community heavy(data::kNumCategories, "heavy");
  std::vector<Count> vec(data::kNumCategories, 100000);
  for (int i = 0; i < 300; ++i) heavy.AddUser(vec);

  PipelineOptions options;
  options.screen_threshold = 0.15;
  options.join.eps = 1;
  options.use_upper_bound_prune = true;
  const PipelineReport report = ScreenAndRefine(pivot, {&heavy}, options);
  EXPECT_EQ(report.bound_pruned, 1u);
  EXPECT_EQ(report.screened, 0u);
  EXPECT_TRUE(report.entries.empty());

  // With the prune disabled the candidate is screened (and scores ~0).
  options.use_upper_bound_prune = false;
  const PipelineReport unpruned = ScreenAndRefine(pivot, {&heavy}, options);
  EXPECT_EQ(unpruned.screened, 1u);
  EXPECT_EQ(unpruned.bound_pruned, 0u);
}

// The refined ranking one pipeline run produced, as exact bytes:
// (candidate_index, refined_similarity) in final entry order.
std::vector<std::pair<uint32_t, double>> RefinedRanking(
    const PipelineReport& report) {
  std::vector<std::pair<uint32_t, double>> ranking;
  for (const PipelineEntry& entry : report.entries) {
    if (entry.refined) {
      ranking.emplace_back(entry.candidate_index, entry.refined_similarity);
    }
  }
  return ranking;
}

// One catalog of the prune on/off differential: calibrates the threshold
// and refine_top_k onto achieved screened similarities of `run`, runs it
// with the prune on and off, and checks the refined rankings are
// identical. Returns the couples the prune dropped.
uint32_t PruneOnOffDifferential(
    uint64_t s, PipelineOptions options,
    const std::function<PipelineReport(const PipelineOptions&)>& run) {
  // Calibration: learn the achieved screened similarities so the
  // threshold and the top-k boundary sit exactly ON a data point.
  options.screen_threshold = 0.0;
  options.use_upper_bound_prune = false;
  const PipelineReport calibration = run(options);
  if (calibration.entries.empty()) return 0;
  std::vector<double> screened;
  for (const PipelineEntry& entry : calibration.entries) {
    screened.push_back(entry.screened_similarity);
  }
  std::sort(screened.begin(), screened.end(), std::greater<>());
  // Even catalogs: the median achieved similarity — an exact tie at the
  // screen cutoff. Odd catalogs: the MAXIMUM achieved similarity — still
  // an achieved tie, and high enough that weak couples' upper bounds fall
  // below it, so the prune actually fires.
  options.screen_threshold = screened[s % 2 == 0 ? screened.size() / 2 : 0];
  options.refine_top_k =
      std::max<uint32_t>(1, static_cast<uint32_t>(screened.size()) / 2);

  options.use_upper_bound_prune = true;
  const PipelineReport with_prune = run(options);
  options.use_upper_bound_prune = false;
  const PipelineReport without_prune = run(options);

  // Pruning only moves candidates between "screened below threshold" and
  // "bound pruned" — never changes who refines.
  EXPECT_EQ(with_prune.inadmissible, without_prune.inadmissible);
  EXPECT_EQ(with_prune.screened + with_prune.bound_pruned,
            without_prune.screened);
  const auto ranking_on = RefinedRanking(with_prune);
  const auto ranking_off = RefinedRanking(without_prune);
  EXPECT_EQ(ranking_on.size(), ranking_off.size());
  for (size_t i = 0; i < std::min(ranking_on.size(), ranking_off.size());
       ++i) {
    EXPECT_EQ(ranking_on[i].first, ranking_off[i].first) << "rank " << i;
    EXPECT_EQ(ranking_on[i].second, ranking_off[i].second) << "rank " << i;
  }
  return with_prune.bound_pruned;
}

TEST(PipelinePruneDifferentialTest, PruneOnOffRefinedRankingsIdentical) {
  // use_upper_bound_prune may only discard couples that could never
  // survive the screen (the bound dominates both similarities), so the
  // refined RANKING — order included, not just the set — must be
  // byte-identical with the prune on and off. ~200 seeded catalogs,
  // with the threshold pinned to an ACHIEVED screened similarity (an
  // exact tie at the screen cutoff) and refine_top_k cutting through
  // duplicate candidates (an exact tie at the top-k boundary). Each
  // catalog runs both entry points under two screens: Ap-MinMax (the
  // default) and Ap-SuperEGO normalized by the VK counter cap (the screen
  // bench_pipeline and csj_cli pipeline ship) on an eighth of the
  // catalogs, both threshold kinds: its dimension-order histogram costs
  // ~0.4 ms a join even on 20-user couples.
  constexpr uint64_t kCatalogs = 200;
  uint64_t pruned_total = 0;
  for (uint64_t s = 0; s < kCatalogs; ++s) {
    util::Rng rng(csj::testing::TestSeed(4200 + s));
    data::VkLikeGenerator gen(
        static_cast<data::Category>(s % data::kNumCategories));
    const auto pivot_size = static_cast<uint32_t>(rng.Between(20, 40));
    const Community pivot = data::MakeCommunity(gen, pivot_size, rng);

    std::vector<Community> owned;
    for (uint32_t c = 0; c < 7; ++c) {
      const auto size = static_cast<uint32_t>(rng.Between(15, 40));
      if (rng.NextDouble() < 0.6) {
        data::CoupleSpec spec;
        spec.size_b = size;
        spec.eps = 1;
        // Cap the target so the planted user count stays within the
        // pivot's size (the sampler's precondition).
        const double target = 0.05 + 0.12 * static_cast<double>(c % 5);
        const double cap = 0.9 * static_cast<double>(pivot.size()) /
                           static_cast<double>(size);
        spec.target_similarity = std::min(target, cap);
        owned.push_back(data::PlantCommunityAgainst(pivot, gen, spec, rng));
      } else {
        owned.push_back(data::MakeCommunity(gen, size, rng));
      }
    }
    std::vector<const Community*> candidates;
    for (const Community& community : owned) candidates.push_back(&community);
    // A duplicate pointer: its couple screens to EXACTLY the same
    // similarity as the original, forcing a tie wherever they land.
    candidates.push_back(&owned[2]);
    std::vector<const Community*> everyone = {&pivot};
    everyone.insert(everyone.end(), candidates.begin(), candidates.end());

    for (const bool all_pairs : {false, true}) {
      for (const Method screen : {Method::kApMinMax, Method::kApSuperEgo}) {
        if (screen == Method::kApSuperEgo && s % 16 >= 2) continue;
        SCOPED_TRACE(::testing::Message()
                     << "catalog " << s << " all_pairs " << all_pairs
                     << " screen " << MethodName(screen));
        PipelineOptions options;
        options.screen_method = screen;
        options.join.eps = 1;
        if (screen == Method::kApSuperEgo) {
          options.join.superego_norm_max = data::kVkMaxCounter;
        }
        const auto run = [&](const PipelineOptions& run_options) {
          return all_pairs ? ScreenAndRefineAllPairs(everyone, run_options)
                           : ScreenAndRefine(pivot, candidates, run_options);
        };
        pruned_total += PruneOnOffDifferential(s, options, run);
      }
    }
  }
  // The prune must fire somewhere across the suite or the differential
  // proves nothing.
  EXPECT_GT(pruned_total, 0u);
}

TEST(DecodePairIndexTest, RoundTrips) {
  for (uint32_t n : {2u, 5u, 9u}) {
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        uint32_t di = 0;
        uint32_t dj = 0;
        DecodePairIndex(i * n + j, n, &di, &dj);
        EXPECT_EQ(di, i);
        EXPECT_EQ(dj, j);
      }
    }
  }
}

}  // namespace
}  // namespace csj::pipeline
