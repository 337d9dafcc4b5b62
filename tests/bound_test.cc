// Tests for the encoded-window similarity upper bound and its use as the
// pipeline's pre-join prune.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/community.h"
#include "core/similarity_bound.h"
#include "data/generator.h"
#include "matching/hopcroft_karp.h"
#include "pipeline/screening.h"
#include "util/rng.h"

namespace csj {
namespace {

Community RandomCommunity(Dim d, uint32_t n, Count max_value, uint64_t seed) {
  util::Rng rng(seed);
  Community c(d);
  std::vector<Count> vec(d);
  for (uint32_t i = 0; i < n; ++i) {
    for (auto& v : vec) v = static_cast<Count>(rng.Below(max_value + 1));
    c.AddUser(vec);
  }
  return c;
}

/// The bound as first written: ids in a multiset, windows by ascending
/// max, each taking the smallest free id inside it. Kept as the oracle
/// the heap-sweep kernel must reproduce exactly.
uint32_t ReferenceMatchingUpperBound(const Community& b, const Community& a,
                                     Epsilon eps) {
  if (b.empty() || a.empty()) return 0;
  std::multiset<uint64_t> ids;
  for (UserId u = 0; u < b.size(); ++u) {
    uint64_t id = 0;
    for (const Count c : b.User(u)) id += c;
    ids.insert(id);
  }
  std::vector<std::pair<uint64_t, uint64_t>> windows;  // (max, min)
  for (UserId u = 0; u < a.size(); ++u) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    for (const Count v : a.User(u)) {
      lo += v >= eps ? v - eps : 0;
      hi += static_cast<uint64_t>(v) + eps;
    }
    windows.emplace_back(hi, lo);
  }
  std::sort(windows.begin(), windows.end());
  uint32_t matched = 0;
  for (const auto& [hi, lo] : windows) {
    const auto it = ids.lower_bound(lo);
    if (it == ids.end() || *it > hi) continue;
    ids.erase(it);
    ++matched;
  }
  return matched;
}

/// A community whose users mix near-zero rows (wide windows once eps
/// reaches the counters, duplicate ids) with heavy rows (narrow windows
/// nested inside the wide ones).
Community MixedCommunity(Dim d, uint32_t n, Count max_value, util::Rng* rng) {
  Community c(d);
  std::vector<Count> vec(d);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t shape = rng->Below(3);
    for (auto& v : vec) {
      v = shape == 0 ? 0
          : shape == 1
              ? static_cast<Count>(rng->Below(2))
              : static_cast<Count>(rng->Below(max_value + 1));
    }
    c.AddUser(vec);
  }
  return c;
}

TEST(SimilarityBoundTest, KernelMatchesReferenceOnSeededCouples) {
  util::Rng rng(20240611);
  uint64_t clamped = 0;
  uint64_t wider_b = 0;
  for (uint64_t trial = 0; trial < 400; ++trial) {
    const auto d = static_cast<Dim>(1 + rng.Below(6));
    const auto nb = static_cast<uint32_t>(1 + rng.Below(40));
    const auto na = static_cast<uint32_t>(1 + rng.Below(40));
    const auto max_value = static_cast<Count>(rng.Below(12));
    // Half the trials put eps at or above every counter, so each window's
    // lower end clamps to 0.
    const auto eps = static_cast<Epsilon>(
        trial % 2 == 0 ? max_value + rng.Below(4) : rng.Below(max_value + 1));
    const Community b = MixedCommunity(d, nb, max_value, &rng);
    const Community a = MixedCommunity(d, na, max_value, &rng);
    clamped += eps >= max_value ? 1 : 0;
    wider_b += nb > na ? 1 : 0;

    const uint32_t expected = ReferenceMatchingUpperBound(b, a, eps);
    ASSERT_EQ(MatchingUpperBound(b, a, eps), expected) << "trial " << trial;
    EXPECT_EQ(SimilarityUpperBound(b, a, eps),
              static_cast<double>(expected) / nb);
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(wider_b, 0u);
}

TEST(SimilarityBoundTest, KernelHandlesNestedWindowsAndDuplicatePoints) {
  // Points {5, 5, 5, 9}; windows [0, 20] (wide, opened first), [4, 6] and
  // [5, 5] nested inside it, [9, 9]. Taking the wide window for the first
  // 5 would strand the last 5: the closing-first rule matches all four.
  const std::vector<uint64_t> points = {5, 5, 5, 9};
  const std::vector<uint64_t> mins = {0, 4, 5, 9};
  const std::vector<uint64_t> maxs = {20, 6, 5, 9};
  EXPECT_EQ(IntervalPointMatching(points, mins, maxs.data()), 4u);
  // More points than windows: at most one point per window.
  const std::vector<uint64_t> many = {1, 1, 1, 1, 1};
  EXPECT_EQ(IntervalPointMatching(many, mins, maxs.data()), 1u);
  EXPECT_EQ(IntervalPointMatching({}, mins, maxs.data()), 0u);
}

TEST(SimilarityBoundTest, EmptyCommunities) {
  const Community empty(3);
  Community one(3);
  one.AddUser(std::vector<Count>{1, 2, 3});
  EXPECT_EQ(MatchingUpperBound(empty, one, 1), 0u);
  EXPECT_EQ(MatchingUpperBound(one, empty, 1), 0u);
  EXPECT_DOUBLE_EQ(SimilarityUpperBound(empty, one, 1), 0.0);
}

TEST(SimilarityBoundTest, IdenticalCommunitiesBoundIsOne) {
  const Community c = RandomCommunity(5, 50, 20, 1);
  EXPECT_EQ(MatchingUpperBound(c, c, 1), 50u);
  EXPECT_DOUBLE_EQ(SimilarityUpperBound(c, c, 1), 1.0);
}

TEST(SimilarityBoundTest, DisjointIdRangesBoundIsZero) {
  Community b(2);
  b.AddUser(std::vector<Count>{0, 0});     // id 0
  b.AddUser(std::vector<Count>{1, 1});     // id 2
  Community a(2);
  a.AddUser(std::vector<Count>{100, 100}); // window [198, 202] at eps 1
  EXPECT_EQ(MatchingUpperBound(b, a, 1), 0u);
}

TEST(SimilarityBoundTest, OneToOneOverWindows) {
  // Two A windows overlap one B id: only one can claim it.
  Community b(1);
  b.AddUser(std::vector<Count>{10});
  Community a(1);
  a.AddUser(std::vector<Count>{10});
  a.AddUser(std::vector<Count>{11});
  EXPECT_EQ(MatchingUpperBound(b, a, 1), 1u);
}

TEST(SimilarityBoundTest, GreedyIsOptimalOnIntervalGraphs) {
  // d = 1 makes the relaxation graph explicit: compare the greedy count
  // with Hopcroft-Karp over the id-in-window edges.
  util::Rng rng(7);
  for (uint64_t trial = 0; trial < 50; ++trial) {
    const Community b = RandomCommunity(1, 40, 60, 100 + trial);
    const Community a = RandomCommunity(1, 50, 60, 200 + trial);
    const Epsilon eps = static_cast<Epsilon>(1 + rng.Below(6));

    std::vector<MatchedPair> edges;
    for (UserId ib = 0; ib < b.size(); ++ib) {
      const uint64_t id = b.User(ib)[0];
      for (UserId ia = 0; ia < a.size(); ++ia) {
        const uint64_t v = a.User(ia)[0];
        const uint64_t lo = v >= eps ? v - eps : 0;
        const uint64_t hi = v + eps;
        if (id >= lo && id <= hi) edges.push_back(MatchedPair{ib, ia});
      }
    }
    const size_t oracle = matching::HopcroftKarp(edges).size();
    EXPECT_EQ(MatchingUpperBound(b, a, eps), oracle) << "trial " << trial;
  }
}

TEST(SimilarityBoundTest, DominatesExactSimilarityOnRandomSweeps) {
  for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Community b = RandomCommunity(8, 80, 10, seed);
    const Community a = RandomCommunity(8, 100, 10, seed + 50);
    JoinOptions options;
    options.eps = 2;
    options.matcher = matching::MatcherKind::kMaxMatching;
    const JoinResult exact = ExBaselineJoin(b, a, options);
    EXPECT_GE(MatchingUpperBound(b, a, options.eps), exact.pairs.size())
        << "seed " << seed;
  }
}

TEST(SimilarityBoundTest, PipelinePruneDropsHopelessCandidates) {
  data::VkLikeGenerator gen(data::Category::kMusic);
  util::Rng rng(3);
  const Community pivot = data::MakeCommunity(gen, 300, rng, "pivot");

  // A candidate with wildly different encoded ids: every user far heavier
  // than anything in the pivot, so even the relaxation cannot pair them.
  Community heavy(data::kNumCategories, "heavy");
  std::vector<Count> vec(data::kNumCategories, 100000);
  for (int i = 0; i < 300; ++i) heavy.AddUser(vec);

  pipeline::PipelineOptions options;
  options.screen_threshold = 0.15;
  options.join.eps = 1;
  options.use_upper_bound_prune = true;
  const pipeline::PipelineReport report =
      ScreenAndRefine(pivot, {&heavy}, options);
  EXPECT_EQ(report.bound_pruned, 1u);
  EXPECT_EQ(report.screened, 0u);
  EXPECT_TRUE(report.entries.empty());

  // With the prune disabled the candidate is screened (and scores ~0).
  options.use_upper_bound_prune = false;
  const pipeline::PipelineReport unpruned =
      ScreenAndRefine(pivot, {&heavy}, options);
  EXPECT_EQ(unpruned.screened, 1u);
  EXPECT_EQ(unpruned.bound_pruned, 0u);
}

}  // namespace
}  // namespace csj
