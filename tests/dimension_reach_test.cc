// Soundness of the per-dimension reach filter and of the top-k walk's
// couple bound built on it. On seeded couples, CountReachable equals a
// brute-force count of reachable users and is never below the
// Hopcroft-Karp maximum matching of the eps-graph, in both orientations;
// and CoupleScorer::Bound is never below any method's similarity. The
// couples cover eps 0, eps at or above every counter, zero-heavy rows,
// counters near UINT32_MAX and dimensions whose bitmaps exceed the memory
// guard.

#include "core/dimension_reach.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/method.h"
#include "matching/hopcroft_karp.h"
#include "service/catalog.h"
#include "service/topk.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj {
namespace {

constexpr Count kMaxCount = std::numeric_limits<Count>::max();

bool Near(Count x, Count y, Epsilon eps) {
  return (x > y ? x - y : y - x) <= eps;
}

bool EpsMatch(std::span<const Count> x, std::span<const Count> y,
              Epsilon eps) {
  for (size_t k = 0; k < x.size(); ++k) {
    if (!Near(x[k], y[k], eps)) return false;
  }
  return true;
}

/// The definition: users of `other` whose counter in every dimension lies
/// within eps of some query user's counter in that dimension.
uint32_t BruteForceReachable(const Community& query, const Community& other,
                             Epsilon eps) {
  uint32_t reachable = 0;
  for (UserId u = 0; u < other.size(); ++u) {
    bool all = true;
    for (Dim k = 0; k < other.d() && all; ++k) {
      bool hit = false;
      for (UserId q = 0; q < query.size() && !hit; ++q) {
        hit = Near(query.User(q)[k], other.User(u)[k], eps);
      }
      all = hit;
    }
    if (all) ++reachable;
  }
  return reachable;
}

size_t MaximumMatching(const Community& b, const Community& a, Epsilon eps) {
  std::vector<MatchedPair> edges;
  for (UserId ib = 0; ib < b.size(); ++ib) {
    for (UserId ia = 0; ia < a.size(); ++ia) {
      if (EpsMatch(b.User(ib), a.User(ia), eps)) {
        edges.push_back(MatchedPair{ib, ia});
      }
    }
  }
  return matching::HopcroftKarp(edges).size();
}

/// Rows mix all-zero users, 0/1 users, users near a shared base (so eps
/// chains intervals together) and users spread over [0, max_value].
Community MixedCommunity(Dim d, uint32_t n, Count base, Count max_value,
                         util::Rng* rng) {
  Community c(d);
  std::vector<Count> vec(d);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t shape = rng->Below(4);
    for (auto& v : vec) {
      switch (shape) {
        case 0: v = 0; break;
        case 1: v = static_cast<Count>(rng->Below(2)); break;
        case 2:
          v = static_cast<Count>(
              std::min<uint64_t>(uint64_t{base} + rng->Below(4), kMaxCount));
          break;
        default:
          v = static_cast<Count>(
              std::min<uint64_t>(uint64_t{base} + rng->Below(max_value + 1),
                                 kMaxCount));
      }
    }
    c.AddUser(vec);
  }
  return c;
}

void ExpectWithinMemoryGuard(const DimensionReach& reach,
                             const Community& query,
                             const std::string& where) {
  EXPECT_LE(reach.MemoryBytes(), DimensionReach::kMemoryMultiple *
                                     size_t{query.size()} * query.d() *
                                     sizeof(Count))
      << where;
}

TEST(DimensionReachTest, CountsReachableUsersAndDominatesTheMatching) {
  util::Rng rng(testing::TestSeed(0xD1A));
  uint64_t eps_zero = 0;
  uint64_t eps_covers = 0;
  uint64_t matched_total = 0;
  uint64_t bitmaps = 0;
  uint64_t searches = 0;
  for (uint64_t trial = 0; trial < 600; ++trial) {
    const auto d = static_cast<Dim>(1 + rng.Below(6));
    const auto nb = static_cast<uint32_t>(1 + rng.Below(30));
    const auto na = static_cast<uint32_t>(1 + rng.Below(30));
    // A third of the couples live near UINT32_MAX, where the bitmaps
    // cannot fit and the clamped upper ends are exercised.
    const uint64_t scale = trial % 3;
    const Count base = scale == 2 ? kMaxCount - 20 : 0;
    const auto max_value = static_cast<Count>(
        scale == 0 ? rng.Below(12) : scale == 1 ? 2000 : 20);
    Epsilon eps = 0;
    switch (trial % 4) {
      case 0: eps = 0; break;
      case 1: eps = static_cast<Epsilon>(1 + rng.Below(3)); break;
      case 2: eps = max_value + static_cast<Epsilon>(rng.Below(3)); break;
      default: eps = kMaxCount - static_cast<Epsilon>(rng.Below(2));
    }
    if (eps == 0) ++eps_zero;
    if (uint64_t{eps} >= uint64_t{base} + max_value) ++eps_covers;
    const Community b = MixedCommunity(d, nb, base, max_value, &rng);
    const Community a = MixedCommunity(d, na, base, max_value, &rng);
    const std::string where = "trial " + std::to_string(trial);

    const size_t matched = MaximumMatching(b, a, eps);
    matched_total += matched;
    // Both orientations: the query may play B or A.
    for (const bool query_is_b : {true, false}) {
      const Community& query = query_is_b ? b : a;
      const Community& other = query_is_b ? a : b;
      const DimensionReach reach(query, eps);
      const uint32_t reachable = reach.CountReachable(other);
      ASSERT_EQ(reachable, BruteForceReachable(query, other, eps)) << where;
      ASSERT_GE(reachable, matched) << where;
      EXPECT_EQ(reach.CountReachable(query), query.size()) << where;
      ExpectWithinMemoryGuard(reach, query, where);
      bitmaps += reach.bitmap_dims();
      searches += reach.search_dims();
    }
  }
  EXPECT_GT(eps_zero, 0u);
  EXPECT_GT(eps_covers, 0u);
  EXPECT_GT(matched_total, 0u);
  EXPECT_GT(bitmaps, 0u);
  EXPECT_GT(searches, 0u);  // the memory guard fired
}

TEST(DimensionReachTest, MemoryGuardHoldsForHostileQueries) {
  // One user near UINT32_MAX in many dimensions: a bitmap over
  // [0, max + eps] would take half a GiB per dimension.
  const Dim d = 4096;
  std::vector<Count> row(d);
  for (Dim k = 0; k < d; ++k) row[k] = kMaxCount - k % 7;
  const Community one(d, row);
  Community others(d);
  others.AddUser(row);
  row[d - 1] -= 2;  // misses the last dimension at eps 1
  others.AddUser(row);
  std::vector<Count> zeros(d, 0);
  others.AddUser(zeros);

  const DimensionReach tight(one, 1);
  ExpectWithinMemoryGuard(tight, one, "eps 1");
  EXPECT_EQ(tight.bitmap_dims(), 0u);
  EXPECT_EQ(tight.search_dims(), d);
  EXPECT_EQ(tight.CountReachable(others), 1u);

  const DimensionReach wide(one, 2);
  ExpectWithinMemoryGuard(wide, one, "eps 2");
  EXPECT_EQ(wide.CountReachable(others), 2u);

  // The largest eps reaches every counter value: nothing is filtered and
  // nothing is held.
  const DimensionReach all(one, kMaxCount);
  EXPECT_EQ(all.bitmap_dims() + all.search_dims(), 0u);
  EXPECT_EQ(all.MemoryBytes(), 0u);
  EXPECT_EQ(all.CountReachable(others), 3u);

  // A wide eps over small counters: the bitmaps are filled from merged
  // intervals (no step per value of eps) and read exactly at their ends.
  Community spread(3);
  for (uint32_t u = 0; u < 64; ++u) {
    spread.AddUser(std::vector<Count>{u % 2 == 0 ? 0u : 3u, 5,
                                      u % 2 == 0 ? 1000u : 20000u});
  }
  const Epsilon wide_eps = 4096;
  const DimensionReach fill(spread, wide_eps);
  ExpectWithinMemoryGuard(fill, spread, "eps 4096");
  EXPECT_EQ(fill.bitmap_dims(), 3u);
  Community probe(3);
  probe.AddUser(std::vector<Count>{4099, 4101, 5096});   // every upper end
  probe.AddUser(std::vector<Count>{4100, 0, 0});         // past dim 0
  probe.AddUser(std::vector<Count>{0, 4102, 0});         // past dim 1
  probe.AddUser(std::vector<Count>{0, 0, 5097});         // in dim 2's gap
  probe.AddUser(std::vector<Count>{0, 0, 15903});        // in dim 2's gap
  probe.AddUser(std::vector<Count>{0, 0, 15904});        // second interval
  probe.AddUser(std::vector<Count>{0, 0, 24096});        // its upper end
  probe.AddUser(std::vector<Count>{0, 0, 24097});        // past the bitmap
  probe.AddUser(std::vector<Count>{0, 0, kMaxCount});
  EXPECT_EQ(fill.CountReachable(probe),
            BruteForceReachable(spread, probe, wide_eps));
  EXPECT_EQ(fill.CountReachable(probe), 3u);

  // An empty query reaches nothing.
  const Community empty(3);
  EXPECT_EQ(DimensionReach(empty, 5).CountReachable(probe), 0u);
}

TEST(DimensionReachTest, ScorerBoundDominatesEveryMethodsSimilarity) {
  std::vector<Method> methods(std::begin(kAllMethods), std::end(kAllMethods));
  methods.insert(methods.end(), std::begin(kExtensionMethods),
                 std::end(kExtensionMethods));
  constexpr Epsilon kWarmEps = 1;
  uint64_t couples = 0;
  uint64_t query_is_a = 0;
  uint64_t positive = 0;
  for (uint64_t s = 0; s < 12; ++s) {
    util::Rng rng(testing::TestSeed(0xD1B0 + s));
    const Dim d = static_cast<Dim>(2 + rng.Below(5));
    const auto max_value = static_cast<Count>(2 + rng.Below(6));
    const Community query = MixedCommunity(
        d, static_cast<uint32_t>(rng.Between(8, 16)), 0, max_value, &rng);
    // Odd scenarios build the entry artifacts for one part, which no
    // query's clamped part count matches: every couple takes the
    // per-couple path there.
    service::CommunityCatalog::Options catalog_options;
    catalog_options.warm_eps = kWarmEps;
    catalog_options.warm_parts = s % 2 == 0 ? 4 : 1;
    service::CommunityCatalog catalog(catalog_options);
    for (uint64_t id = 1; id <= 10; ++id) {
      // Entries on both sides of the query's size, some of them copies
      // of query users so real matches exist.
      Community entry = MixedCommunity(
          d, static_cast<uint32_t>(rng.Between(6, 24)), 0, max_value, &rng);
      for (UserId u = 0; u < entry.size() && u < query.size(); u += 2) {
        const std::span<const Count> from = query.User(u);
        std::copy(from.begin(), from.end(), entry.MutableUser(u).begin());
      }
      catalog.Upsert(id, std::move(entry));
    }
    for (const Epsilon eps : {Epsilon{0}, kWarmEps, max_value}) {
      for (const Method method : methods) {
        // SuperEGO normalizes by eps, so it needs eps > 0.
        const bool needs_eps = method == Method::kApSuperEgo ||
                               method == Method::kExSuperEgo;
        if (eps == 0 && needs_eps) continue;
        service::TopKOptions options;
        options.method = method;
        options.join.eps = eps;
        const service::CoupleScorer scorer(catalog, query, options);
        for (const service::CatalogEntry& entry : catalog.Snapshot()) {
          if (!scorer.Admissible(entry)) continue;
          const double bound = scorer.Bound(entry);
          const double similarity = scorer.Refine(entry, options.join);
          ASSERT_GE(bound, similarity)
              << MethodName(method) << " eps " << eps << " entry "
              << entry.id << " scenario " << s;
          ++couples;
          if (!scorer.Orient(entry).query_is_b) ++query_is_a;
          if (similarity > 0.0) ++positive;
        }
      }
    }
  }
  EXPECT_GT(couples, 0u);
  EXPECT_GT(query_is_a, 0u);
  EXPECT_GT(positive, 0u);
}

}  // namespace
}  // namespace csj
