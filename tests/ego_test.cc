// Tests for the SuperEGO substrate: normalization, EGO sort, dimension
// reordering, segment trees and the EGO strategy.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "ego/dimension_reorder.h"
#include "ego/ego_join.h"
#include "ego/normalized.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace csj::ego {
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

TEST(NormalizeTest, ValuesScaledIntoUnitCube) {
  const Community c = RandomCommunity(5, 40, 100, 1);
  const NormalizedData norm = Normalize(c, 100, 10, IdentityOrder(5));
  EXPECT_EQ(norm.size(), 40u);
  EXPECT_FLOAT_EQ(norm.eps_norm, 0.1f);
  for (uint32_t row = 0; row < norm.size(); ++row) {
    for (const float v : norm.Row(row)) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(NormalizeTest, IdsFormPermutationAndRowsMatchSources) {
  const Community c = RandomCommunity(4, 30, 64, 2);
  const NormalizedData norm = Normalize(c, 64, 4, IdentityOrder(4));
  std::set<UserId> seen;
  for (uint32_t row = 0; row < norm.size(); ++row) {
    const UserId id = norm.ids[row];
    EXPECT_TRUE(seen.insert(id).second);
    const std::span<const Count> src = c.User(id);
    const std::span<const float> dst = norm.Row(row);
    for (Dim k = 0; k < 4; ++k) {
      EXPECT_FLOAT_EQ(dst[k], static_cast<float>(src[k]) / 64.0f);
    }
  }
  EXPECT_EQ(seen.size(), 30u);
}

TEST(NormalizeTest, RowsAreCellLexicographic) {
  const Community c = RandomCommunity(3, 100, 50, 3);
  const NormalizedData norm = Normalize(c, 50, 5, IdentityOrder(3));
  for (uint32_t row = 1; row < norm.size(); ++row) {
    const std::span<const float> prev = norm.Row(row - 1);
    const std::span<const float> cur = norm.Row(row);
    // prev <= cur in cell-lexicographic order.
    bool decided = false;
    for (Dim k = 0; k < 3 && !decided; ++k) {
      const int32_t cp = CellOf(prev[k], norm.eps_norm);
      const int32_t cc = CellOf(cur[k], norm.eps_norm);
      ASSERT_LE(cp, cc) << "row " << row << " dim " << k;
      decided = cp < cc;
    }
  }
}

TEST(NormalizeTest, DimensionOrderPermutesColumns) {
  Community c(3);
  c.AddUser(std::vector<Count>{10, 20, 30});
  const std::vector<Dim> order = {2, 0, 1};
  const NormalizedData norm = Normalize(c, 100, 1, order);
  EXPECT_FLOAT_EQ(norm.Row(0)[0], 0.30f);
  EXPECT_FLOAT_EQ(norm.Row(0)[1], 0.10f);
  EXPECT_FLOAT_EQ(norm.Row(0)[2], 0.20f);
}

TEST(EpsMatchesFloatTest, BoundaryBehaviour) {
  const std::vector<float> x = {0.5f, 0.5f};
  const std::vector<float> y = {0.6f, 0.5f};
  EXPECT_TRUE(EpsMatchesFloat(x, y, 0.100001f));
  EXPECT_FALSE(EpsMatchesFloat(x, y, 0.05f));
}

TEST(DimensionReorderTest, SelectiveDimensionFirst) {
  // Dimension 0 is constant (useless for pruning); dimension 1 spreads
  // widely. The reorder must put dimension 1 first.
  Community b(2);
  Community a(2);
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto spread = static_cast<Count>(rng.Below(1000));
    b.AddUser(std::vector<Count>{500, spread});
    a.AddUser(std::vector<Count>{500, static_cast<Count>(rng.Below(1000))});
  }
  const std::vector<Dim> order = ComputeDimensionOrder(b, a, 10, 1000);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST(DimensionReorderTest, ReturnsPermutation) {
  const Community b = RandomCommunity(8, 50, 200, 11);
  const Community a = RandomCommunity(8, 50, 200, 12);
  const std::vector<Dim> order = ComputeDimensionOrder(b, a, 5, 200);
  std::vector<Dim> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (Dim k = 0; k < 8; ++k) EXPECT_EQ(sorted[k], k);
}

/// The dense reference: one util::Histogram per dimension, every bucket
/// visited.
std::vector<double> DenseFailureProbabilities(const Community& b,
                                              const Community& a, Epsilon eps,
                                              Count max_count,
                                              uint32_t max_buckets) {
  const double cells =
      static_cast<double>(max_count) / std::max<double>(eps, 1);
  const auto buckets = static_cast<uint32_t>(
      std::clamp<double>(std::ceil(cells), 1.0, max_buckets));
  std::vector<double> failure(b.d());
  for (Dim dim = 0; dim < b.d(); ++dim) {
    util::Histogram histogram(0.0, 1.0, buckets);
    const double inv_max = 1.0 / static_cast<double>(max_count);
    for (UserId u = 0; u < b.size(); ++u) {
      histogram.Add(static_cast<double>(b.User(u)[dim]) * inv_max);
    }
    for (UserId u = 0; u < a.size(); ++u) {
      histogram.Add(static_cast<double>(a.User(u)[dim]) * inv_max);
    }
    failure[dim] = histogram.AdjacencyCollisionProbability();
  }
  return failure;
}

TEST(DimensionReorderTest, SparseSumsMatchTheDenseHistogramBitForBit) {
  struct Case {
    const char* what;
    Community b;
    Community a;
    Count max_count;
  };
  std::vector<Case> cases;
  cases.push_back({"random", RandomCommunity(9, 40, 300, 21),
                   RandomCommunity(9, 55, 300, 22), 300});
  cases.push_back({"random, counts past max_count",
                   RandomCommunity(5, 30, 900, 23),
                   RandomCommunity(5, 25, 900, 24), 600});
  cases.push_back({"wide", RandomCommunity(4, 200, 50000, 25),
                   RandomCommunity(4, 150, 50000, 26), 50000});
  Community equal_b(6);
  Community equal_a(6);
  for (int i = 0; i < 20; ++i) {
    equal_b.AddUser(std::vector<Count>(6, 17));
    equal_a.AddUser(std::vector<Count>(6, 17));
  }
  cases.push_back({"all equal", equal_b, equal_a, 100});
  Community single(3);
  single.AddUser(std::vector<Count>{0, 40, 100});
  cases.push_back({"single user", single, Community(3), 100});
  cases.push_back({"single user each side", single, single, 100});
  // Every value on a bucket edge, max_count itself included (it clamps
  // into the last bucket), plus zeros.
  Community edge_b(4);
  Community edge_a(4);
  for (Count v = 0; v <= 120; v += 10) {
    edge_b.AddUser(std::vector<Count>{v, 120, 0, v / 2});
    edge_a.AddUser(std::vector<Count>{120 - v, 120, 0, 120});
  }
  cases.push_back({"max_count edge", edge_b, edge_a, 120});
  cases.push_back({"empty", Community(2), Community(2), 10});

  for (const Case& c : cases) {
    for (const Epsilon eps : {Epsilon{0}, Epsilon{1}, Epsilon{3}, Epsilon{10},
                              Epsilon{1000}}) {
      for (const uint32_t max_buckets : {1u, 7u, 64u, 4096u}) {
        SCOPED_TRACE(std::string(c.what) + " eps " + std::to_string(eps) +
                     " max_buckets " + std::to_string(max_buckets));
        const std::vector<double> sparse = DimensionFailureProbabilities(
            c.b, c.a, eps, c.max_count, max_buckets);
        const std::vector<double> dense = DenseFailureProbabilities(
            c.b, c.a, eps, c.max_count, max_buckets);
        ASSERT_EQ(sparse.size(), dense.size());
        for (size_t dim = 0; dim < dense.size(); ++dim) {
          EXPECT_EQ(std::bit_cast<uint64_t>(sparse[dim]),
                    std::bit_cast<uint64_t>(dense[dim]))
              << "dim " << dim;
        }
        std::vector<Dim> order(dense.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(), [&](Dim x, Dim y) {
          if (dense[x] != dense[y]) return dense[x] < dense[y];
          return x < y;
        });
        EXPECT_EQ(ComputeDimensionOrder(c.b, c.a, eps, c.max_count,
                                        max_buckets),
                  order);
      }
    }
  }
}

TEST(SegmentTreeTest, LeavesRespectThresholdAndCoverAllRows) {
  const Community c = RandomCommunity(3, 100, 50, 4);
  const NormalizedData norm = Normalize(c, 50, 5, IdentityOrder(3));
  const SegmentTree tree(CellsOf(norm), 16);
  ASSERT_FALSE(tree.empty());

  // Walk the tree: leaves must partition [0, 100) into segments < 16.
  std::vector<int32_t> stack = {tree.root()};
  std::vector<std::pair<uint32_t, uint32_t>> leaves;
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const SegmentTree::Node& node = tree.node(id);
    if (node.IsLeaf()) {
      EXPECT_LT(node.hi - node.lo, 16u);
      leaves.emplace_back(node.lo, node.hi);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  uint32_t expected_lo = 0;
  for (const auto& [lo, hi] : leaves) {
    EXPECT_EQ(lo, expected_lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 100u);
}

TEST(SegmentTreeTest, BoxesContainTheirRows) {
  const Community c = RandomCommunity(4, 64, 32, 5);
  const NormalizedData norm = Normalize(c, 32, 2, IdentityOrder(4));
  const SegmentTree tree(CellsOf(norm), 8);
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const SegmentTree::Node& node = tree.node(id);
    for (uint32_t row = node.lo; row < node.hi; ++row) {
      const std::span<const float> values = norm.Row(row);
      for (Dim k = 0; k < 4; ++k) {
        const int32_t cell = CellOf(values[k], norm.eps_norm);
        EXPECT_GE(cell, tree.MinCells(id)[k]);
        EXPECT_LE(cell, tree.MaxCells(id)[k]);
      }
    }
    if (!node.IsLeaf()) {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
}

TEST(SegmentTreeTest, EmptyDataMakesEmptyTree) {
  const Community c(3);
  const NormalizedData norm = Normalize(c, 10, 1, IdentityOrder(3));
  const SegmentTree tree(CellsOf(norm), 8);
  EXPECT_TRUE(tree.empty());
}

TEST(EgoJoinTest, LeafPairsCoverEveryFloatMatch) {
  // Completeness: every pair that eps-matches in normalized space must be
  // enumerated by some surviving leaf pair (the strategy never prunes a
  // true pair).
  const Community cb = RandomCommunity(3, 80, 40, 21);
  const Community ca = RandomCommunity(3, 90, 40, 22);
  const Epsilon eps = 4;
  const NormalizedData nb = Normalize(cb, 40, eps, IdentityOrder(3));
  const NormalizedData na = Normalize(ca, 40, eps, IdentityOrder(3));
  const SegmentTree tb(CellsOf(nb), 8);
  const SegmentTree ta(CellsOf(na), 8);

  std::set<std::pair<UserId, UserId>> enumerated;
  EgoStats stats;
  EgoJoin(tb, ta,
          [&](uint32_t b_lo, uint32_t b_hi, uint32_t a_lo, uint32_t a_hi) {
            for (uint32_t rb = b_lo; rb < b_hi; ++rb) {
              for (uint32_t ra = a_lo; ra < a_hi; ++ra) {
                enumerated.insert({nb.ids[rb], na.ids[ra]});
              }
            }
          },
          &stats);

  uint64_t true_matches = 0;
  for (uint32_t rb = 0; rb < nb.size(); ++rb) {
    for (uint32_t ra = 0; ra < na.size(); ++ra) {
      if (EpsMatchesFloat(nb.Row(rb), na.Row(ra), nb.eps_norm)) {
        ++true_matches;
        EXPECT_TRUE(enumerated.count({nb.ids[rb], na.ids[ra]}))
            << "strategy pruned a true match";
      }
    }
  }
  EXPECT_GT(true_matches, 0u) << "weak test: no matches at all";
  // And the strategy actually pruned something (it is not a no-op).
  EXPECT_GT(stats.strategy_prunes, 0u);
  EXPECT_LT(enumerated.size(),
            static_cast<size_t>(nb.size()) * na.size());
}

TEST(EgoStrategyTest, SeparatedAndAdjacentBoxes) {
  // Two single-point "communities" far apart: separated. Adjacent cells:
  // not separated.
  Community far_b(1);
  far_b.AddUser(std::vector<Count>{0});
  Community far_a(1);
  far_a.AddUser(std::vector<Count>{100});
  const NormalizedData nb = Normalize(far_b, 100, 5, IdentityOrder(1));
  const NormalizedData na = Normalize(far_a, 100, 5, IdentityOrder(1));
  const SegmentTree tb(CellsOf(nb), 4);
  const SegmentTree ta(CellsOf(na), 4);
  EXPECT_TRUE(EgoStrategySeparated(tb, tb.root(), ta, ta.root()));

  Community near_a(1);
  near_a.AddUser(std::vector<Count>{7});  // one cell over (cell 1 vs 0)
  const NormalizedData nn = Normalize(near_a, 100, 5, IdentityOrder(1));
  const SegmentTree tn(CellsOf(nn), 4);
  EXPECT_FALSE(EgoStrategySeparated(tb, tb.root(), tn, tn.root()));
}

TEST(EgoJoinTest, EmptySidesAreNoOps) {
  const Community empty(2);
  const Community c = RandomCommunity(2, 10, 10, 30);
  const NormalizedData ne = Normalize(empty, 10, 1, IdentityOrder(2));
  const NormalizedData nc = Normalize(c, 10, 1, IdentityOrder(2));
  const SegmentTree te(CellsOf(ne), 4);
  const SegmentTree tc(CellsOf(nc), 4);
  EgoStats stats;
  int calls = 0;
  EgoJoin(te, tc, [&](uint32_t, uint32_t, uint32_t, uint32_t) { ++calls; },
          &stats);
  EgoJoin(tc, te, [&](uint32_t, uint32_t, uint32_t, uint32_t) { ++calls; },
          &stats);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.node_pair_visits, 0u);
}

}  // namespace
}  // namespace csj::ego
