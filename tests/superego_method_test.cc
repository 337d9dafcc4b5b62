// Tests for the Ap-/Ex-SuperEGO CSJ adapters. Power-of-two value grids
// make float32 normalization exact, so the adapters can be checked against
// the integer-domain oracles; a separate test demonstrates the boundary
// precision loss the paper reports on VK-scale counters.

#include <vector>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/community.h"
#include "core/epsilon_predicate.h"
#include "core/superego_method.h"
#include "matching/greedy.h"
#include "util/rng.h"

namespace csj {
namespace {

/// Counts in [0, 256] with max forced to 256 and eps a power of two: all
/// normalized values and eps_norm are exact binary fractions, so the
/// float32 predicate agrees with the integer predicate everywhere.
Community ExactFloatCommunity(uint32_t n, uint64_t seed) {
  util::Rng rng(seed);
  Community c(6);
  std::vector<Count> vec(6);
  for (uint32_t i = 0; i < n; ++i) {
    for (auto& v : vec) v = static_cast<Count>(rng.Below(257));
    c.AddUser(vec);
  }
  return c;
}

JoinOptions ExactFloatOptions() {
  JoinOptions options;
  options.eps = 4;
  options.superego_norm_max = 256;
  options.superego_threshold = 16;
  options.matcher = matching::MatcherKind::kMaxMatching;
  return options;
}

TEST(ExSuperEgoTest, MatchesExBaselineOnExactFloatGrid) {
  const Community b = ExactFloatCommunity(120, 1);
  const Community a = ExactFloatCommunity(150, 2);
  const JoinOptions options = ExactFloatOptions();
  const JoinResult ego = ExSuperEgoJoin(b, a, options);
  const JoinResult oracle = ExBaselineJoin(b, a, options);
  EXPECT_EQ(ego.pairs.size(), oracle.pairs.size());
  EXPECT_TRUE(matching::IsOneToOne(ego.pairs));
  // Every SuperEGO pair is a genuine integer-domain eps-match here.
  for (const MatchedPair& p : ego.pairs) {
    EXPECT_TRUE(EpsilonMatches(b.User(p.b), a.User(p.a), options.eps));
  }
}

TEST(ApSuperEgoTest, NeverBeatsExactAndStaysValid) {
  const Community b = ExactFloatCommunity(100, 5);
  const Community a = ExactFloatCommunity(120, 6);
  const JoinOptions options = ExactFloatOptions();
  const JoinResult ap = ApSuperEgoJoin(b, a, options);
  const JoinResult ex = ExSuperEgoJoin(b, a, options);
  EXPECT_LE(ap.pairs.size(), ex.pairs.size());
  EXPECT_TRUE(matching::IsOneToOne(ap.pairs));
  for (const MatchedPair& p : ap.pairs) {
    EXPECT_TRUE(EpsilonMatches(b.User(p.b), a.User(p.a), options.eps));
  }
}

TEST(SuperEgoTest, ThresholdInsensitivityOnExactGrid) {
  const Community b = ExactFloatCommunity(90, 7);
  const Community a = ExactFloatCommunity(110, 8);
  JoinOptions options = ExactFloatOptions();
  size_t reference = 0;
  for (const uint32_t t : {2u, 8u, 64u, 1024u}) {
    options.superego_threshold = t;
    const size_t size = ExSuperEgoJoin(b, a, options).pairs.size();
    if (t == 2) {
      reference = size;
    } else {
      EXPECT_EQ(size, reference) << "threshold " << t;
    }
  }
}

TEST(SuperEgoTest, NormalizationBoundaryLossOnCounterScaleData) {
  // VK-style regime: large normalization max, eps = 1, and MANY pairs
  // sitting exactly at the eps boundary. The float32 predicate loses a
  // noticeable share of them — the accuracy gap of Tables 3-6.
  const Count max = 152532;
  Community b(4);
  Community a(4);
  util::Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    std::vector<Count> vec(4);
    for (auto& v : vec) v = static_cast<Count>(rng.Below(50));
    a.AddUser(vec);
    // Boundary twin: every dimension differs by exactly eps = 1.
    std::vector<Count> twin = vec;
    for (auto& v : twin) ++v;
    b.AddUser(twin);
  }
  JoinOptions options;
  options.eps = 1;
  options.superego_norm_max = max;
  options.superego_threshold = 32;
  const JoinResult ego = ExSuperEgoJoin(b, a, options);
  const JoinResult oracle = ExBaselineJoin(b, a, options);
  // The integer-domain join finds (at least) all 400 planted twins.
  EXPECT_GE(oracle.pairs.size(), 400u);
  // The normalized join must lose some boundary pairs but not collapse.
  EXPECT_LT(ego.pairs.size(), oracle.pairs.size());
  EXPECT_GT(ego.pairs.size(), 0u);
}

TEST(SuperEgoTest, EmptyCommunities) {
  const Community empty(3);
  Community one(3);
  one.AddUser(std::vector<Count>{1, 2, 3});
  JoinOptions options;
  options.eps = 1;
  EXPECT_TRUE(ApSuperEgoJoin(empty, one, options).pairs.empty());
  EXPECT_TRUE(ExSuperEgoJoin(one, empty, options).pairs.empty());
  EXPECT_TRUE(ExSuperEgoJoin(empty, empty, options).pairs.empty());
}

TEST(SuperEgoTest, AllZeroDataStillJoins) {
  Community b(3);
  Community a(3);
  for (int i = 0; i < 5; ++i) {
    b.AddUser(std::vector<Count>{0, 0, 0});
    a.AddUser(std::vector<Count>{0, 0, 0});
  }
  JoinOptions options;
  options.eps = 1;
  const JoinResult result = ExSuperEgoJoin(b, a, options);
  EXPECT_EQ(result.pairs.size(), 5u);
}

}  // namespace
}  // namespace csj
