// Epsilon boundary sweeps: the CSJ match condition is |b_i - a_i| <= eps
// on EVERY dimension, so the interesting inputs are the ones sitting
// exactly ON the threshold, one below, and one past it — per dimension,
// per vector-block position, at eps = 0, and with counters saturating
// near the top of the 32-bit range. Each case is checked at three layers:
// the scalar kernel (EpsilonMatches), the batched SoA kernel
// (EpsilonMatchesMany through a VerifyWindow), and full joins — all
// against the straightforward ChebyshevDistance oracle, with the exact
// scans' untraced runs also matching their traced, per-pair runs.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/epsilon_predicate.h"
#include "core/method.h"
#include "matching/hopcroft_karp.h"
#include "scan_differential.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj {
namespace {

/// Dimensionalities straddling the kernel's vector geometry: below one
/// block, exactly one block (8), below/above the 32-wide super-block.
constexpr Dim kDims[] = {1, 3, 8, 27, 33};

bool OracleMatches(std::span<const Count> b, std::span<const Count> a,
                   Epsilon eps) {
  return ChebyshevDistance(b, a) <= eps;
}

/// Asserts scalar and batched kernels agree with the oracle on (b, a).
void CheckAllKernels(const std::vector<Count>& b, const std::vector<Count>& a,
                     Epsilon eps, const std::string& context) {
  SCOPED_TRACE(context);
  const bool expected = OracleMatches(b, a, eps);
  EXPECT_EQ(EpsilonMatches(b, a, eps), expected);

  // Batched kernel: a one-candidate window still exercises the full SoA
  // block path (7 padded lanes).
  VerifyWindow window;
  window.Assign(1, static_cast<Dim>(a.size()),
                [&](uint32_t) { return std::span<const Count>(a); });
  uint64_t mask = ~0ull;
  EpsilonMatchesMany(b, window, 0, 1, eps, &mask);
  EXPECT_EQ((mask & 1u) != 0, expected);
}

TEST(EpsilonBoundaryTest, PerDimensionAtBelowAndAboveThreshold) {
  for (const Dim d : kDims) {
    for (const Epsilon eps : {0u, 1u, 3u, 7u}) {
      for (Dim hot = 0; hot < d; ++hot) {
        // Base vectors are equal; perturb exactly one dimension.
        const std::vector<Count> b(d, 100);
        for (const uint32_t delta : {eps > 0 ? eps - 1 : 0u, eps, eps + 1}) {
          std::vector<Count> a(d, 100);
          a[hot] = 100 + delta;
          CheckAllKernels(b, a, eps,
                          "d=" + std::to_string(d) + " eps=" +
                              std::to_string(eps) + " hot=" +
                              std::to_string(hot) + " delta=" +
                              std::to_string(delta) + " (a above b)");
          a[hot] = 100 - delta;  // the symmetric side of the band
          CheckAllKernels(b, a, eps,
                          "d=" + std::to_string(d) + " eps=" +
                              std::to_string(eps) + " hot=" +
                              std::to_string(hot) + " delta=" +
                              std::to_string(delta) + " (a below b)");
        }
      }
    }
  }
}

TEST(EpsilonBoundaryTest, EpsilonZeroIsExactEquality) {
  for (const Dim d : kDims) {
    std::vector<Count> b(d);
    for (Dim k = 0; k < d; ++k) b[k] = k * 7 + 1;
    CheckAllKernels(b, b, 0, "identical d=" + std::to_string(d));
    for (Dim hot = 0; hot < d; ++hot) {
      std::vector<Count> a = b;
      a[hot] += 1;
      CheckAllKernels(b, a, 0, "off-by-one d=" + std::to_string(d) + " hot=" +
                                   std::to_string(hot));
      EXPECT_FALSE(EpsilonMatches(b, a, 0));
    }
  }
}

TEST(EpsilonBoundaryTest, SaturatingCountersNearUint32Max) {
  // The kernels compute min/max then subtract — no differencing of
  // unsigned values in the wrong order — so counters at the top of the
  // 32-bit range must behave exactly like small ones.
  constexpr Count kTop = std::numeric_limits<Count>::max();
  for (const Dim d : kDims) {
    for (const Epsilon eps : {0u, 1u, 5u}) {
      for (Dim hot = 0; hot < d; ++hot) {
        const std::vector<Count> b(d, kTop);
        for (const uint32_t delta : {eps > 0 ? eps - 1 : 0u, eps, eps + 1}) {
          std::vector<Count> a(d, kTop);
          a[hot] = kTop - delta;
          CheckAllKernels(b, a, eps,
                          "top d=" + std::to_string(d) + " eps=" +
                              std::to_string(eps) + " hot=" +
                              std::to_string(hot) + " delta=" +
                              std::to_string(delta));
        }
        // Maximal spread: 0 vs UINT32_MAX must not match at small eps but
        // MUST match at eps = UINT32_MAX (the distance is representable).
        std::vector<Count> zero(d, 0);
        std::vector<Count> top(d, kTop);
        EXPECT_FALSE(EpsilonMatches(zero, top, eps));
        EXPECT_TRUE(EpsilonMatches(zero, top, kTop));
      }
    }
  }
}

TEST(EpsilonBoundaryTest, BatchedWindowAgreesWithScalarOnMixedBlocks) {
  // Windows longer than one block (partial last block included) with rows
  // placed at every boundary relationship: the mask must reproduce the
  // scalar verdicts bit for bit.
  for (const Dim d : kDims) {
    const Epsilon eps = 2;
    util::Rng rng(csj::testing::TestSeed(9100 + d));
    std::vector<std::vector<Count>> rows;
    for (uint32_t i = 0; i < 21; ++i) {  // 2 full blocks + a 5-lane tail
      std::vector<Count> row(d);
      for (auto& v : row) v = 50 + static_cast<Count>(rng.Below(7));  // ±3
      rows.push_back(std::move(row));
    }
    const std::vector<Count> b(d, 53);  // rows straddle [50, 56] around it

    VerifyWindow window;
    window.Assign(static_cast<uint32_t>(rows.size()), d,
                  [&](uint32_t i) { return std::span<const Count>(rows[i]); });
    std::vector<uint64_t> mask(1);
    EpsilonMatchesMany(b, window, 0, window.size(), eps, mask.data());
    for (uint32_t i = 0; i < window.size(); ++i) {
      EXPECT_EQ((mask[0] >> i) & 1u, EpsilonMatches(b, rows[i], eps) ? 1u : 0u)
          << "d=" << d << " row " << i;
    }

    // Sub-range form (the lazy verifier's chunk shape): begin inside the
    // window, end before its end.
    EpsilonMatchesMany(b, window, 8, 16, eps, mask.data());
    for (uint32_t i = 8; i < 16; ++i) {
      EXPECT_EQ((mask[0] >> (i - 8)) & 1u,
                EpsilonMatches(b, rows[i], eps) ? 1u : 0u)
          << "d=" << d << " row " << i << " (sub-range)";
    }
  }
}

// ---------------------------------------------------------------------------
// Full joins on boundary-engineered communities: every exact method with
// kMaxMatching must agree with the brute-force oracle built from the
// scalar predicate, and Ex-Baseline and Ex-MinMax must give their traced
// run's pairs and counters at any join_threads x matching_threads.
// ---------------------------------------------------------------------------

std::vector<MatchedPair> BruteForceEdges(const Community& b,
                                         const Community& a, Epsilon eps) {
  std::vector<MatchedPair> edges;
  for (UserId ib = 0; ib < b.size(); ++ib) {
    for (UserId ia = 0; ia < a.size(); ++ia) {
      if (OracleMatches(b.User(ib), a.User(ia), eps)) {
        edges.push_back(MatchedPair{ib, ia});
      }
    }
  }
  return edges;
}

/// Communities whose differences cluster ON the eps boundary: counters
/// are drawn from a lattice of spacing eps, so almost every comparison is
/// exactly at distance 0, eps, or one lattice step past it.
Community BoundaryLattice(util::Rng& rng, Dim d, uint32_t n, Epsilon eps) {
  Community c(d);
  std::vector<Count> vec(d);
  const Count step = eps > 0 ? eps : 1;
  for (uint32_t i = 0; i < n; ++i) {
    for (auto& v : vec) {
      v = static_cast<Count>(rng.Below(4)) * step;
      if (rng.Bernoulli(0.25)) v += 1;  // knock some values off-lattice
    }
    c.AddUser(vec);
  }
  return c;
}

TEST(EpsilonBoundaryTest, JoinsAgreeWithOracleOnBoundaryLattices) {
  for (const Dim d : {1u, 3u, 8u, 27u}) {
    for (const Epsilon eps : {0u, 1u, 4u}) {
      util::Rng rng(csj::testing::TestSeed(9200 + d * 10 + eps));
      const Community b = BoundaryLattice(rng, d, 35, eps);
      const Community a = BoundaryLattice(rng, d, 45, eps);
      const size_t oracle =
          matching::HopcroftKarp(BruteForceEdges(b, a, eps)).size();

      JoinOptions options;
      options.eps = eps;
      options.matcher = matching::MatcherKind::kMaxMatching;
      for (const Method method :
           {Method::kExBaseline, Method::kExMinMax, Method::kExMinMaxEgo,
            Method::kExGridHash}) {
        EXPECT_EQ(RunMethod(method, b, a, options).pairs.size(), oracle)
            << MethodName(method) << " d=" << d << " eps=" << eps;
      }
      for (const Method method : {Method::kExBaseline, Method::kExMinMax}) {
        std::string trace = "d=";
        trace += std::to_string(d);
        trace += " eps=";
        trace += std::to_string(eps);
        SCOPED_TRACE(trace);
        csj::testing::ExpectTracedEqualsUntraced(method, b, a, options);
      }
    }
  }
}

TEST(EpsilonBoundaryTest, SaturatedCommunitiesJoinCorrectly) {
  // Whole communities living within a few counts of UINT32_MAX: the
  // encoding, prescreens and kernels must all survive the top of the
  // range. (MinMax partitions the VALUE RANGE, so this also exercises
  // part boundaries at huge offsets.)
  constexpr Count kTop = std::numeric_limits<Count>::max();
  const Epsilon eps = 2;
  for (const Dim d : {1u, 3u, 8u}) {
    util::Rng rng(csj::testing::TestSeed(9300 + d));
    Community b(d);
    Community a(d);
    std::vector<Count> vec(d);
    for (uint32_t i = 0; i < 25; ++i) {
      for (auto& v : vec) v = kTop - static_cast<Count>(rng.Below(6));
      b.AddUser(vec);
    }
    for (uint32_t i = 0; i < 30; ++i) {
      for (auto& v : vec) v = kTop - static_cast<Count>(rng.Below(6));
      a.AddUser(vec);
    }
    const size_t oracle =
        matching::HopcroftKarp(BruteForceEdges(b, a, eps)).size();

    JoinOptions options;
    options.eps = eps;
    options.matcher = matching::MatcherKind::kMaxMatching;
    for (const Method method : {Method::kExBaseline, Method::kExMinMax}) {
      EXPECT_EQ(RunMethod(method, b, a, options).pairs.size(), oracle)
          << MethodName(method) << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace csj
