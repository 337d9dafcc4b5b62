// Tests for the 1-vs-many batched verify kernel (EpsilonMatchesMany), its
// float twin, the SoA verify window and the LazyBatchVerifier adapter —
// all validated against the scalar oracles. The joins' batched verify is
// checked against their traced, per-pair runs in scan_differential_test.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/epsilon_predicate.h"
#include "ego/normalized.h"
#include "util/rng.h"

namespace csj {
namespace {

/// Random candidate rows with values small enough that eps in [0, 4]
/// produces a healthy mix of matches and misses.
std::vector<std::vector<Count>> RandomRows(uint32_t n, Dim d,
                                           Count max_value, util::Rng& rng) {
  std::vector<std::vector<Count>> rows(n);
  for (auto& row : rows) {
    row.resize(d);
    for (Dim k = 0; k < d; ++k) {
      row[k] = static_cast<Count>(rng.Below(max_value + 1));
    }
  }
  return rows;
}

VerifyWindow WindowOf(const std::vector<std::vector<Count>>& rows, Dim d) {
  VerifyWindow window;
  window.Assign(static_cast<uint32_t>(rows.size()), d,
                [&](uint32_t i) { return std::span<const Count>(rows[i]); });
  return window;
}

class EpsilonManyTest : public ::testing::TestWithParam<Dim> {};

TEST_P(EpsilonManyTest, WindowRoundTripsValues) {
  const Dim d = GetParam();
  util::Rng rng(2024 + d);
  const uint32_t n = 53;  // deliberately not a multiple of 8
  const auto rows = RandomRows(n, d, 100, rng);
  const VerifyWindow window = WindowOf(rows, d);
  ASSERT_EQ(window.size(), n);
  ASSERT_EQ(window.d(), d);
  for (uint32_t i = 0; i < n; ++i) {
    for (Dim k = 0; k < d; ++k) {
      ASSERT_EQ(window.Value(i, k), rows[i][k]) << "i=" << i << " k=" << k;
    }
  }
}

TEST_P(EpsilonManyTest, MaskMatchesChebyshevOracle) {
  const Dim d = GetParam();
  util::Rng rng(7 * d + 1);
  const uint32_t n = 90;
  const auto rows = RandomRows(n, d, 6, rng);
  const VerifyWindow window = WindowOf(rows, d);

  for (const Epsilon eps : {Epsilon{0}, Epsilon{1}, Epsilon{2}, Epsilon{4}}) {
    for (uint32_t probe_trial = 0; probe_trial < 8; ++probe_trial) {
      std::vector<Count> probe(d);
      for (Dim k = 0; k < d; ++k) {
        probe[k] = static_cast<Count>(rng.Below(7));
      }
      std::vector<uint64_t> mask((n + 63) / 64);
      EpsilonMatchesMany(probe, window, 0, n, eps, mask.data());
      for (uint32_t i = 0; i < n; ++i) {
        const bool expect = ChebyshevDistance(probe, rows[i]) <= eps;
        const bool got = (mask[i / 64] >> (i % 64)) & 1u;
        ASSERT_EQ(got, expect) << "d=" << d << " eps=" << eps << " i=" << i;
        // The batched verdict must be exactly the per-pair kernel's.
        ASSERT_EQ(got, EpsilonMatches(probe, rows[i], eps));
      }
    }
  }
}

TEST_P(EpsilonManyTest, UnalignedSubrangesMatchOracle) {
  const Dim d = GetParam();
  util::Rng rng(31 * d + 5);
  const uint32_t n = 100;
  const auto rows = RandomRows(n, d, 5, rng);
  const VerifyWindow window = WindowOf(rows, d);
  const Epsilon eps = 2;

  std::vector<Count> probe(d);
  for (Dim k = 0; k < d; ++k) probe[k] = static_cast<Count>(rng.Below(6));

  // Subranges straddling block boundaries in every alignment class,
  // including empty and single-candidate ranges.
  const std::pair<uint32_t, uint32_t> ranges[] = {
      {0, n},   {3, 77},  {8, 16},  {5, 6},   {63, 65},
      {64, 64}, {1, 9},   {95, n},  {17, 91}, {42, 42},
  };
  for (const auto& [begin, end] : ranges) {
    std::vector<uint64_t> mask((end - begin + 63) / 64 + 1, ~uint64_t{0});
    EpsilonMatchesMany(probe, window, begin, end, eps, mask.data());
    for (uint32_t i = begin; i < end; ++i) {
      const bool expect = ChebyshevDistance(probe, rows[i]) <= eps;
      const uint32_t bit = i - begin;
      const bool got = (mask[bit / 64] >> (bit % 64)) & 1u;
      ASSERT_EQ(got, expect)
          << "d=" << d << " range=[" << begin << "," << end << ") i=" << i;
    }
    // No stray bits beyond the range (the kernel zero-fills its words).
    if (end > begin) {
      const uint32_t bits = end - begin;
      const uint32_t words = (bits + 63) / 64;
      if (bits % 64 != 0) {
        ASSERT_EQ(mask[words - 1] >> (bits % 64), 0u);
      }
    }
  }
}

TEST_P(EpsilonManyTest, LazyVerifierAgreesInAnyQueryPattern) {
  const Dim d = GetParam();
  util::Rng rng(101 * d + 3);
  const uint32_t n = 150;
  const auto rows = RandomRows(n, d, 6, rng);
  const VerifyWindow window = WindowOf(rows, d);
  const Epsilon eps = 2;

  std::vector<Count> probe(d);
  for (Dim k = 0; k < d; ++k) probe[k] = static_cast<Count>(rng.Below(7));

  // Sparse ascending queries with gaps (the scan loops' shape: holes from
  // filters and used-flags, chunk-boundary crossings).
  LazyBatchVerifier<Count, Epsilon> verifier;
  verifier.Start(window, probe, eps, n);
  for (uint32_t i = 0; i < n; i += 1 + static_cast<uint32_t>(rng.Below(9))) {
    ASSERT_EQ(verifier.Matches(i), EpsilonMatches(probe, rows[i], eps))
        << "d=" << d << " i=" << i;
  }

  // A limit below the window size clamps the chunk, not the verdicts.
  const uint32_t limit = 70;
  verifier.Start(window, probe, eps, limit);
  for (uint32_t i = 0; i < limit; ++i) {
    ASSERT_EQ(verifier.Matches(i), EpsilonMatches(probe, rows[i], eps));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, EpsilonManyTest,
                         ::testing::Values<Dim>(1, 7, 8, 27, 64));

TEST(EpsilonManyFloatTest, MatchesFloatOracle) {
  for (const Dim d : {Dim{1}, Dim{7}, Dim{8}, Dim{27}, Dim{64}}) {
    util::Rng rng(555 + d);
    const uint32_t n = 77;
    std::vector<std::vector<float>> rows(n);
    for (auto& row : rows) {
      row.resize(d);
      for (Dim k = 0; k < d; ++k) {
        row[k] = static_cast<float>(rng.NextDouble());
      }
    }
    VerifyWindowF window;
    window.Assign(n, d,
                  [&](uint32_t i) { return std::span<const float>(rows[i]); });

    const float eps_norm = 0.25f;
    std::vector<float> probe(d);
    for (Dim k = 0; k < d; ++k) {
      probe[k] = static_cast<float>(rng.NextDouble());
    }
    std::vector<uint64_t> mask((n + 63) / 64);
    EpsilonMatchesManyFloat(probe, window, 0, n, eps_norm, mask.data());
    for (uint32_t i = 0; i < n; ++i) {
      const bool expect = ego::EpsMatchesFloat(probe, rows[i], eps_norm);
      const bool got = (mask[i / 64] >> (i % 64)) & 1u;
      ASSERT_EQ(got, expect) << "d=" << d << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace csj
