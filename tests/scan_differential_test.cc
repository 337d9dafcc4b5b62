// The exact scans against their traced reference: Ex-MinMax and
// Ex-Baseline must give the traced run's pairs and counters at any
// join_threads x matching_threads (see scan_differential.h), on data
// that engages every path — batched and per-pair verify, chunked scans,
// and many CSF segments for the matching farm.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/join_options.h"
#include "core/method.h"
#include "scan_differential.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj {
namespace {

constexpr Method kScanMethods[] = {Method::kExMinMax, Method::kExBaseline};

/// `n` users whose counters are drawn below `max_value`, each shifted by
/// one of `clusters` well-separated centres (spacing 50 per dimension),
/// so the Ex-MinMax scan closes a CSF segment between clusters.
Community ClusteredCommunity(Dim d, uint32_t n, uint32_t clusters,
                             Count max_value, util::Rng& rng) {
  Community c(d);
  std::vector<Count> vec(d);
  for (uint32_t u = 0; u < n; ++u) {
    const auto centre = static_cast<Count>(rng.Below(clusters) * 50);
    for (auto& v : vec) v = centre + static_cast<Count>(rng.Below(max_value));
    c.AddUser(vec);
  }
  return c;
}

/// Low-cardinality counters at d = 27: long reachable runs (the batched
/// verify) and one dense candidate graph.
TEST(ScanDifferentialTest, TracedEqualsUntracedAtAnyThreadCount) {
  util::Rng rng(testing::TestSeed(90210));
  const Community b = ClusteredCommunity(27, 140, 1, 5, rng);
  const Community a = ClusteredCommunity(27, 200, 1, 5, rng);
  JoinOptions options;
  options.eps = 1;
  for (const Method method : kScanMethods) {
    testing::ExpectTracedEqualsUntraced(method, b, a, options);
  }
}

/// Separated clusters: many CSF segments, so matching_threads = 4 farms
/// real segment tasks, and both matchers.
TEST(ScanDifferentialTest, ManySegmentsEqualTheTracedRun) {
  util::Rng rng(testing::TestSeed(90211));
  const Community b = ClusteredCommunity(8, 300, 12, 4, rng);
  const Community a = ClusteredCommunity(8, 360, 12, 4, rng);
  JoinOptions probe;
  probe.eps = 2;
  ASSERT_GE(RunMethod(Method::kExMinMax, b, a, probe).stats.csf_flushes, 8u);
  for (const matching::MatcherKind matcher :
       {matching::MatcherKind::kCsf, matching::MatcherKind::kMaxMatching}) {
    JoinOptions options;
    options.eps = 2;
    options.matcher = matcher;
    for (const Method method : kScanMethods) {
      testing::ExpectTracedEqualsUntraced(method, b, a, options);
    }
  }
}

/// Communities shorter than one verify block: every untraced compare is
/// per pair, and B has fewer users than there are chunks.
TEST(ScanDifferentialTest, ShortRunsEqualTheTracedRun) {
  util::Rng rng(testing::TestSeed(90212));
  const Community b = ClusteredCommunity(3, 3, 2, 3, rng);
  const Community a = ClusteredCommunity(3, 7, 2, 3, rng);
  JoinOptions options;
  options.eps = 1;
  for (const Method method : kScanMethods) {
    testing::ExpectTracedEqualsUntraced(method, b, a, options);
  }
}

/// Counters on a lattice of spacing eps at d = 1: a probe k * eps
/// matches up to (k + 1) * eps, whose encoded max is (k + 2) * eps, so
/// the next probe's encoded id often EQUALS the open segment's maxV — the
/// tie on which the segment-close rule must not split.
TEST(ScanDifferentialTest, EpsilonTiesEqualTheTracedRun) {
  util::Rng rng(testing::TestSeed(90213));
  const Epsilon eps = 2;
  auto lattice = [&](uint32_t n) {
    Community c(1);
    for (uint32_t u = 0; u < n; ++u) {
      const Count value = static_cast<Count>(rng.Below(40)) * eps;
      c.AddUser({&value, 1});
    }
    return c;
  };
  const Community b = lattice(90);
  const Community a = lattice(110);
  JoinOptions options;
  options.eps = eps;
  for (const Method method : kScanMethods) {
    testing::ExpectTracedEqualsUntraced(method, b, a, options);
  }
}

}  // namespace
}  // namespace csj
