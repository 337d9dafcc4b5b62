// Unit tests for src/util: rng, zipf, histogram, format, flags, table
// printer.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/zipf.h"

namespace csj::util {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng.Bernoulli(0.0));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(23);
  (void)parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (child() == parent()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(ShuffleTest, ProducesPermutationDeterministically) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  Rng rng(5);
  Shuffle(items, rng);
  std::vector<int> again(100);
  std::iota(again.begin(), again.end(), 0);
  Rng rng2(5);
  Shuffle(again, rng2);
  EXPECT_EQ(items, again);

  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(ShuffleTest, HandlesTinyInputs) {
  Rng rng(1);
  std::vector<int> empty;
  Shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  Shuffle(one, rng);
  EXPECT_EQ(one, std::vector<int>({42}));
}

TEST(ZipfTest, PmfSumsToOne) {
  const ZipfDistribution zipf(50, 1.1);
  double total = 0.0;
  for (uint32_t r = 0; r < 50; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (uint32_t r = 0; r < 10; ++r) EXPECT_NEAR(zipf.Pmf(r), 0.1, 1e-9);
}

TEST(ZipfTest, MassConcentratesOnSmallRanks) {
  const ZipfDistribution zipf(100, 1.5);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(10));
  EXPECT_GT(zipf.Pmf(10), zipf.Pmf(99));
}

TEST(ZipfTest, SampleWithinRangeAndSkewed) {
  const ZipfDistribution zipf(20, 1.2);
  Rng rng(3);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t r = zipf.Sample(rng);
    ASSERT_LT(r, 20u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[19]);
}

TEST(HistogramTest, ClampsOutOfRangeValues) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-5.0);
  h.Add(2.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.total_count(), 2u);
}

TEST(HistogramTest, FractionsAndBoundaries) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.1);
  h.Add(0.2);
  h.Add(0.7);
  EXPECT_NEAR(h.Fraction(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.Fraction(1), 1.0 / 3.0, 1e-12);
  // The upper edge lands in the last bucket (clamped).
  h.Add(1.0);
  EXPECT_EQ(h.bucket(1), 2u);
}

TEST(HistogramTest, AdjacencyCollisionProbabilityExtremes) {
  // Everything in one bucket: a grid filter never prunes -> probability 1.
  Histogram concentrated(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) concentrated.Add(0.05);
  EXPECT_NEAR(concentrated.AdjacencyCollisionProbability(), 1.0, 1e-12);

  // Mass split between two far-apart buckets: collisions only within each
  // half -> probability 0.5.
  Histogram split(0.0, 1.0, 10);
  for (int i = 0; i < 50; ++i) split.Add(0.05);
  for (int i = 0; i < 50; ++i) split.Add(0.95);
  EXPECT_NEAR(split.AdjacencyCollisionProbability(), 0.5, 1e-12);

  // Empty histogram reports the conservative 1.
  Histogram empty(0.0, 1.0, 4);
  EXPECT_EQ(empty.AdjacencyCollisionProbability(), 1.0);
}

TEST(HistogramTest, QuantileOnEvenSpread) {
  // 100 observations at the centers of 100 unit buckets: the q-quantile
  // is the ceil(100q)-th observation, interpolated to its bucket's right
  // edge (each bucket holds exactly one observation).
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.Quantile(0.50), 50.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1e-9);
  EXPECT_NEAR(h.Quantile(1.0), 100.0, 1e-9);
  // q = 0 clamps to the first observation's bucket.
  EXPECT_NEAR(h.Quantile(0.0), 1.0, 1e-9);
}

TEST(HistogramTest, QuantileInterpolatesWithinABucket) {
  // All mass in one bucket [0, 10): the k-th of 4 observations sits at
  // k/4 of the bucket width.
  Histogram h(0.0, 10.0, 1);
  for (int i = 0; i < 4; ++i) h.Add(5.0);
  EXPECT_NEAR(h.Quantile(0.25), 2.5, 1e-9);
  EXPECT_NEAR(h.Quantile(0.50), 5.0, 1e-9);
  EXPECT_NEAR(h.Quantile(1.00), 10.0, 1e-9);
}

TEST(HistogramTest, QuantileSkipsEmptyBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);  // bucket 0
  h.Add(9.5);  // bucket 9
  // The median (rank 1 of 2) is in bucket 0; p99 (rank 2) in bucket 9.
  EXPECT_LT(h.Quantile(0.50), 1.0 + 1e-9);
  EXPECT_GT(h.Quantile(0.99), 9.0 - 1e-9);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(FormatTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(5), "5");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(2111519450ULL), "2,111,519,450");
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(Percent(0.2056), "20.56%");
  EXPECT_EQ(Percent(1.0), "100.00%");
  EXPECT_EQ(Percent(0.0), "0.00%");
}

TEST(FormatTest, SecondsCell) {
  EXPECT_EQ(SecondsCell(442.0), "(442 s)");
  EXPECT_EQ(SecondsCell(1.25), "(1.25 s)");
  EXPECT_EQ(SecondsCell(0.0123), "(12.30 ms)");
}

TEST(FlagsTest, ParsesBothSyntaxes) {
  Flags flags;
  flags.Define("alpha", "1", "first");
  flags.Define("beta", "x", "second");
  const char* argv[] = {"prog", "--alpha", "7", "--beta=hello"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("alpha"), 7);
  EXPECT_EQ(flags.GetString("beta"), "hello");
}

TEST(FlagsTest, DefaultsApplyWhenUnset) {
  Flags flags;
  flags.Define("gamma", "2.5", "a double");
  flags.Define("delta", "true", "a bool");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.GetDouble("gamma"), 2.5);
  EXPECT_TRUE(flags.GetBool("delta"));
}

TEST(FlagsTest, RejectsUnknownFlag) {
  Flags flags;
  flags.Define("known", "", "known");
  const char* argv[] = {"prog", "--unknown", "1"};
  EXPECT_FALSE(flags.Parse(3, const_cast<char**>(argv)));
}

TEST(FlagsTest, RejectsMissingValueAndPositional) {
  Flags flags;
  flags.Define("x", "", "x");
  const char* argv1[] = {"prog", "--x"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv1)));
  const char* argv2[] = {"prog", "stray"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv2)));
}

TEST(FlagsTest, BareBooleanMeansTrueAndLeavesTheNextFlagAlone) {
  Flags flags;
  flags.Define("prescreen", "false", "a bool");
  flags.Define("cache", "true", "a bool");
  flags.Define("compare", "0", "a number");
  const char* argv[] = {"prog", "--prescreen", "--compare=6", "--cache"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.GetBool("prescreen"));
  EXPECT_TRUE(flags.GetBool("cache"));
  EXPECT_EQ(flags.GetInt("compare"), 6);

  // A following non-flag token is still the value.
  Flags spaced;
  spaced.Define("cache", "true", "a bool");
  const char* argv2[] = {"prog", "--cache", "false"};
  ASSERT_TRUE(spaced.Parse(3, const_cast<char**>(argv2)));
  EXPECT_FALSE(spaced.GetBool("cache"));
}

TEST(FlagsTest, RejectsValuesThatDoNotParseAsTheDefaultsType) {
  const auto parses = [](const char* value) {
    Flags flags;
    flags.Define("count", "4", "a number");
    flags.Define("ratio", "0.5", "a number");
    flags.Define("on", "false", "a bool");
    flags.Define("name", "", "a string");
    const std::string arg = value;
    const char* argv[] = {"prog", arg.c_str()};
    return flags.Parse(2, const_cast<char**>(argv));
  };
  EXPECT_TRUE(parses("--count=12"));
  EXPECT_TRUE(parses("--ratio=1e-3"));
  EXPECT_TRUE(parses("--on=yes"));
  EXPECT_TRUE(parses("--on=0"));
  EXPECT_TRUE(parses("--name=anything"));
  EXPECT_FALSE(parses("--count=abc"));
  EXPECT_FALSE(parses("--count=12x"));
  EXPECT_FALSE(parses("--count="));
  EXPECT_FALSE(parses("--ratio=0.5.1"));
  EXPECT_FALSE(parses("--on=maybe"));
  EXPECT_FALSE(parses("--on=--compare=6"));
}

TEST(FlagsTest, NonNegativeDefaultRejectsNegativeValues) {
  const auto parses = [](const char* value) {
    Flags flags;
    flags.Define("requests", "200", "a count");
    flags.Define("ratio", "0.0", "a fraction");
    flags.Define("offset", "-1", "a signed number");
    const std::string arg = value;
    const char* argv[] = {"prog", arg.c_str()};
    return flags.Parse(2, const_cast<char**>(argv));
  };
  // A negative count would wrap to a 2^64 - 1 request budget once the
  // driver casts it to unsigned.
  EXPECT_FALSE(parses("--requests=-1"));
  EXPECT_FALSE(parses("--ratio=-0.5"));
  EXPECT_FALSE(parses("--ratio=-1e-9"));
  EXPECT_TRUE(parses("--requests=0"));
  // A negative default declares a signed flag.
  EXPECT_TRUE(parses("--offset=-3"));
  EXPECT_TRUE(parses("--offset=4"));

  Flags spaced;
  spaced.Define("clients", "4", "a count");
  const char* argv[] = {"prog", "--clients", "-1"};
  EXPECT_FALSE(spaced.Parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(spaced.GetInt("clients"), 4);
}

TEST(FlagsTest, HelpReturnsFalseAndListsFlags) {
  Flags flags;
  flags.Define("verbose", "false", "chatty output");
  EXPECT_NE(flags.Usage("prog").find("--verbose"), std::string::npos);
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(LoggingDeathTest, CheckMacrosAbortWithDiagnostics) {
  EXPECT_DEATH({ CSJ_CHECK(1 == 2) << "impossible"; }, "check failed");
  EXPECT_DEATH({ CSJ_CHECK_EQ(3, 4); }, "3 vs 4");
  EXPECT_DEATH({ CSJ_CHECK_LT(9, 2); }, "check failed");
}

TEST(LoggingTest, PassingChecksAreSilent) {
  CSJ_CHECK(true) << "never evaluated";
  CSJ_CHECK_EQ(2, 2);
  CSJ_CHECK_LE(1, 1);
  CSJ_CHECK_GT(2, 1);
  CSJ_CHECK_NE(1, 2);
  CSJ_CHECK_GE(5, 5);
  CSJ_CHECK_LT(1, 2);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"cID", "Method"});
  t.AddRow({"1", "Ap-MinMax"});
  t.AddRow({"10", "Ex"});
  const std::string out = t.ToString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("| cID | Method    |"), std::string::npos);
  EXPECT_NE(out.find("| 10  | Ex        |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace csj::util
