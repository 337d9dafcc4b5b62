// Tests for the ParallelFor utility and the thread-count invariance of
// the parallel execution paths: every join method and the pipeline must
// reproduce the serial result byte for byte at any thread count.

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/epsilon_predicate.h"
#include "core/method.h"
#include "pipeline/screening.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csj {
namespace {

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (const uint32_t threads : {1u, 2u, 3u, 7u}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    util::ParallelFor(10, 90, threads,
                      [&](uint32_t lo, uint32_t hi, uint32_t) {
                        for (uint32_t i = lo; i < hi; ++i) ++hits[i];
                      });
    for (uint32_t i = 0; i < 100; ++i) {
      EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0)
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  int calls = 0;
  util::ParallelFor(5, 5, 4, [&](uint32_t, uint32_t, uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(util::ParallelChunks(5, 5, 4), 0u);
}

TEST(ParallelForTest, ChunksClampToRangeSize) {
  EXPECT_EQ(util::ParallelChunks(0, 3, 100), 3u);
  EXPECT_EQ(util::ParallelChunks(0, 100, 4), 4u);
  EXPECT_EQ(util::ParallelChunks(0, 10, 0), 1u);
}

TEST(ParallelForTest, ChunkIndicesAreContiguousAndOrderedByRange) {
  std::mutex mutex;
  std::vector<std::pair<uint32_t, uint32_t>> spans(4);
  util::ParallelFor(0, 10, 4, [&](uint32_t lo, uint32_t hi, uint32_t chunk) {
    const std::lock_guard<std::mutex> lock(mutex);
    spans[chunk] = {lo, hi};
  });
  uint32_t expected_lo = 0;
  for (const auto& [lo, hi] : spans) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LE(hi - lo, 3u);
    EXPECT_GE(hi - lo, 2u);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 10u);
}

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

/// Any thread count must reproduce the single-thread result exactly —
/// pairs, similarity, and comparison counters alike — for EVERY method
/// (the order-dependent scans ignore `threads` by design, so they pass
/// trivially; the chunked exact methods are the real subject).
TEST(ParallelJoinTest, ThreadCountInvarianceForEveryMethod) {
  const Community b = RandomCommunity(8, 300, 10, 1);
  const Community a = RandomCommunity(8, 350, 10, 2);
  std::vector<Method> methods(std::begin(kAllMethods), std::end(kAllMethods));
  methods.insert(methods.end(), std::begin(kExtensionMethods),
                 std::end(kExtensionMethods));
  for (const Method method : methods) {
    JoinOptions options;
    options.eps = 2;
    options.superego_threshold = 16;
    options.join_threads = 1;
    const JoinResult serial = RunMethod(method, b, a, options);
    for (const uint32_t threads : {2u, 4u, 9u}) {
      options.join_threads = threads;
      const JoinResult parallel = RunMethod(method, b, a, options);
      EXPECT_EQ(parallel.pairs, serial.pairs)
          << MethodName(method) << " threads=" << threads;
      EXPECT_EQ(parallel.stats.matches, serial.stats.matches);
      EXPECT_EQ(parallel.stats.no_matches, serial.stats.no_matches);
      EXPECT_EQ(parallel.stats.dimension_compares,
                serial.stats.dimension_compares);
      EXPECT_EQ(parallel.stats.candidate_pairs, serial.stats.candidate_pairs);
    }
  }
}

/// ParallelFor with threads == 1 must execute inline on the calling
/// thread with no pool interaction (the paper's evaluation setting).
TEST(ParallelForTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  uint32_t calls = 0;
  util::ParallelFor(0, 100, 1, [&](uint32_t lo, uint32_t hi, uint32_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
    EXPECT_EQ(c, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

/// The blocked EpsilonMatches agrees with the independent Chebyshev
/// oracle on random vectors of every size around the block width.
TEST(EpsilonKernelTest, MatchesChebyshevOracle) {
  util::Rng rng(42);
  for (const Dim d : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 27u, 31u, 32u, 33u,
                      40u, 64u, 100u}) {
    for (uint32_t trial = 0; trial < 200; ++trial) {
      std::vector<Count> x(d);
      std::vector<Count> y(d);
      for (Dim i = 0; i < d; ++i) {
        x[i] = static_cast<Count>(rng.Below(8));
        y[i] = static_cast<Count>(rng.Below(8));
      }
      for (const Epsilon eps : {0u, 1u, 2u, 5u, 100u}) {
        EXPECT_EQ(EpsilonMatches(x, y, eps), ChebyshevDistance(x, y) <= eps)
            << "d=" << d << " eps=" << eps;
      }
    }
  }
}

namespace pipeline_invariance {

using pipeline::PipelineOptions;
using pipeline::PipelineReport;

/// Everything the pipeline guarantees to be deterministic (timing fields
/// excluded; similarity doubles compared bit-exactly).
void ExpectReportsIdentical(const PipelineReport& serial,
                            const PipelineReport& parallel,
                            uint32_t threads) {
  EXPECT_EQ(parallel.screened, serial.screened) << "threads=" << threads;
  EXPECT_EQ(parallel.refined, serial.refined);
  EXPECT_EQ(parallel.inadmissible, serial.inadmissible);
  EXPECT_EQ(parallel.bound_pruned, serial.bound_pruned);
  ASSERT_EQ(parallel.entries.size(), serial.entries.size());
  for (size_t i = 0; i < serial.entries.size(); ++i) {
    const auto& s = serial.entries[i];
    const auto& p = parallel.entries[i];
    EXPECT_EQ(p.candidate_index, s.candidate_index)
        << "entry " << i << " threads=" << threads;
    EXPECT_EQ(p.candidate_name, s.candidate_name);
    EXPECT_EQ(p.refined, s.refined);
    EXPECT_EQ(std::memcmp(&p.screened_similarity, &s.screened_similarity,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&p.refined_similarity, &s.refined_similarity,
                          sizeof(double)),
              0);
  }
}

/// A size-skewed catalog (the scheduling-interesting shape): the pipeline
/// report must be byte-identical at 1 and N threads, for both entry
/// points, with and without survivors.
TEST(ParallelPipelineTest, ReportIsThreadCountInvariant) {
  std::vector<Community> catalog;
  const uint32_t sizes[] = {220, 160, 300, 180, 260, 210};
  for (uint32_t i = 0; i < 6; ++i) {
    Community c = RandomCommunity(6, sizes[i], 6, 100 + i);
    std::string name = "c";
    name += std::to_string(i);
    c.set_name(name);
    catalog.push_back(std::move(c));
  }
  std::vector<const Community*> pointers;
  for (const Community& c : catalog) pointers.push_back(&c);

  for (const double threshold : {0.0, 0.35}) {
    PipelineOptions options;
    options.screen_method = Method::kApMinMax;
    options.refine_method = Method::kExMinMax;
    options.screen_threshold = threshold;
    options.join.eps = 3;
    options.pipeline_threads = 1;
    const PipelineReport serial_pivot =
        ScreenAndRefine(catalog[0], pointers, options);
    const PipelineReport serial_pairs =
        ScreenAndRefineAllPairs(pointers, options);
    EXPECT_GT(serial_pairs.entries.size(), 0u);
    for (const uint32_t threads : {2u, 4u, 9u}) {
      options.pipeline_threads = threads;
      ExpectReportsIdentical(serial_pivot,
                             ScreenAndRefine(catalog[0], pointers, options),
                             threads);
      ExpectReportsIdentical(serial_pairs,
                             ScreenAndRefineAllPairs(pointers, options),
                             threads);
    }
  }
}

/// The injectable-pool seam: a caller-owned pool gives the same report.
TEST(ParallelPipelineTest, InjectedPoolMatchesGlobal) {
  std::vector<Community> catalog;
  for (uint32_t i = 0; i < 4; ++i) {
    Community c = RandomCommunity(5, 150 + 20 * i, 5, 7 + i);
    std::string name = "inj";
    name += std::to_string(i);
    c.set_name(name);
    catalog.push_back(std::move(c));
  }
  std::vector<const Community*> pointers;
  for (const Community& c : catalog) pointers.push_back(&c);

  PipelineOptions options;
  options.screen_method = Method::kApMinMax;
  options.refine_method = Method::kExMinMax;
  options.screen_threshold = 0.0;
  options.join.eps = 2;
  options.pipeline_threads = 1;
  const PipelineReport serial = ScreenAndRefineAllPairs(pointers, options);

  util::ThreadPool pool(3);
  options.join.pool = &pool;
  options.pipeline_threads = 3;
  ExpectReportsIdentical(serial, ScreenAndRefineAllPairs(pointers, options),
                         3);
}

}  // namespace pipeline_invariance

TEST(ParallelJoinTest, EventLogForcesSerialExecution) {
  const Community b = RandomCommunity(3, 20, 5, 3);
  const Community a = RandomCommunity(3, 20, 5, 4);
  JoinOptions options;
  options.eps = 1;
  options.join_threads = 8;
  EventLog log;
  options.event_log = &log;
  const JoinResult result = RunMethod(Method::kExBaseline, b, a, options);
  // The full nested loop is logged in deterministic row order.
  ASSERT_EQ(log.records.size(), 400u);
  for (size_t i = 1; i < log.records.size(); ++i) {
    const auto key = [](const EventRecord& r) {
      return static_cast<uint64_t>(r.b) << 32 | r.a;
    };
    EXPECT_LT(key(log.records[i - 1]), key(log.records[i]));
  }
  EXPECT_EQ(result.stats.dimension_compares, 400u);
}

TEST(ParallelJoinTest, EmptyCommunitiesWithThreads) {
  const Community empty(4);
  Community one(4);
  one.AddUser(std::vector<Count>{1, 2, 3, 4});
  JoinOptions options;
  options.eps = 1;
  options.join_threads = 4;
  EXPECT_TRUE(RunMethod(Method::kExBaseline, empty, one, options).pairs.empty());
  EXPECT_TRUE(RunMethod(Method::kExSuperEgo, one, empty, options).pairs.empty());
  EXPECT_TRUE(
      RunMethod(Method::kExMinMaxEgo, empty, empty, options).pairs.empty());
}

}  // namespace
}  // namespace csj
