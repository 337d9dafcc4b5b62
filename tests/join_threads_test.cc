// Intra-join parallelism: for every method and any join_threads value the
// JoinResult must be byte-identical to the serial run — pairs, similarity
// and the summed event counters — on a caller-injected pool, nested under
// pipeline_threads, and with the encoding cache in play. Also covers the
// cost-aware scheduling order and the pipeline's nesting budget.

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/encoding_cache.h"
#include "core/method.h"
#include "pipeline/screening.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// Everything a join guarantees to be thread-count invariant: the exact
/// pair list, the bit pattern of the similarity, and every event counter
/// (timing excluded). The counters matter as much as the pairs — the
/// chunked scans must TELESCOPE their prune/compare tallies to the serial
/// sums, not merely find the same matching.
void ExpectResultsIdentical(const JoinResult& serial,
                            const JoinResult& parallel, Method method,
                            uint32_t join_threads) {
  std::string trace = MethodName(method);
  trace += " join_threads=";
  trace += std::to_string(join_threads);
  SCOPED_TRACE(trace);
  EXPECT_EQ(parallel.pairs, serial.pairs);
  EXPECT_EQ(parallel.size_b, serial.size_b);
  const double sim_s = serial.Similarity();
  const double sim_p = parallel.Similarity();
  EXPECT_EQ(std::memcmp(&sim_p, &sim_s, sizeof(double)), 0);
  EXPECT_EQ(parallel.stats.min_prunes, serial.stats.min_prunes);
  EXPECT_EQ(parallel.stats.max_prunes, serial.stats.max_prunes);
  EXPECT_EQ(parallel.stats.no_overlaps, serial.stats.no_overlaps);
  EXPECT_EQ(parallel.stats.no_matches, serial.stats.no_matches);
  EXPECT_EQ(parallel.stats.matches, serial.stats.matches);
  EXPECT_EQ(parallel.stats.dimension_compares,
            serial.stats.dimension_compares);
  EXPECT_EQ(parallel.stats.candidate_pairs, serial.stats.candidate_pairs);
  EXPECT_EQ(parallel.stats.csf_flushes, serial.stats.csf_flushes);
}

/// Every method x join_threads in {1, 2, 5, 8} on a caller-owned pool —
/// real worker threads regardless of what ThreadPool::Global() was sized
/// to, which is what makes this the TSAN target for the chunked scans.
TEST(JoinThreadsTest, ByteIdenticalForEveryMethodOnInjectedPool) {
  const Community b = RandomCommunity(8, 280, 10, testing::TestSeed(11));
  const Community a = RandomCommunity(8, 330, 10, testing::TestSeed(12));
  util::ThreadPool pool(4);
  std::vector<Method> methods(std::begin(kAllMethods), std::end(kAllMethods));
  methods.insert(methods.end(), std::begin(kExtensionMethods),
                 std::end(kExtensionMethods));
  for (const Method method : methods) {
    JoinOptions options;
    options.eps = 2;
    options.superego_threshold = 16;
    options.join_threads = 1;
    const JoinResult serial = RunMethod(method, b, a, options);
    options.pool = &pool;
    for (const uint32_t join_threads : {1u, 2u, 5u, 8u}) {
      options.join_threads = join_threads;
      ExpectResultsIdentical(serial, RunMethod(method, b, a, options), method,
                             join_threads);
    }
  }
}

/// Deferred segment matching: every method x matching_threads in
/// {1, 2, 5, 8} must be byte-identical to the serial inline-flush run.
/// Only Ex-MinMax actually farms segments out (the other methods run one
/// matcher call or none), but the sweep runs ALL TEN methods so the knob
/// is proven inert where it must be inert. Both matchers are covered:
/// CSF's per-segment tie-breaks and Hopcroft-Karp's per-segment optimum
/// must each survive the farm's reordering of WORK (never of output).
TEST(JoinThreadsTest, ByteIdenticalForEveryMethodWithMatchingThreads) {
  const Community b = RandomCommunity(8, 280, 10, testing::TestSeed(13));
  const Community a = RandomCommunity(8, 330, 10, testing::TestSeed(14));
  util::ThreadPool pool(4);
  std::vector<Method> methods(std::begin(kAllMethods), std::end(kAllMethods));
  methods.insert(methods.end(), std::begin(kExtensionMethods),
                 std::end(kExtensionMethods));
  for (const Method method : methods) {
    for (const matching::MatcherKind matcher :
         {matching::MatcherKind::kCsf, matching::MatcherKind::kMaxMatching}) {
      JoinOptions options;
      options.eps = 2;
      options.superego_threshold = 16;
      options.matcher = matcher;
      options.matching_threads = 1;
      const JoinResult serial = RunMethod(method, b, a, options);
      options.pool = &pool;
      for (const uint32_t matching_threads : {1u, 2u, 5u, 8u}) {
        options.matching_threads = matching_threads;
        ExpectResultsIdentical(serial, RunMethod(method, b, a, options),
                               method, matching_threads);
      }
    }
  }
}

/// Both intra-join axes at once: chunked candidate collection
/// (join_threads) feeding the deferred segment farm (matching_threads) on
/// one shared pool. The axes compose — the scan's deterministic merge
/// replays the segment-close rule, then the farm matches those segments —
/// so the cross product must still telescope to the serial result.
TEST(JoinThreadsTest, ScanAndMatchingThreadsComposeDeterministically) {
  // Clustered data: users sit in tight groups spaced far beyond eps, so
  // the encoded scan closes one CSF segment per populated cluster run —
  // the multi-segment shape the farm exists for.
  auto clustered = [](uint32_t n, uint64_t seed) {
    util::Rng rng(seed);
    Community c(6);
    std::vector<Count> vec(6);
    for (uint32_t i = 0; i < n; ++i) {
      const Count center = static_cast<Count>(rng.Below(24)) * 100;
      for (auto& v : vec) v = center + static_cast<Count>(rng.Below(4));
      c.AddUser(vec);
    }
    return c;
  };
  const Community b = clustered(260, testing::TestSeed(15));
  const Community a = clustered(320, testing::TestSeed(16));
  util::ThreadPool pool(4);
  JoinOptions options;
  options.eps = 2;
  const JoinResult serial = RunMethod(Method::kExMinMax, b, a, options);
  EXPECT_GT(serial.stats.csf_flushes, 1u);  // multiple segments, or the
                                            // farm has nothing to prove
  options.pool = &pool;
  for (const uint32_t join_threads : {1u, 2u, 8u}) {
    for (const uint32_t matching_threads : {2u, 5u, 8u}) {
      options.join_threads = join_threads;
      options.matching_threads = matching_threads;
      ExpectResultsIdentical(serial,
                             RunMethod(Method::kExMinMax, b, a, options),
                             Method::kExMinMax,
                             join_threads * 100 + matching_threads);
    }
  }
}

/// The cached and cache-less paths must agree under parallel chunking too
/// (the chunks read the SAME shared immutable encoded buffers when a
/// cache is wired — the read-share the shared_mutex fast path protects).
TEST(JoinThreadsTest, ByteIdenticalWithEncodingCache) {
  const Community b = RandomCommunity(6, 240, 8, testing::TestSeed(21));
  const Community a = RandomCommunity(6, 300, 8, testing::TestSeed(22));
  util::ThreadPool pool(4);
  for (const Method method :
       {Method::kExMinMax, Method::kExBaseline, Method::kExSuperEgo,
        Method::kExMinMaxEgo}) {
    JoinOptions options;
    options.eps = 2;
    options.superego_threshold = 16;
    const JoinResult serial = RunMethod(method, b, a, options);
    EncodingCache cache;
    options.cache = &cache;
    options.pool = &pool;
    for (const uint32_t join_threads : {2u, 5u, 8u}) {
      options.join_threads = join_threads;
      // Twice per thread count: cold cache (chunks race the build
      // dedup) and hot cache (pure shared-lock hits).
      ExpectResultsIdentical(serial, RunMethod(method, b, a, options), method,
                             join_threads);
      ExpectResultsIdentical(serial, RunMethod(method, b, a, options), method,
                             join_threads);
    }
  }
}

namespace nested {

using pipeline::PipelineOptions;
using pipeline::PipelineReport;

void ExpectReportsIdentical(const PipelineReport& serial,
                            const PipelineReport& parallel,
                            uint32_t pipeline_threads,
                            uint32_t join_threads) {
  std::string trace = "pipeline_threads=";
  trace += std::to_string(pipeline_threads);
  trace += " join_threads=";
  trace += std::to_string(join_threads);
  SCOPED_TRACE(trace);
  EXPECT_EQ(parallel.screened, serial.screened);
  EXPECT_EQ(parallel.refined, serial.refined);
  EXPECT_EQ(parallel.inadmissible, serial.inadmissible);
  EXPECT_EQ(parallel.bound_pruned, serial.bound_pruned);
  EXPECT_EQ(parallel.cache_hits, serial.cache_hits);
  EXPECT_EQ(parallel.cache_misses, serial.cache_misses);
  ASSERT_EQ(parallel.entries.size(), serial.entries.size());
  for (size_t i = 0; i < serial.entries.size(); ++i) {
    const auto& s = serial.entries[i];
    const auto& p = parallel.entries[i];
    EXPECT_EQ(p.candidate_index, s.candidate_index) << "entry " << i;
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

/// Both parallelism axes at once: couples fan out across the pool while
/// each join chunks its own scan on the same pool (the nested ParallelFor
/// inlines on the worker — the budget and re-entrant Run() guarantee).
/// The report must still be byte-identical to the fully serial run.
TEST(JoinThreadsTest, NestedUnderPipelineThreadsIsDeterministic) {
  std::vector<Community> catalog;
  const uint32_t sizes[] = {200, 150, 260, 170, 230};
  for (uint32_t i = 0; i < 5; ++i) {
    Community c = RandomCommunity(6, sizes[i], 6, testing::TestSeed(300 + i));
    std::string name = "n";
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
  options.join.eps = 3;
  options.pipeline_threads = 1;
  options.join.join_threads = 1;
  EncodingCache serial_cache;
  options.join.cache = &serial_cache;
  const PipelineReport serial = ScreenAndRefineAllPairs(pointers, options);
  EXPECT_GT(serial.entries.size(), 0u);

  util::ThreadPool pool(4);
  options.join.pool = &pool;
  for (const uint32_t pipeline_threads : {2u, 4u}) {
    for (const uint32_t join_threads : {2u, 8u}) {
      EncodingCache cache;
      options.join.cache = &cache;
      options.pipeline_threads = pipeline_threads;
      options.join.join_threads = join_threads;
      ExpectReportsIdentical(serial,
                             ScreenAndRefineAllPairs(pointers, options),
                             pipeline_threads, join_threads);
    }
  }

  // Third axis: deferred segment matching nested under both of the above.
  // NestedJoinThreads budgets matching_threads exactly like join_threads,
  // and the farm degrades to an inline loop on a worker thread — the
  // report must not move a bit.
  for (const uint32_t matching_threads : {2u, 8u}) {
    EncodingCache cache;
    options.join.cache = &cache;
    options.pipeline_threads = 4;
    options.join.join_threads = 2;
    options.join.matching_threads = matching_threads;
    ExpectReportsIdentical(serial, ScreenAndRefineAllPairs(pointers, options),
                           4, 200 + matching_threads);
  }
}

}  // namespace nested

/// The scheduling regression the cost switch fixes: member count ranks a
/// 12x12 d=1 couple above a 10x10 d=100 one, but the latter does ~70x the
/// join work. The cost-aware order must schedule the expensive couple
/// first so it cannot land last and serialize the tail.
TEST(CostAwareSchedulingTest, SkewedWorkloadSchedulesExpensiveCoupleFirst) {
  const Community wide_b = RandomCommunity(100, 10, 5, testing::TestSeed(41));
  const Community wide_a = RandomCommunity(100, 10, 5, testing::TestSeed(42));
  const Community narrow_b = RandomCommunity(1, 12, 5, testing::TestSeed(43));
  const Community narrow_a = RandomCommunity(1, 12, 5, testing::TestSeed(44));
  EXPECT_GT(pipeline::EstimatedCoupleCost(wide_b, wide_a),
            pipeline::EstimatedCoupleCost(narrow_b, narrow_a));

  // Candidate order lists the cheap-but-more-members couple first; the
  // schedule must invert that.
  std::vector<std::pair<const Community*, const Community*>> couples;
  couples.emplace_back(&narrow_b, &narrow_a);  // 12*12*1   = 144
  couples.emplace_back(&wide_b, &wide_a);      // 10*10*100 = 10000
  const std::vector<uint32_t> order = pipeline::CostAwareOrder(couples);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // the d=100 couple goes first
  EXPECT_EQ(order[1], 0u);

  // Equal costs keep candidate order (stable tie-break).
  couples.emplace_back(&narrow_b, &narrow_a);
  const std::vector<uint32_t> tied = pipeline::CostAwareOrder(couples);
  ASSERT_EQ(tied.size(), 3u);
  EXPECT_EQ(tied[1], 0u);
  EXPECT_EQ(tied[2], 2u);
}

TEST(NestedJoinThreadsTest, BudgetSharesThePoolAcrossInFlightCouples) {
  // join_threads == 1 never chunks, whatever else is happening.
  EXPECT_EQ(pipeline::NestedJoinThreads(1, 8, 16, 100), 1u);
  // A single couple inherits the whole pool.
  EXPECT_EQ(pipeline::NestedJoinThreads(8, 4, 8, 1), 8u);
  // Fair share: 8 pool threads / 4 in-flight couples = 2 each.
  EXPECT_EQ(pipeline::NestedJoinThreads(8, 4, 8, 100), 2u);
  // In-flight couples are bounded by the couple count, not just
  // pipeline_threads: 2 couples on an 8-thread pool get 4 each.
  EXPECT_EQ(pipeline::NestedJoinThreads(8, 4, 8, 2), 4u);
  // The request is a cap, not a floor.
  EXPECT_EQ(pipeline::NestedJoinThreads(4, 2, 16, 2), 4u);
  // A starved pool degrades to serial joins, never to zero.
  EXPECT_EQ(pipeline::NestedJoinThreads(8, 4, 1, 100), 1u);
  // Degenerate inputs clamp instead of dividing by zero.
  EXPECT_EQ(pipeline::NestedJoinThreads(8, 0, 0, 0), 1u);
}

}  // namespace
}  // namespace csj
