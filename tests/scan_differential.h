#ifndef CSJ_TESTS_SCAN_DIFFERENTIAL_H_
#define CSJ_TESTS_SCAN_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/join_options.h"
#include "core/join_result.h"
#include "core/method.h"
#include "util/thread_pool.h"

namespace csj::testing {

/// The differential arm of the exact scans' verify and scan paths. A
/// traced join is the Figure 3 reference: one chunk, one event per
/// candidate, every d-dimensional compare done pair by pair. An untraced
/// join prescreens branch-free, verifies runs of >= kEpsilonBlock with
/// the batched kernel, and may chunk its scan (join_threads) and farm
/// out its CSF segments (matching_threads). Asserts that the untraced
/// runs at join_threads {1, 4} x matching_threads {1, 4}, on a pool of 4
/// real workers, give the traced run's pairs and every JoinStats counter
/// (timings excluded). `options` must not carry an encoding cache: the
/// cache counters would differ between the first run and the rest.
inline void ExpectTracedEqualsUntraced(Method method, const Community& b,
                                       const Community& a,
                                       JoinOptions options) {
  ASSERT_EQ(options.cache, nullptr);
  EventLog log;
  options.event_log = &log;
  options.join_threads = 1;
  options.matching_threads = 1;
  const JoinResult traced = RunMethod(method, b, a, options);
  ASSERT_FALSE(log.records.empty()) << MethodName(method) << " traced nothing";

  util::ThreadPool pool(4);
  options.event_log = nullptr;
  options.pool = &pool;
  for (const uint32_t join_threads : {1u, 4u}) {
    for (const uint32_t matching_threads : {1u, 4u}) {
      options.join_threads = join_threads;
      options.matching_threads = matching_threads;
      std::string trace = MethodName(method);
      trace += " join_threads=";
      trace += std::to_string(join_threads);
      trace += " matching_threads=";
      trace += std::to_string(matching_threads);
      SCOPED_TRACE(trace);
      const JoinResult untraced = RunMethod(method, b, a, options);
      EXPECT_EQ(untraced.pairs, traced.pairs);
      const JoinStats& u = untraced.stats;
      const JoinStats& t = traced.stats;
      EXPECT_EQ(u.min_prunes, t.min_prunes);
      EXPECT_EQ(u.max_prunes, t.max_prunes);
      EXPECT_EQ(u.no_overlaps, t.no_overlaps);
      EXPECT_EQ(u.no_matches, t.no_matches);
      EXPECT_EQ(u.matches, t.matches);
      EXPECT_EQ(u.dimension_compares, t.dimension_compares);
      EXPECT_EQ(u.candidate_pairs, t.candidate_pairs);
      EXPECT_EQ(u.csf_flushes, t.csf_flushes);
      EXPECT_EQ(u.cache_hits, t.cache_hits);
      EXPECT_EQ(u.cache_misses, t.cache_misses);
      EXPECT_EQ(u.cache_bytes_built, t.cache_bytes_built);
    }
  }
}

}  // namespace csj::testing

#endif  // CSJ_TESTS_SCAN_DIFFERENTIAL_H_
