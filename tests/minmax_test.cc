// Trace-level tests of Ap-MinMax / Ex-MinMax replicating the figures'
// mechanics: the five events, the skip/offset prefix pruning, and
// Ex-MinMax's maxV-gated segment flushes (Figures 2 and 3 of the paper,
// on a hand-verified scenario exercising every event type).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/encoding.h"
#include "core/join_options.h"
#include "core/minmax.h"

namespace csj {
namespace {

// d=3, eps=1, parts=2 (part 1 = dim {0}, part 2 = dims {1,2}).
//
// A (real id: vector -> [encoded_min, encoded_max]):
//   a0: (0,0,0)    -> [0,3]
//   a1: (0,0,1)    -> [0,4]
//   a2: (5,5,5)    -> [12,18]
//   a3: (10,10,10) -> [27,33]
// Encd_A order: a0, a1, a2, a3.
//
// B (real id: vector -> encoded_id):
//   b0: (2,0,0)    -> 2
//   b1: (0,1,1)    -> 2
//   b2: (0,3,0)    -> 3
//   b3: (4,0,0)    -> 4
//   b4: (5,5,6)    -> 16
//   b5: (20,0,0)   -> 20
//   b6: (10,10,11) -> 31
// Encd_B order: b0, b1, b2, b3, b4, b5, b6.
Community MakeA() {
  Community a(3);
  a.AddUser(std::vector<Count>{0, 0, 0});
  a.AddUser(std::vector<Count>{0, 0, 1});
  a.AddUser(std::vector<Count>{5, 5, 5});
  a.AddUser(std::vector<Count>{10, 10, 10});
  return a;
}

Community MakeB() {
  Community b(3);
  b.AddUser(std::vector<Count>{2, 0, 0});
  b.AddUser(std::vector<Count>{0, 1, 1});
  b.AddUser(std::vector<Count>{0, 3, 0});
  b.AddUser(std::vector<Count>{4, 0, 0});
  b.AddUser(std::vector<Count>{5, 5, 6});
  b.AddUser(std::vector<Count>{20, 0, 0});
  b.AddUser(std::vector<Count>{10, 10, 11});
  return b;
}

JoinOptions TraceOptions(EventLog* log) {
  JoinOptions options;
  options.eps = 1;
  options.encoding_parts = 2;
  options.event_log = log;
  return options;
}

TEST(ApMinMaxTraceTest, FullEventSequence) {
  const Community b = MakeB();
  const Community a = MakeA();
  EventLog log;
  const JoinResult result = ApMinMaxJoin(b, a, TraceOptions(&log));

  const std::vector<EventRecord> expected = {
      // b0 (id 2): part filter rejects a0 and a1, then a2 min-prunes it.
      {Event::kNoOverlap, 0, 0},
      {Event::kNoOverlap, 0, 1},
      {Event::kMinPrune, 0, 2},
      // b1 (id 2): matches a0 and stops (approximate rule).
      {Event::kMatch, 1, 0},
      // b2 (id 3): a0 now used and skipped via offset; full compare with a1
      // fails; a2 min-prunes.
      {Event::kNoMatch, 2, 1},
      {Event::kMinPrune, 2, 2},
      // b3 (id 4): part filter rejects a1; a2 min-prunes.
      {Event::kNoOverlap, 3, 1},
      {Event::kMinPrune, 3, 2},
      // b4 (id 16): max-prunes a1 (advancing offset), matches a2.
      {Event::kMaxPrune, 4, 1},
      {Event::kMatch, 4, 2},
      // b5 (id 20): a2 used and skipped; a3 min-prunes.
      {Event::kMinPrune, 5, 3},
      // b6 (id 31): matches a3.
      {Event::kMatch, 6, 3},
  };
  EXPECT_EQ(log.records, expected);

  const std::vector<MatchedPair> expected_pairs = {{1, 0}, {4, 2}, {6, 3}};
  EXPECT_EQ(result.pairs, expected_pairs);
  EXPECT_DOUBLE_EQ(result.Similarity(), 3.0 / 7.0);
  EXPECT_EQ(result.stats.matches, 3u);
  EXPECT_EQ(result.stats.no_matches, 1u);
  EXPECT_EQ(result.stats.no_overlaps, 3u);
  EXPECT_EQ(result.stats.min_prunes, 4u);
  EXPECT_EQ(result.stats.max_prunes, 1u);
}

TEST(ExMinMaxTraceTest, FullEventSequenceWithSegmentFlushes) {
  const Community b = MakeB();
  const Community a = MakeA();
  EventLog log;
  const JoinResult result = ExMinMaxJoin(b, a, TraceOptions(&log));

  const std::vector<EventRecord> expected = {
      // b0 (id 2): as in Ap.
      {Event::kNoOverlap, 0, 0},
      {Event::kNoOverlap, 0, 1},
      {Event::kMinPrune, 0, 2},
      // b1 (id 2): exact rule keeps scanning after the a0 match and also
      // matches a1 (maxV becomes 4), then a2 min-prunes. No flush: b2's
      // id (3) does not exceed maxV (4).
      {Event::kMatch, 1, 0},
      {Event::kMatch, 1, 1},
      {Event::kMinPrune, 1, 2},
      // b2 (id 3): a0 is NOT consumed in the exact method — the part
      // filter rejects it; a1 full-compares to NO MATCH; a2 min-prunes.
      // Still no flush: b3's id (4) does not exceed maxV (4).
      {Event::kNoOverlap, 2, 0},
      {Event::kNoMatch, 2, 1},
      {Event::kMinPrune, 2, 2},
      // b3 (id 4): max-prunes a0 (offset now skips it), part filter
      // rejects a1, a2 min-prunes. b4's id (16) > maxV (4) -> FLUSH of
      // segment {<b1,a0>, <b1,a1>} -> one pair for b1.
      {Event::kMaxPrune, 3, 0},
      {Event::kNoOverlap, 3, 1},
      {Event::kMinPrune, 3, 2},
      // b4 (id 16): max-prunes a1, matches a2 (maxV 18), a3 min-prunes.
      // b5's id (20) > 18 -> FLUSH of {<b4,a2>}.
      {Event::kMaxPrune, 4, 1},
      {Event::kMatch, 4, 2},
      {Event::kMinPrune, 4, 3},
      // b5 (id 20): max-prunes a2, a3 min-prunes. Empty flush.
      {Event::kMaxPrune, 5, 2},
      {Event::kMinPrune, 5, 3},
      // b6 (id 31): matches a3; final flush.
      {Event::kMatch, 6, 3},
  };
  EXPECT_EQ(log.records, expected);

  // Three one-to-one pairs: b1 with a0 or a1, plus <b4,a2> and <b6,a3>.
  ASSERT_EQ(result.pairs.size(), 3u);
  EXPECT_EQ(result.pairs[0].b, 1u);
  EXPECT_TRUE(result.pairs[0].a == 0u || result.pairs[0].a == 1u);
  EXPECT_EQ(result.pairs[1], (MatchedPair{4, 2}));
  EXPECT_EQ(result.pairs[2], (MatchedPair{6, 3}));

  EXPECT_EQ(result.stats.candidate_pairs, 4u);
  EXPECT_EQ(result.stats.csf_flushes, 3u);  // two mid-run + the final one
  EXPECT_DOUBLE_EQ(result.Similarity(), 3.0 / 7.0);
}

TEST(MinMaxTest, EmptyBIsNoMatches) {
  const Community b(3);
  const Community a = MakeA();
  JoinOptions options;
  options.eps = 1;
  EXPECT_TRUE(ApMinMaxJoin(b, a, options).pairs.empty());
  EXPECT_TRUE(ExMinMaxJoin(b, a, options).pairs.empty());
}

TEST(MinMaxTest, EmptyAIsNoMatches) {
  const Community b = MakeB();
  const Community a(3);
  JoinOptions options;
  options.eps = 1;
  EXPECT_TRUE(ApMinMaxJoin(b, a, options).pairs.empty());
  const JoinResult ex = ExMinMaxJoin(b, a, options);
  EXPECT_TRUE(ex.pairs.empty());
  EXPECT_EQ(ex.stats.csf_flushes, 0u);
}

TEST(MinMaxTest, IdenticalCommunitiesFullSimilarity) {
  const Community a = MakeA();
  JoinOptions options;
  options.eps = 1;
  const JoinResult ex = ExMinMaxJoin(a, a, options);
  EXPECT_DOUBLE_EQ(ex.Similarity(), 1.0);
  const JoinResult ap = ApMinMaxJoin(a, a, options);
  EXPECT_DOUBLE_EQ(ap.Similarity(), 1.0);
}

TEST(MinMaxTest, EpsZeroMatchesOnlyEqualVectors) {
  Community b(2);
  b.AddUser(std::vector<Count>{1, 1});
  b.AddUser(std::vector<Count>{2, 2});
  Community a(2);
  a.AddUser(std::vector<Count>{1, 1});
  a.AddUser(std::vector<Count>{3, 3});
  JoinOptions options;
  options.eps = 0;
  const JoinResult ex = ExMinMaxJoin(b, a, options);
  ASSERT_EQ(ex.pairs.size(), 1u);
  EXPECT_EQ(ex.pairs[0], (MatchedPair{0, 0}));
}

TEST(MinMaxTest, HeldEncodingsJoinLikeTheCommunityForm) {
  // The kernels on caller-held encodings (the catalog's entry artifacts)
  // return exactly what the Community-only form returns.
  const Community a = MakeA();
  const Community b = MakeB();
  JoinOptions options;
  options.eps = 1;
  options.encoding_parts = 2;
  const Encoder encoder(b.d(), options.eps, options.encoding_parts);
  const EncodedB encd_b(b, encoder);
  const EncodedA encd_a(a, encoder);
  const JoinResult held[2] = {ApMinMaxJoin(b, a, encd_b, encd_a, options),
                              ExMinMaxJoin(b, a, encd_b, encd_a, options)};
  const JoinResult built[2] = {ApMinMaxJoin(b, a, options),
                               ExMinMaxJoin(b, a, options)};
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(held[m].method, built[m].method);
    EXPECT_EQ(held[m].pairs, built[m].pairs);
    EXPECT_EQ(held[m].stats.min_prunes, built[m].stats.min_prunes);
    EXPECT_EQ(held[m].stats.max_prunes, built[m].stats.max_prunes);
    EXPECT_EQ(held[m].stats.no_overlaps, built[m].stats.no_overlaps);
    EXPECT_EQ(held[m].stats.dimension_compares,
              built[m].stats.dimension_compares);
    EXPECT_EQ(held[m].stats.csf_flushes, built[m].stats.csf_flushes);
  }
}

}  // namespace
}  // namespace csj
