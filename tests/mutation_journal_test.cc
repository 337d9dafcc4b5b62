// Edge-case tests for the catalog's bounded in-RAM mutation journal:
// capacity-1 wraparound, the TopKMaintainer's truncated-cursor fallback
// to a full recompute, and the no-op Remove of an absent id (which must
// leave journal, sink, and version clock untouched).

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "data/generator.h"
#include "evolve/maintainer.h"
#include "service/catalog.h"
#include "service/topk.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::evolve {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

TEST(MutationJournalTest, CapacityOneRetainsOnlyTheNewestRecord) {
  service::CommunityCatalog::Options options;
  options.mutation_log_capacity = 1;
  service::CommunityCatalog catalog(options);

  const uint64_t v1 = catalog.Upsert(10, MakeTestCommunity(8, 1));
  std::vector<service::MutationRecord> records;
  ASSERT_TRUE(catalog.ReadMutationsSince(0, &records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].id, 10u);
  EXPECT_EQ(records[0].version, v1);

  // The second mutation evicts the first: a cursor at 0 is now BEHIND
  // the retained window and must be told to resynchronize...
  const uint64_t v2 = catalog.Upsert(11, MakeTestCommunity(8, 2));
  records.clear();
  EXPECT_FALSE(catalog.ReadMutationsSince(0, &records));
  EXPECT_TRUE(records.empty());

  // ...while a cursor at the previous head reads exactly the survivor.
  records.clear();
  ASSERT_TRUE(catalog.ReadMutationsSince(1, &records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 2u);
  EXPECT_EQ(records[0].id, 11u);
  EXPECT_EQ(records[0].version, v2);

  // Wraparound never skips a sequence number: ten more mutations, the
  // head cursor still reads the single newest record each time.
  for (uint64_t i = 0; i < 10; ++i) {
    catalog.Upsert(20 + i, MakeTestCommunity(8, 20 + i));
    records.clear();
    ASSERT_TRUE(catalog.ReadMutationsSince(catalog.mutation_seq() - 1,
                                           &records));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].seq, catalog.mutation_seq());
    EXPECT_EQ(records[0].id, 20 + i);
  }
  // A remove journals too, version 0.
  ASSERT_TRUE(catalog.Remove(11));
  records.clear();
  ASSERT_TRUE(catalog.ReadMutationsSince(catalog.mutation_seq() - 1,
                                         &records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].remove);
  EXPECT_EQ(records[0].version, 0u);
}

TEST(MutationJournalTest, MaintainerFallsBackWhenItsCursorIsTruncated) {
  EncodingCache cache;
  service::CommunityCatalog::Options options;
  options.warm_eps = 1;
  options.mutation_log_capacity = 2;  // tiny: easy to outrun
  service::CommunityCatalog catalog(options);
  for (uint64_t id = 1; id <= 12; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12, id));
  }
  service::TopKSimilarService service(&catalog);

  service::TopKOptions topk;
  topk.k = 3;
  topk.join.eps = 1;
  topk.join.cache = &cache;

  TopKMaintainer::Options maintainer_options;
  maintainer_options.service = &service;
  TopKMaintainer maintainer(&catalog, maintainer_options);
  const auto pivot =
      std::make_shared<const Community>(MakeTestCommunity(12, 999));
  const auto query = maintainer.Register(pivot, topk);
  maintainer.Refresh(query);  // baseline

  // More mutations than the journal retains: the maintainer's cursor is
  // truncated away and Refresh MUST take the full-recompute fallback —
  // and still land on exactly the fresh ranking.
  for (uint64_t id = 1; id <= 8; ++id) {
    catalog.Upsert(id, MakeTestCommunity(14, 100 + id));
  }
  const auto outcome = maintainer.Refresh(query);
  EXPECT_FALSE(outcome.fast_path);
  EXPECT_GE(maintainer.GetStats().log_truncations, 1u);
  EXPECT_TRUE(maintainer.Ranking(query) ==
              service.Query(*pivot, topk).entries);

  // Within-capacity churn right after the resync takes the fast path
  // again (the fallback repaired the cursor, not just the ranking).
  catalog.Upsert(3, MakeTestCommunity(15, 200));
  const auto repaired = maintainer.Refresh(query);
  EXPECT_TRUE(repaired.fast_path);
  EXPECT_TRUE(maintainer.Ranking(query) ==
              service.Query(*pivot, topk).entries);
}

TEST(MutationJournalTest, RemoveOfAbsentIdLeavesEveryObserverUntouched) {
  service::CommunityCatalog::Options options;
  options.mutation_log_capacity = 8;
  service::CommunityCatalog catalog(options);
  catalog.Upsert(1, MakeTestCommunity(8, 1));

  uint64_t sink_events = 0;
  catalog.SetMutationSink(
      [&sink_events](const service::MutationEvent&) { ++sink_events; });

  const uint64_t seq_before = catalog.mutation_seq();
  const uint64_t version_before = catalog.latest_version();
  const uint64_t finished_before = catalog.mutations_finished();

  // Absent id, and an id that was never present at all.
  EXPECT_FALSE(catalog.Remove(77));
  EXPECT_FALSE(catalog.Remove(0));

  EXPECT_EQ(catalog.mutation_seq(), seq_before);
  EXPECT_EQ(catalog.latest_version(), version_before);
  EXPECT_EQ(sink_events, 0u);
  EXPECT_EQ(catalog.size(), 1u);
  std::vector<service::MutationRecord> records;
  ASSERT_TRUE(catalog.ReadMutationsSince(seq_before, &records));
  EXPECT_TRUE(records.empty());

  // A REAL remove right after still journals, fires the sink, and ticks
  // the clock from where the no-ops left it.
  EXPECT_TRUE(catalog.Remove(1));
  EXPECT_EQ(catalog.mutation_seq(), seq_before + 1);
  EXPECT_EQ(sink_events, 1u);
  EXPECT_GE(catalog.mutations_finished(), finished_before + 1);
}

}  // namespace
}  // namespace csj::evolve
