// Tests for on-demand MinMax entry artifacts: ingest builds none, the
// first warm refine of an entry builds them and publishes them into the
// catalog (CommunityCatalog::EncodingsAt), concurrent first touches agree
// on one pointer, a build for a replaced or removed entry is never
// published, and a publish is invisible to the mutation clock, the
// journal, the durable-log sink and the server's result cache.

#include "service/catalog.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/signature.h"
#include "data/generator.h"
#include "service/deep_compare.h"
#include "service/server.h"
#include "service/topk.h"
#include "service/workload.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

constexpr Epsilon kWarmEps = 2;
constexpr uint32_t kWarmParts = 4;

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kMusic);
  return data::MakeCommunity(gen, size, rng);
}

CommunityCatalog::Options LazyOptions() {
  CommunityCatalog::Options options;
  options.shards = 4;
  options.warm_eps = kWarmEps;
  options.warm_parts = kWarmParts;
  options.signatures = SignatureOptions{};
  options.mutation_log_capacity = 64;
  return options;
}

/// `entry` with the artifacts an eager ingest built: an EncodedB and an
/// EncodedA of its own community under the warm parameters, constructed
/// directly rather than through the catalog's builder.
CatalogEntry WithEagerArtifacts(CatalogEntry entry) {
  const Encoder encoder(entry.community->d(), kWarmEps, kWarmParts);
  auto encodings = std::make_shared<EntryEncodings>();
  encodings->encoded_b =
      std::make_shared<const EncodedB>(*entry.community, encoder);
  encodings->encoded_a =
      std::make_shared<const EncodedA>(*entry.community, encoder);
  entry.encodings = std::move(encodings);
  return entry;
}

/// Whether `encodings` holds, byte for byte, the eager artifacts of
/// `entry`'s community.
bool EagerBytes(const CatalogEntry& entry,
                std::shared_ptr<const EntryEncodings> encodings) {
  CatalogEntry published = entry;
  published.encodings = std::move(encodings);
  return published.encodings != nullptr &&
         EntriesIdentical(published, WithEagerArtifacts(entry));
}

TEST(LazyArtifactsTest, BulkLoadAndUpsertLeaveArtifactsUnbuilt) {
  CommunityCatalog catalog(LazyOptions());
  std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch;
  for (uint32_t id = 1; id <= 40; ++id) {
    batch.emplace_back(id, std::make_shared<const Community>(
                               MakeTestCommunity(10 + id % 9, id)));
  }
  catalog.BulkLoad(std::move(batch));
  catalog.Upsert(41, MakeTestCommunity(15, 41));
  catalog.Upsert(7, MakeTestCommunity(12, 707));  // a replacement
  const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
  ASSERT_EQ(snapshot.size(), 41u);
  for (const CatalogEntry& entry : snapshot) {
    EXPECT_EQ(entry.encodings, nullptr) << "id " << entry.id;
    EXPECT_EQ(catalog.Get(entry.id).encodings, nullptr) << "id " << entry.id;
  }
}

TEST(LazyArtifactsTest, FirstRefinePublishesTheEagerBytes) {
  CommunityCatalog catalog(LazyOptions());
  for (uint32_t id = 1; id <= 30; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12 + id % 7, 100 + id));
  }
  const TopKSimilarService service(&catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = kWarmEps;
  options.join.encoding_parts = kWarmParts;
  options.use_bound_cutoff = false;  // refines every admissible entry
  const Community query = MakeTestCommunity(14, 9);
  const TopKResult result = service.Query(query, options);
  ASSERT_GT(result.stats.refined, 0u);

  // Exactly the refined entries hold artifacts now, and each holds the
  // bytes an eager build gives.
  uint32_t published = 0;
  for (const CatalogEntry& entry : catalog.Snapshot()) {
    if (entry.encodings == nullptr) continue;
    ++published;
    EXPECT_TRUE(EagerBytes(entry, entry.encodings)) << "id " << entry.id;
  }
  EXPECT_EQ(published, result.stats.refined);

  // A second query refines from the published artifacts: same answer,
  // same pointers.
  std::vector<CatalogEntry> before = catalog.Snapshot();
  EXPECT_EQ(service.Query(query, options).entries, result.entries);
  for (const CatalogEntry& entry : before) {
    EXPECT_EQ(catalog.Get(entry.id).encodings, entry.encodings)
        << "id " << entry.id;
  }
  // The published bytes are also what a checkpoint would seal: the deep
  // oracle sees this catalog equal to a fresh, never-refined copy.
  CommunityCatalog fresh(LazyOptions());
  for (uint32_t id = 1; id <= 30; ++id) {
    fresh.Upsert(id, MakeTestCommunity(12 + id % 7, 100 + id));
  }
  EXPECT_TRUE(CatalogsIdentical(catalog, fresh, kWarmEps, 0.2));
}

TEST(LazyArtifactsTest, ConcurrentFirstTouchesShareOnePointer) {
  CommunityCatalog catalog(LazyOptions());
  for (uint64_t id = 1; id <= 6; ++id) {
    catalog.Upsert(id, MakeTestCommunity(60, 200 + id));
  }
  constexpr uint32_t kThreads = 8;
  for (uint64_t id = 1; id <= 6; ++id) {
    const CatalogEntry pinned = catalog.Get(id);
    ASSERT_EQ(pinned.encodings, nullptr);
    std::vector<std::shared_ptr<const EntryEncodings>> got(kThreads);
    std::atomic<uint32_t> ready{0};
    std::vector<std::thread> crew;
    for (uint32_t t = 0; t < kThreads; ++t) {
      crew.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        got[t] = catalog.EncodingsAt(pinned);
      });
    }
    for (std::thread& thread : crew) thread.join();
    const std::shared_ptr<const EntryEncodings> resident =
        catalog.Get(id).encodings;
    ASSERT_NE(resident, nullptr) << "id " << id;
    for (uint32_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], resident) << "id " << id << " thread " << t;
    }
    EXPECT_TRUE(EagerBytes(pinned, resident)) << "id " << id;
  }
}

TEST(LazyArtifactsTest, ReplacedEntryNeverReceivesTheOldBuild) {
  CommunityCatalog catalog(LazyOptions());
  catalog.Upsert(1, MakeTestCommunity(20, 301));
  catalog.Upsert(2, MakeTestCommunity(20, 302));

  // Pinned, then replaced (and, for id 2, removed) before its first
  // refine: the refine still serves the pinned community's artifacts,
  // but publishes nothing.
  const CatalogEntry pinned = catalog.Get(1);
  catalog.Upsert(1, MakeTestCommunity(22, 311));
  const std::shared_ptr<const EntryEncodings> old_build =
      catalog.EncodingsAt(pinned);
  EXPECT_TRUE(EagerBytes(pinned, old_build));
  const CatalogEntry current = catalog.Get(1);
  EXPECT_EQ(current.encodings, nullptr);
  const std::shared_ptr<const EntryEncodings> new_build =
      catalog.EncodingsAt(current);
  EXPECT_NE(new_build, old_build);
  EXPECT_EQ(catalog.Get(1).encodings, new_build);
  EXPECT_TRUE(EagerBytes(current, new_build));

  const CatalogEntry removed = catalog.Get(2);
  ASSERT_TRUE(catalog.Remove(2));
  EXPECT_TRUE(EagerBytes(removed, catalog.EncodingsAt(removed)));
  EXPECT_EQ(catalog.Get(2).community, nullptr);

  // The race itself: writers flip ids between two contents while
  // refiners build for whatever version they pinned. Whatever the
  // interleaving of build and publish, a resident entry only ever holds
  // the artifacts of its own content.
  constexpr uint64_t kIds = 3;
  std::vector<std::vector<CatalogEntry>> contents(kIds + 1);
  for (uint64_t id = 1; id <= kIds; ++id) {
    for (uint64_t c = 0; c < 2; ++c) {
      CatalogEntry content;
      const auto size = static_cast<uint32_t>(30 + 5 * c);
      content.community = std::make_shared<const Community>(
          MakeTestCommunity(size, 400 + 10 * id + c));
      contents[id].push_back(WithEagerArtifacts(content));
    }
    catalog.Upsert(id, Community(*contents[id][0].community));
  }
  const auto holds_its_own = [&](const CatalogEntry& entry) {
    if (entry.encodings == nullptr) return true;
    for (const CatalogEntry& content : contents[entry.id]) {
      CatalogEntry want = content;
      want.id = entry.id;
      want.version = entry.version;
      want.digest = entry.digest;
      if (EntriesIdentical(entry, want)) return true;
    }
    return false;
  };
  std::atomic<bool> done{false};
  std::atomic<uint32_t> bad{0};
  std::vector<std::thread> crew;
  crew.emplace_back([&] {
    for (uint32_t round = 0; round < 300; ++round) {
      const uint64_t id = 1 + round % kIds;
      catalog.Upsert(id, Community(*contents[id][(round / kIds + 1) % 2]
                                        .community));
    }
    done.store(true);
  });
  for (uint32_t r = 0; r < 3; ++r) {
    crew.emplace_back([&] {
      do {
        for (uint64_t id = 1; id <= kIds; ++id) {
          const CatalogEntry entry = catalog.Get(id);
          CatalogEntry served = entry;
          served.encodings = catalog.EncodingsAt(entry);
          if (!holds_its_own(served) || !holds_its_own(catalog.Get(id))) {
            ++bad;
          }
        }
      } while (!done.load());
    });
  }
  for (std::thread& thread : crew) thread.join();
  EXPECT_EQ(bad.load(), 0u);
  for (const CatalogEntry& entry : catalog.Snapshot()) {
    EXPECT_TRUE(holds_its_own(entry)) << "id " << entry.id;
  }
}

TEST(LazyArtifactsTest, PublishTicksNoClockJournalOrSink) {
  CommunityCatalog catalog(LazyOptions());
  std::atomic<uint32_t> sunk{0};
  catalog.SetMutationSink([&](const MutationEvent&) { sunk.fetch_add(1); });
  for (uint64_t id = 1; id <= 5; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16, 500 + id));
  }
  const uint64_t started = catalog.mutations_started();
  const uint64_t finished = catalog.mutations_finished();
  const uint64_t seq = catalog.mutation_seq();
  const uint32_t sink_calls = sunk.load();
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_NE(catalog.EncodingsAt(catalog.Get(id)), nullptr);
    ASSERT_NE(catalog.Get(id).encodings, nullptr);
  }
  EXPECT_EQ(catalog.mutations_started(), started);
  EXPECT_EQ(catalog.mutations_finished(), finished);
  EXPECT_EQ(catalog.mutation_seq(), seq);
  EXPECT_EQ(sunk.load(), sink_calls);
  EXPECT_EQ(catalog.GetStats().upserts, 5u);
  catalog.SetMutationSink(nullptr);
}

TEST(LazyArtifactsTest, PublishKeepsResultCacheHits) {
  WorkloadOptions workload_options;
  workload_options.catalog_size = 12;
  workload_options.community_size = 50;
  workload_options.upsert_fraction = 0.0;
  workload_options.seed = testing::TestSeed(0x1A2B);
  const ServeWorkload workload(workload_options);
  CsjServer::Options options;
  options.workers = 2;
  options.result_cache = true;
  CsjServer server(options);
  workload.Populate(&server);
  for (const CatalogEntry& entry : server.catalog().Snapshot()) {
    ASSERT_EQ(entry.encodings, nullptr);
  }

  TopKOptions topk;
  topk.k = 3;
  ServeRequest request;
  request.kind = RequestKind::kTopK;
  request.community = workload.communities()[0];
  request.topk = topk;
  // The miss refines, and so publishes, while it computes: the state it
  // ran against is still stable, so its ranking is cached.
  const ServeResponse miss = server.SubmitAndWait(request);
  ASSERT_EQ(miss.status, ServeStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_NE(miss.state_version, 0u);
  uint32_t published = 0;
  for (const CatalogEntry& entry : server.catalog().Snapshot()) {
    if (entry.encodings != nullptr) ++published;
  }
  EXPECT_GT(published, 0u);

  // Publishing every other entry between two lookups keeps the hit.
  for (const CatalogEntry& entry : server.catalog().Snapshot()) {
    server.catalog().EncodingsAt(entry);
  }
  const ServeResponse hit = server.SubmitAndWait(request);
  ASSERT_EQ(hit.status, ServeStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.state_version, miss.state_version);
  EXPECT_EQ(hit.topk.entries, miss.topk.entries);
}

}  // namespace
}  // namespace csj::service
