// Tests for the sharded community catalog: versioned upserts,
// copy-on-write snapshots, same-id artifact sharing, and live couple
// sessions.

#include "service/catalog.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "core/similarity.h"
#include "data/generator.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

TEST(CatalogTest, UpsertGetRemoveRoundTrip) {
  CommunityCatalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Get(7).community, nullptr);
  EXPECT_FALSE(catalog.Remove(7));

  const uint64_t v1 = catalog.Upsert(7, MakeTestCommunity(20, 1));
  EXPECT_GT(v1, 0u);
  EXPECT_EQ(catalog.size(), 1u);

  const CatalogEntry entry = catalog.Get(7);
  ASSERT_NE(entry.community, nullptr);
  EXPECT_EQ(entry.id, 7u);
  EXPECT_EQ(entry.version, v1);
  EXPECT_EQ(entry.community->size(), 20u);

  EXPECT_TRUE(catalog.Remove(7));
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Get(7).community, nullptr);
  EXPECT_FALSE(catalog.Remove(7));
}

TEST(CatalogTest, VersionsAreCatalogWideMonotonic) {
  CommunityCatalog catalog;
  uint64_t previous = 0;
  for (uint64_t id = 1; id <= 16; ++id) {
    const uint64_t version = catalog.Upsert(id, MakeTestCommunity(16, id));
    EXPECT_GT(version, previous);
    previous = version;
  }
  // Replacing an existing id still advances the global version.
  const uint64_t replaced = catalog.Upsert(3, MakeTestCommunity(16, 99));
  EXPECT_GT(replaced, previous);
  EXPECT_EQ(catalog.latest_version(), replaced);
  EXPECT_EQ(catalog.Get(3).version, replaced);
}

TEST(CatalogTest, UpsertIsCopyOnWrite) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));

  // A reader pins the current entry...
  const CatalogEntry pinned = catalog.Get(1);
  ASSERT_NE(pinned.community, nullptr);
  const Community* pinned_buffer = pinned.community.get();
  const uint32_t pinned_size = pinned.community->size();

  // ...then the catalog replaces it. The pinned buffer must be untouched:
  // a new shared buffer is installed, the old one stays alive and equal.
  catalog.Upsert(1, MakeTestCommunity(32, 2));
  const CatalogEntry current = catalog.Get(1);
  ASSERT_NE(current.community, nullptr);
  EXPECT_NE(current.community.get(), pinned_buffer);
  EXPECT_GT(current.version, pinned.version);
  EXPECT_EQ(pinned.community->size(), pinned_size);
  EXPECT_EQ(current.community->size(), 32u);

  // Remove() drops the catalog's reference, not the reader's.
  EXPECT_TRUE(catalog.Remove(1));
  EXPECT_EQ(pinned.community->size(), pinned_size);
}

TEST(CatalogTest, SnapshotIsAscendingById) {
  // Shards hold their entries in hashed maps; Snapshot() and the probe
  // both restore ascending id order.
  for (const bool signatures : {false, true}) {
    CommunityCatalog::Options options;
    options.shards = 4;  // force ids to straddle shards
    if (signatures) options.signatures = SignatureOptions{};
    CommunityCatalog catalog(options);
    const std::vector<uint64_t> ids = {42, 7, 1000, 3, 19, 256, 8, 77};
    for (const uint64_t id : ids) {
      catalog.Upsert(id, MakeTestCommunity(16, id));
    }
    const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
    ASSERT_EQ(snapshot.size(), ids.size());
    for (size_t i = 1; i < snapshot.size(); ++i) {
      EXPECT_LT(snapshot[i - 1].id, snapshot[i].id);
    }
    for (const CatalogEntry& entry : snapshot) {
      EXPECT_NE(entry.community, nullptr);
    }
    if (!signatures) continue;

    // An inert probe (every entry is admissible against a 16-user query)
    // lists the same ids as heads: the snapshot's community, no artifacts.
    const CommunitySignature query(MakeTestCommunity(16, 1),
                                   *catalog.signature_options());
    const CommunityCatalog::ProbeResult inert = catalog.ProbeCandidates(
        query, SignatureProbeOrder(query), /*eps=*/1, /*threshold=*/0.0);
    ASSERT_EQ(inert.candidates.size(), snapshot.size());
    for (size_t i = 0; i < snapshot.size(); ++i) {
      const CatalogEntry& head = inert.candidates[i];
      EXPECT_EQ(head.id, snapshot[i].id);
      EXPECT_EQ(head.version, snapshot[i].version);
      EXPECT_EQ(head.community, snapshot[i].community) << "id " << head.id;
      EXPECT_EQ(head.encodings, nullptr) << "id " << head.id;
    }
  }
}

TEST(CatalogTest, DigestMatchesRecomputation) {
  CommunityCatalog catalog;
  catalog.Upsert(5, MakeTestCommunity(20, 5));
  const CatalogEntry entry = catalog.Get(5);
  const CommunityDigest expected = DigestCommunity(*entry.community);
  EXPECT_EQ(entry.digest.fingerprint, expected.fingerprint);
  EXPECT_EQ(entry.digest.max_counter, expected.max_counter);
}

/// The artifacts and sketch `content` builds under warm parameters
/// (eps 2, 4 parts) and default signature options: what a catalog entry
/// holding `content`, and its index row, must carry, however they got
/// them.
struct Expected {
  explicit Expected(const Community& content)
      : community(content),
        encoder(content.d(), 2, 4),
        encoded_b(content, encoder),
        encoded_a(content, encoder),
        signature(content, SignatureOptions{}) {}

  /// `sketch` is the entry's row, as CommunityCatalog::SketchAt copies
  /// it.
  bool HeldBy(const CatalogEntry& entry, std::span<const Count> sketch) const {
    if (entry.encodings == nullptr) return false;
    const EncodedB& b = *entry.encodings->encoded_b;
    const EncodedA& a = *entry.encodings->encoded_a;
    if (b.size() != encoded_b.size() || b.parts() != encoded_b.parts() ||
        a.size() != encoded_a.size() || a.parts() != encoded_a.parts() ||
        a.window().size() != encoded_a.window().size() ||
        a.window().d() != encoded_a.window().d()) {
      return false;
    }
    for (uint32_t u = 0; u < b.size(); ++u) {
      if (b.encoded_id(u) != encoded_b.encoded_id(u) ||
          b.real_id(u) != encoded_b.real_id(u) ||
          a.encoded_min(u) != encoded_a.encoded_min(u) ||
          a.encoded_max(u) != encoded_a.encoded_max(u) ||
          a.real_id(u) != encoded_a.real_id(u)) {
        return false;
      }
    }
    // The flat part-sum, part-column and verify-window buffers, byte for
    // byte (window padding included).
    const size_t sums = static_cast<size_t>(b.size()) * b.parts();
    const size_t padded = VerifyWindow::PaddedCount(a.size(), community.d());
    return std::equal(b.part_sums(0).data(), b.part_sums(0).data() + sums,
                      encoded_b.part_sums(0).data()) &&
           std::equal(a.part_lo(0), a.part_lo(0) + 2 * sums,
                      encoded_a.part_lo(0)) &&
           std::equal(a.window().BlockData(0),
                      a.window().BlockData(0) + padded,
                      encoded_a.window().BlockData(0)) &&
           std::ranges::equal(sketch, signature.table());
  }

  Community community;
  Encoder encoder;
  EncodedB encoded_b;
  EncodedA encoded_a;
  CommunitySignature signature;
};

CommunityCatalog::Options SharingOptions() {
  CommunityCatalog::Options options;
  options.shards = 4;
  options.warm_eps = 2;
  options.warm_parts = 4;
  options.signatures = SignatureOptions{};
  return options;
}

TEST(CatalogTest, SameContentRefreshSharesEntryArtifacts) {
  EncodingCache cache;
  CommunityCatalog::Options options = SharingOptions();
  options.cache = &cache;  // configured, and ignored by the catalog
  CommunityCatalog catalog(options);

  const Community profile = MakeTestCommunity(30, 1);
  const Expected expected(profile);
  catalog.Upsert(1, Community(profile));
  const CatalogEntry first = catalog.Get(1);
  EXPECT_TRUE(expected.HeldBy(first, catalog.SketchAt(1, first.version)));

  // Equal content under the same id: a new version and buffer, the
  // resident artifacts and a copy of the resident sketch row.
  catalog.Upsert(1, Community(profile));
  const CatalogEntry refreshed = catalog.Get(1);
  EXPECT_GT(refreshed.version, first.version);
  EXPECT_NE(refreshed.community, first.community);
  EXPECT_EQ(refreshed.encodings, first.encodings);
  EXPECT_TRUE(
      expected.HeldBy(refreshed, catalog.SketchAt(1, refreshed.version)));
  EXPECT_TRUE(catalog.SketchAt(1, first.version).empty());

  // The rule is per id: equal content under another id builds its own.
  catalog.Upsert(2, Community(profile));
  const CatalogEntry second = catalog.Get(2);
  EXPECT_NE(second.encodings, first.encodings);
  EXPECT_TRUE(expected.HeldBy(second, catalog.SketchAt(2, second.version)));

  // Changed content (one counter) rebuilds both.
  std::vector<Count> counts(profile.flat().begin(), profile.flat().end());
  ++counts[counts.size() / 2];
  const Community changed(profile.d(), std::move(counts), profile.name());
  catalog.Upsert(1, Community(changed));
  const CatalogEntry rebuilt = catalog.Get(1);
  EXPECT_NE(rebuilt.encodings, first.encodings);
  EXPECT_TRUE(
      Expected(changed).HeldBy(rebuilt, catalog.SketchAt(1, rebuilt.version)));

  // The same again through BulkLoad: a batch member whose content equals
  // the resident entry inherits; the rest build.
  CommunityCatalog::BulkLoadStats stats;
  catalog.BulkLoad({{1, std::make_shared<const Community>(changed)},
                    {3, std::make_shared<const Community>(profile)}},
                   &stats);
  const CatalogEntry inherited = catalog.Get(1);
  EXPECT_EQ(inherited.encodings, rebuilt.encodings);
  EXPECT_TRUE(Expected(changed).HeldBy(
      inherited, catalog.SketchAt(1, inherited.version)));
  const CatalogEntry third = catalog.Get(3);
  EXPECT_TRUE(expected.HeldBy(third, catalog.SketchAt(3, third.version)));

  // Sharing rests on the bytes, not the fingerprint: a resident entry
  // whose recorded digest names other content (as a corrupt segment
  // column would) keeps its artifacts to itself.
  CatalogEntry forged = catalog.Get(2);
  forged.digest = DigestCommunity(changed);
  CommunityCatalog restored(SharingOptions());
  restored.RestoreBatch({forged}, forged.version + 1);
  restored.Upsert(2, Community(changed));
  const CatalogEntry unforged = restored.Get(2);
  EXPECT_NE(unforged.encodings, forged.encodings);
  EXPECT_TRUE(Expected(changed).HeldBy(
      unforged, restored.SketchAt(2, unforged.version)));

  // Nothing went through the configured cache.
  const EncodingCache::Stats cache_stats = cache.GetStats();
  EXPECT_EQ(cache_stats.entries, 0u);
  EXPECT_EQ(cache_stats.hits, 0u);
  EXPECT_EQ(cache_stats.misses, 0u);
}

TEST(CatalogTest, ConcurrentSameIdRefreshesStayConsistent) {
  // Two writers refresh the same ids, mostly with unchanged content, so
  // inheritance races installs of equal and of different content; two
  // readers check that every entry they see carries exactly its own
  // content's artifacts and sketch.
  constexpr uint64_t kIds = 4;
  std::vector<Community> contents;
  for (uint64_t c = 0; c < 2 * kIds; ++c) {
    contents.push_back(MakeTestCommunity(18, 40 + c));
  }
  std::vector<Expected> expected;
  expected.reserve(contents.size());
  for (const Community& content : contents) expected.emplace_back(content);
  const auto expected_for = [&](const CatalogEntry& entry) -> const Expected* {
    for (const Expected& e : expected) {
      if (std::ranges::equal(e.community.flat(), entry.community->flat())) {
        return &e;
      }
    }
    return nullptr;
  };

  CommunityCatalog catalog(SharingOptions());
  for (uint64_t id = 1; id <= kIds; ++id) {
    catalog.Upsert(id, Community(contents[2 * (id - 1)]));
  }
  std::atomic<bool> done{false};
  std::atomic<uint32_t> bad{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> crew;
  for (uint32_t w = 0; w < 2; ++w) {
    crew.emplace_back([&] {
      for (uint32_t round = 0; round < 120; ++round) {
        const uint64_t id = 1 + round % kIds;
        const uint64_t other = (round / kIds) % 4 == 3 ? 1u : 0u;
        catalog.Upsert(id, Community(contents[2 * (id - 1) + other]));
      }
    });
  }
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      do {
        for (uint64_t id = 1; id <= kIds; ++id) {
          const CatalogEntry entry = catalog.Get(id);
          const std::vector<Count> sketch = catalog.SketchAt(id, entry.version);
          const Expected* want = expected_for(entry);
          // An empty row is fine only if a writer replaced the entry
          // between the two reads.
          if (want == nullptr ||
              (sketch.empty() ? catalog.Get(id).version == entry.version
                              : !want->HeldBy(entry, sketch))) {
            ++bad;
          }
          ++reads;
        }
      } while (!done.load());
    });
  }
  for (std::thread& writer : crew) writer.join();
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  for (const CatalogEntry& entry : catalog.Snapshot()) {
    const Expected* want = expected_for(entry);
    ASSERT_NE(want, nullptr) << "id " << entry.id;
    EXPECT_TRUE(want->HeldBy(entry, catalog.SketchAt(entry.id, entry.version)))
        << "id " << entry.id;
  }
}

TEST(CatalogTest, ConcurrentUpsertsKeepVersionsUnique) {
  CommunityCatalog catalog;
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kPerThread = 16;
  std::vector<std::vector<uint64_t>> versions(kThreads);
  std::vector<std::thread> crew;
  for (uint32_t t = 0; t < kThreads; ++t) {
    crew.emplace_back([&, t] {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = t * kPerThread + i;
        versions[t].push_back(
            catalog.Upsert(id, MakeTestCommunity(12, id + 1)));
      }
    });
  }
  for (std::thread& thread : crew) thread.join();

  std::vector<uint64_t> all;
  for (const auto& mine : versions) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "two upserts were issued the same version";
  EXPECT_EQ(catalog.size(), kThreads * kPerThread);
}

TEST(LiveCoupleSessionTest, MatchesBatchExactSimilarity) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(40, 1));

  // Query sized into the admissible band: ceil(40/2)=20 <= 30 <= 40.
  const Community query = MakeTestCommunity(30, 2);
  JoinOptions join;
  join.eps = 1;
  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->live_subscribers(), query.size());
  EXPECT_TRUE(session->SizesAdmissible());

  const CatalogEntry entry = catalog.Get(1);
  const auto batch =
      ComputeSimilarity(Method::kExMinMax, query, *entry.community, join);
  ASSERT_TRUE(batch.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), batch->Similarity());
}

TEST(LiveCoupleSessionTest, StaleTracksCatalogChurn) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));
  const Community query = MakeTestCommunity(20, 2);
  JoinOptions join;

  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);
  EXPECT_FALSE(session->Stale());
  const double pinned_similarity = session->Similarity();

  // Replacing the entry makes the session stale but NOT invalid: it stays
  // exact against the pinned snapshot.
  catalog.Upsert(1, MakeTestCommunity(28, 3));
  EXPECT_TRUE(session->Stale());
  EXPECT_DOUBLE_EQ(session->Similarity(), pinned_similarity);

  // Removal is also staleness.
  const auto session2 = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session2, nullptr);
  EXPECT_FALSE(session2->Stale());
  catalog.Remove(1);
  EXPECT_TRUE(session2->Stale());
}

TEST(LiveCoupleSessionTest, RejectsAbsentIdAndDimensionMismatch) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));
  const Community query = MakeTestCommunity(20, 2);
  JoinOptions join;
  EXPECT_EQ(catalog.AttachLive(query, 999, join), nullptr);

  Community other_d(query.d() + 1);
  std::vector<Count> vec(other_d.d(), 1);
  other_d.AddUser(vec);
  EXPECT_EQ(catalog.AttachLive(other_d, 1, join), nullptr);
}

TEST(LiveCoupleSessionTest, SubscriberChurnUpdatesSimilarity) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(40, 1));
  const Community query = MakeTestCommunity(30, 2);
  JoinOptions join;
  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);

  // Adding a clone of a catalog user must keep the matching exact: verify
  // against the batch join of the grown query.
  const CatalogEntry entry = catalog.Get(1);
  const auto handle = session->AddSubscriber(entry.community->User(0));
  Community grown(query);
  grown.AddUser(entry.community->User(0));
  const auto batch =
      ComputeSimilarity(Method::kExMinMax, grown, *entry.community, join);
  ASSERT_TRUE(batch.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), batch->Similarity());

  session->RemoveSubscriber(handle);
  const auto original =
      ComputeSimilarity(Method::kExMinMax, query, *entry.community, join);
  ASSERT_TRUE(original.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), original->Similarity());
}

}  // namespace
}  // namespace csj::service
