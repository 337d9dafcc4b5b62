// Tests for the catalog's batched ingestion: CommunityCatalog::BulkLoad
// and RestoreBatch must leave the catalog and the signature index in a
// state BYTE-IDENTICAL to a sequential Upsert replay of the same batch —
// same versions, same digests, same MinMax artifacts, same sketch
// tables, same probe verdicts and sweep accounting — across shard counts,
// duplicate ids, and pre-populated catalogs. The suite also pins
// BulkLoad's no-copy guarantee, the fast sketch builder's equivalence to
// the reference constructor on the hint, no-hint, and wide-counter
// fallback paths, index/entry-map agreement under concurrent churn
// racing a BulkLoad, and per-id sink order under two racing BulkLoads
// (the TSan targets).

#include "service/catalog.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "data/generator.h"
#include "service/deep_compare.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(
      static_cast<data::Category>(salt % data::kNumCategories));
  return data::MakeCommunity(gen, size, rng);
}

using Batch =
    std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>>;

std::shared_ptr<const Community> Frozen(Community community) {
  return std::make_shared<const Community>(std::move(community));
}

/// One seeded (id, community) batch; ids deliberately NOT ascending so
/// the install phase's end-hinted inserts also see the fallback path.
Batch MakeBatch(uint32_t n, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  Batch batch;
  batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t id = 1 + ((static_cast<uint64_t>(i) * 37) % (2 * n));
    batch.emplace_back(
        id, Frozen(MakeTestCommunity(static_cast<uint32_t>(rng.Between(10, 28)),
                                     salt * 1000 + i)));
  }
  return batch;
}

/// The sequential arm: one Upsert (of a private copy) per element.
void UpsertEach(const Batch& batch, CommunityCatalog* catalog) {
  for (const auto& [id, community] : batch) {
    catalog->Upsert(id, Community(*community));
  }
}

/// Deep bytewise comparison of two quiesced catalogs: entry maps (ids,
/// versions, digests, counter buffers, sketch table bytes), and the
/// probe verdicts a prescreen query would see, inert probe included.
/// This is the test's definition of "byte-identical state".
void ExpectCatalogsIdentical(const CommunityCatalog& bulk,
                             const CommunityCatalog& sequential) {
  const std::vector<CatalogEntry> bulk_snapshot = bulk.Snapshot();
  const std::vector<CatalogEntry> seq_snapshot = sequential.Snapshot();
  ASSERT_EQ(bulk_snapshot.size(), seq_snapshot.size());
  EXPECT_EQ(bulk.latest_version(), sequential.latest_version());
  for (size_t i = 0; i < bulk_snapshot.size(); ++i) {
    const CatalogEntry& b = bulk_snapshot[i];
    const CatalogEntry& s = seq_snapshot[i];
    ASSERT_EQ(b.id, s.id);
    EXPECT_EQ(b.version, s.version) << "id " << b.id;
    EXPECT_EQ(b.digest.fingerprint, s.digest.fingerprint) << "id " << b.id;
    EXPECT_EQ(b.digest.max_counter, s.digest.max_counter) << "id " << b.id;
    ASSERT_NE(b.community, nullptr);
    ASSERT_NE(s.community, nullptr);
    const auto b_flat = b.community->flat();
    const auto s_flat = s.community->flat();
    ASSERT_EQ(b_flat.size(), s_flat.size()) << "id " << b.id;
    EXPECT_TRUE(std::equal(b_flat.begin(), b_flat.end(), s_flat.begin()))
        << "counter buffers diverged for id " << b.id;
    // Both sides hold a bytewise-equal sketch, or neither does.
    const std::vector<Count> b_sketch = bulk.SketchAt(b.id, b.version);
    EXPECT_EQ(b_sketch.empty(), bulk.signature_options() == nullptr)
        << "id " << b.id;
    EXPECT_EQ(b_sketch, sequential.SketchAt(s.id, s.version))
        << "sketch tables diverged for id " << b.id;
  }

  const SignatureOptions* options = bulk.signature_options();
  ASSERT_EQ(options == nullptr, sequential.signature_options() == nullptr);
  if (options == nullptr) return;

  // The pack-level state (summaries included) must agree behaviorally:
  // identical candidates, identical sweep accounting — including the
  // pack prefilter's skip count — for the same probe. The inert probe
  // (threshold 0) examines every resident slot: each entry is resident
  // in exactly one index slot on both sides.
  const Community query = MakeTestCommunity(18, 424242);
  const CommunitySignature query_signature(query, *options);
  const std::vector<Dim> order = SignatureProbeOrder(query_signature);
  for (const double threshold : {0.0, 0.05, 0.25, 0.60}) {
    const auto bulk_probe =
        bulk.ProbeCandidates(query_signature, order, /*eps=*/2, threshold);
    const auto seq_probe = sequential.ProbeCandidates(query_signature, order,
                                                      /*eps=*/2, threshold);
    ASSERT_EQ(bulk_probe.candidates.size(), seq_probe.candidates.size());
    for (size_t i = 0; i < bulk_probe.candidates.size(); ++i) {
      EXPECT_EQ(bulk_probe.candidates[i].id, seq_probe.candidates[i].id);
      EXPECT_EQ(bulk_probe.candidates[i].version,
                seq_probe.candidates[i].version);
    }
    EXPECT_EQ(bulk_probe.stats.examined, bulk_snapshot.size());
    EXPECT_EQ(bulk_probe.stats.examined, seq_probe.stats.examined);
    EXPECT_EQ(bulk_probe.stats.passed, seq_probe.stats.passed);
    EXPECT_EQ(bulk_probe.stats.skipped_cap, seq_probe.stats.skipped_cap);
    EXPECT_EQ(bulk_probe.stats.skipped_inadmissible,
              seq_probe.stats.skipped_inadmissible);
    EXPECT_EQ(bulk_probe.stats.packs_skipped, seq_probe.stats.packs_skipped);
  }
}

CommunityCatalog::Options WithEverything(uint32_t shards) {
  CommunityCatalog::Options options;
  options.shards = shards;
  options.warm_eps = 2;
  options.warm_parts = 4;
  options.signatures = SignatureOptions{};
  return options;
}

TEST(BulkLoadTest, MatchesSequentialUpsertAcrossShardCounts) {
  for (const uint32_t shards : {1u, 4u, 8u}) {
    CommunityCatalog bulk(WithEverything(shards));
    CommunityCatalog sequential(WithEverything(shards));
    CommunityCatalog restored(WithEverything(shards));

    const Batch batch = MakeBatch(64, 100 + shards);
    UpsertEach(batch, &sequential);
    CommunityCatalog::BulkLoadStats stats;
    const uint64_t last = bulk.BulkLoad(batch, &stats);
    EXPECT_EQ(last, bulk.latest_version());
    EXPECT_EQ(stats.entries, batch.size());
    EXPECT_GE(stats.encode_seconds, 0.0);
    EXPECT_GE(stats.sketch_seconds, 0.0);
    EXPECT_GE(stats.install_seconds, 0.0);

    // The restore arm: the same entries at BulkLoad's versions, with no
    // prebuilt artifacts (digest included), so RestoreBatch builds all.
    std::vector<CatalogEntry> entries(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      entries[i].id = batch[i].first;
      entries[i].version = last - batch.size() + 1 + i;
      entries[i].community = batch[i].second;
    }
    EXPECT_EQ(restored.RestoreBatch(std::move(entries), last + 1), last);

    for (const CommunityCatalog* arm : {&bulk, &restored}) {
      SCOPED_TRACE(arm == &bulk ? "bulk" : "restored");
      ExpectCatalogsIdentical(*arm, sequential);
      // MinMax artifact bytes and probe verdicts: the deep oracle compares
      // every entry's artifact columns and id-sorted probe output.
      EXPECT_TRUE(CatalogsIdentical(*arm, sequential, /*eps=*/2,
                                    /*threshold=*/0.25));
    }
  }
}

TEST(BulkLoadTest, IdentityOracleSeesEveryArtifactColumn) {
  // A restore of the same entries in which one entry's artifacts arrive
  // as a copy with a single value changed: the deep oracle must tell the
  // two catalogs apart for every artifact column, and must not for an
  // unchanged copy.
  CommunityCatalog reference(WithEverything(4));
  reference.BulkLoad(MakeBatch(12, 700));
  const std::vector<CatalogEntry> entries = reference.Snapshot();
  const CatalogEntry& victim = entries[entries.size() / 2];
  const EntryEncodings& source = *victim.encodings;
  const EncodedB& b = *source.encoded_b;
  const EncodedA& a = *source.encoded_a;
  const uint32_t n = b.size();
  const Dim d = victim.community->d();
  const size_t padded = VerifyWindow::PaddedCount(n, d);

  const char* columns[] = {"none",   "b ids",  "b real", "b sums",
                           "a mins", "a maxs", "a real", "a cols",
                           "a window", "sketch"};
  for (int column = 0; column < 10; ++column) {
    SCOPED_TRACE(columns[column]);
    struct Copy {
      std::vector<uint64_t> b_ids, b_sums, a_mins, a_maxs, a_cols;
      std::vector<UserId> b_real, a_real;
      std::vector<Count> a_window;
    };
    auto copy = std::make_shared<Copy>();
    for (uint32_t u = 0; u < n; ++u) {
      copy->b_ids.push_back(b.encoded_id(u));
      copy->b_real.push_back(b.real_id(u));
      copy->a_mins.push_back(a.encoded_min(u));
      copy->a_maxs.push_back(a.encoded_max(u));
      copy->a_real.push_back(a.real_id(u));
    }
    const size_t sums = static_cast<size_t>(n) * b.parts();
    copy->b_sums.assign(b.part_sums(0).data(), b.part_sums(0).data() + sums);
    copy->a_cols.assign(a.part_lo(0), a.part_lo(0) + 2 * sums);
    copy->a_window.assign(a.window().BlockData(0),
                          a.window().BlockData(0) + padded);
    switch (column) {
      case 1: ++copy->b_ids[0]; break;
      case 2: ++copy->b_real[0]; break;
      case 3: ++copy->b_sums[0]; break;
      case 4: ++copy->a_mins[0]; break;
      case 5: ++copy->a_maxs[0]; break;
      case 6: ++copy->a_real[0]; break;
      case 7: ++copy->a_cols[0]; break;
      case 8: ++copy->a_window[0]; break;
      default: break;
    }
    auto encodings = std::make_shared<EntryEncodings>();
    EncodedB::Columns b_columns;
    b_columns.parts = b.parts();
    b_columns.n = n;
    b_columns.ids = copy->b_ids.data();
    b_columns.real = copy->b_real.data();
    b_columns.sums = copy->b_sums.data();
    encodings->encoded_b = std::make_shared<const EncodedB>(b_columns, copy);
    EncodedA::Columns a_columns;
    a_columns.parts = a.parts();
    a_columns.n = n;
    a_columns.d = d;
    a_columns.mins = copy->a_mins.data();
    a_columns.maxs = copy->a_maxs.data();
    a_columns.real = copy->a_real.data();
    a_columns.cols = copy->a_cols.data();
    a_columns.window = copy->a_window.data();
    encodings->encoded_a = std::make_shared<const EncodedA>(a_columns, copy);

    // Every other entry keeps the reference's own artifacts, digest and
    // sketch row (handed over like a segment's mapped rows).
    std::vector<CatalogEntry> restore = entries;
    restore[entries.size() / 2].encodings = std::move(encodings);
    std::vector<std::vector<Count>> rows;
    for (const CatalogEntry& entry : entries) {
      rows.push_back(reference.SketchAt(entry.id, entry.version));
    }
    if (column == 9) ++rows[entries.size() / 2][0];
    std::vector<const Count*> sketches;
    for (const std::vector<Count>& row : rows) sketches.push_back(row.data());
    CommunityCatalog altered(WithEverything(4));
    altered.RestoreBatch(std::move(restore), reference.latest_version() + 1,
                         sketches);
    EXPECT_EQ(CatalogsIdentical(reference, altered, /*eps=*/2,
                                /*threshold=*/0.25),
              column == 0);
  }
}

TEST(BulkLoadTest, ChunkedInstallMatchesSequentialAcrossChunks) {
  // A batch spanning three ingest chunks (2048 entries each): every id
  // repeats across chunk boundaries, and every other repeat rewrites the
  // id with its current content, so it copies the resident pack row
  // instead of sketching. Bulk, restore and sequential arms still agree.
  constexpr uint32_t kEntries = 4500;
  constexpr uint64_t kIds = 1700;
  Batch batch;
  std::vector<std::shared_ptr<const Community>> latest(kIds + 1);
  for (uint32_t i = 0; i < kEntries; ++i) {
    const uint64_t id = 1 + (static_cast<uint64_t>(i) * 7) % kIds;
    if (latest[id] == nullptr || i % 2 == 0) {
      latest[id] = Frozen(MakeTestCommunity(4 + i % 5, 9000 + i));
    }
    batch.emplace_back(id, latest[id]);
  }
  CommunityCatalog bulk(WithEverything(4));
  CommunityCatalog sequential(WithEverything(4));
  CommunityCatalog restored(WithEverything(4));
  UpsertEach(batch, &sequential);
  EXPECT_EQ(bulk.BulkLoad(batch), kEntries);
  std::vector<CatalogEntry> entries(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    entries[i].id = batch[i].first;
    entries[i].version = i + 1;
    entries[i].community = batch[i].second;
  }
  EXPECT_EQ(restored.RestoreBatch(std::move(entries), kEntries + 1),
            kEntries);
  for (const CommunityCatalog* arm : {&bulk, &restored}) {
    SCOPED_TRACE(arm == &bulk ? "bulk" : "restored");
    ExpectCatalogsIdentical(*arm, sequential);
    EXPECT_TRUE(CatalogsIdentical(*arm, sequential, /*eps=*/2,
                                  /*threshold=*/0.25));
  }
}

TEST(BulkLoadTest, DuplicateIdsReplayLastWins) {
  CommunityCatalog bulk(WithEverything(4));
  CommunityCatalog sequential(WithEverything(4));

  // Every id appears three times with different payloads; the resident
  // entry must be the LAST occurrence under the version the sequential
  // replay would have issued for it.
  Batch batch;
  for (uint32_t round = 0; round < 3; ++round) {
    for (uint64_t id = 1; id <= 12; ++id) {
      batch.emplace_back(
          id, Frozen(MakeTestCommunity(12 + round * 4, round * 100 + id)));
    }
  }
  UpsertEach(batch, &sequential);
  bulk.BulkLoad(batch, nullptr);

  EXPECT_EQ(bulk.size(), 12u);
  ExpectCatalogsIdentical(bulk, sequential);
  // Spot-check the last-wins payload: round 2 communities have size 20.
  const CatalogEntry entry = bulk.Get(5);
  ASSERT_NE(entry.community, nullptr);
  EXPECT_EQ(entry.community->size(), 20u);
}

TEST(BulkLoadTest, EmptyBatchIsANoOp) {
  CommunityCatalog catalog(WithEverything(4));
  catalog.Upsert(1, MakeTestCommunity(16, 1));
  const uint64_t version_before = catalog.latest_version();
  const uint64_t started_before = catalog.mutations_started();

  CommunityCatalog::BulkLoadStats stats;
  stats.entries = 99;  // must be reset even on the empty path
  EXPECT_EQ(catalog.BulkLoad(Batch{}, &stats), 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.latest_version(), version_before);
  EXPECT_EQ(catalog.mutations_started(), started_before);
}

TEST(BulkLoadTest, LoadsOntoPrePopulatedCatalogWithReplacements) {
  CommunityCatalog bulk(WithEverything(8));
  CommunityCatalog sequential(WithEverything(8));

  // Both arms start from the same resident set...
  for (uint64_t id = 1; id <= 20; ++id) {
    Community community = MakeTestCommunity(14, 9000 + id);
    bulk.Upsert(id, Community(community));
    sequential.Upsert(id, std::move(community));
  }
  // ...then a batch overlapping half of it (ids 11..40) lands.
  Batch batch;
  for (uint64_t id = 11; id <= 40; ++id) {
    batch.emplace_back(id, Frozen(MakeTestCommunity(18, 9500 + id)));
  }
  UpsertEach(batch, &sequential);
  bulk.BulkLoad(batch, nullptr);

  EXPECT_EQ(bulk.size(), 40u);
  ExpectCatalogsIdentical(bulk, sequential);
}

TEST(BulkLoadTest, ZeroCopyOverloadInstallsTheCallersBuffers) {
  CommunityCatalog catalog(WithEverything(4));
  Batch batch;
  std::vector<const Community*> raw;
  for (uint64_t id = 1; id <= 8; ++id) {
    auto frozen = Frozen(MakeTestCommunity(12, 80 + id));
    raw.push_back(frozen.get());
    batch.emplace_back(id, std::move(frozen));
  }
  catalog.BulkLoad(std::move(batch), nullptr);
  for (uint64_t id = 1; id <= 8; ++id) {
    const CatalogEntry entry = catalog.Get(id);
    ASSERT_NE(entry.community, nullptr);
    EXPECT_EQ(entry.community.get(), raw[id - 1])
        << "BulkLoad copied the buffer for id " << id;
  }
}

/// The fast sketch builder (scratch + hint) against the reference
/// constructor, on all three internal paths: 16-bit radix keys (small
/// counters), 32-bit keys, and the wide-counter per-column fallback.
TEST(BulkLoadTest, FastSketchBuilderMatchesReferenceOnAllKeyWidths) {
  const SignatureOptions options;
  util::Rng rng(testing::TestSeed(321));
  // Count ceilings chosen to steer the composite (dim, counter) key
  // width: d = 27 needs 5 dim bits, so ceilings of 2^8, 2^20, and 2^30
  // exercise the u16, u32, and fallback paths respectively.
  const Count ceilings[] = {Count{1} << 8, Count{1} << 20, Count{1} << 30};
  for (const Count ceiling : ceilings) {
    constexpr Dim kD = 27;
    Community community(kD);
    std::vector<Count> vec(kD);
    for (uint32_t u = 0; u < 40; ++u) {
      for (Dim k = 0; k < kD; ++k) {
        // About half zeros, like the profile data the builder is tuned
        // for; the rest spread over the full ceiling.
        vec[k] = rng.NextDouble() < 0.5
                     ? 0
                     : static_cast<Count>(1 + rng.Below(ceiling - 1));
      }
      community.AddUser(vec);
    }
    const CommunitySignature reference(community, options);
    const Count max_counter = DigestCommunity(community).max_counter;
    SketchScratch scratch;
    for (const Count hint : {max_counter, Count{0}}) {
      std::vector<Count> fast(reference.table().size());
      BuildSketchTable(community, options, &scratch, hint, fast);
      EXPECT_TRUE(std::ranges::equal(fast, reference.table()))
          << "fast builder diverged at counter ceiling " << ceiling
          << ", hint " << hint;
    }
  }
}

TEST(BulkLoadTest, SurvivesConcurrentChurnAndQueries) {
  // The TSan target: a BulkLoad of fresh ids races Upsert/Remove churn on
  // a disjoint id range plus concurrent probes. Afterwards the bulk ids
  // must all be resident at their batch payloads, versions unique, and
  // the signature index in exact agreement with the entry map.
  CommunityCatalog catalog(WithEverything(8));
  constexpr uint64_t kChurnIds = 32;
  constexpr uint32_t kBulkEntries = 96;
  for (uint64_t id = 1; id <= kChurnIds; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12, 5000 + id));
  }

  Batch batch;
  for (uint32_t i = 0; i < kBulkEntries; ++i) {
    batch.emplace_back(1000 + i, Frozen(MakeTestCommunity(14, 6000 + i)));
  }

  std::atomic<bool> stop{false};
  std::thread loader([&] {
    catalog.BulkLoad(std::move(batch), nullptr);
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> crew;
  for (uint32_t w = 0; w < 2; ++w) {
    crew.emplace_back([&, w] {
      util::Rng rng(testing::TestSeed(7500 + w));
      uint64_t salt = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t id = 1 + rng.Below(kChurnIds);
        if (rng.NextDouble() < 0.7) {
          catalog.Upsert(id, MakeTestCommunity(12, 8000 + ++salt));
        } else {
          catalog.Remove(id);
        }
      }
    });
  }
  crew.emplace_back([&] {
    util::Rng rng(testing::TestSeed(7600));
    ASSERT_NE(catalog.signature_options(), nullptr);
    const SignatureOptions options = *catalog.signature_options();
    while (!stop.load(std::memory_order_acquire)) {
      const Community query = MakeTestCommunity(16, 8500 + rng.Below(16));
      const CommunitySignature signature(query, options);
      const std::vector<Dim> order = SignatureProbeOrder(signature);
      const auto probe =
          catalog.ProbeCandidates(signature, order, /*eps=*/2, 0.2);
      EXPECT_EQ(probe.stats.passed, probe.candidates.size());
    }
  });
  loader.join();
  for (std::thread& thread : crew) thread.join();

  // Every bulk id is resident with its batch payload and a version from
  // the reserved block (all distinct by construction).
  for (uint32_t i = 0; i < kBulkEntries; ++i) {
    const CatalogEntry entry = catalog.Get(1000 + i);
    ASSERT_NE(entry.community, nullptr) << "bulk id " << 1000 + i;
    EXPECT_EQ(entry.community->size(), 14u);
  }

  // Quiesced: the index and the entry map agree exactly. Entries hold 12
  // or 14 users, all admissible against a 14-user query, so an inert
  // probe passes every resident entry once, at its snapshot version.
  const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
  const CommunitySignature probe_signature(MakeTestCommunity(14, 8900),
                                           *catalog.signature_options());
  const auto inert = catalog.ProbeCandidates(
      probe_signature, SignatureProbeOrder(probe_signature), /*eps=*/2, 0.0);
  EXPECT_EQ(inert.stats.examined, snapshot.size());
  EXPECT_EQ(inert.stats.passed, snapshot.size());
  ASSERT_EQ(inert.candidates.size(), snapshot.size());
  std::vector<uint64_t> versions;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const CatalogEntry& entry = snapshot[i];
    versions.push_back(entry.version);
    EXPECT_EQ(inert.candidates[i].id, entry.id);
    EXPECT_EQ(inert.candidates[i].version, entry.version) << "id " << entry.id;
    const CommunitySignature fresh(*entry.community,
                                   *catalog.signature_options());
    EXPECT_TRUE(std::ranges::equal(catalog.SketchAt(entry.id, entry.version),
                                   fresh.table()))
        << "id " << entry.id;
  }
  std::sort(versions.begin(), versions.end());
  EXPECT_EQ(std::adjacent_find(versions.begin(), versions.end()),
            versions.end())
      << "two installs share a version";
}

TEST(BulkLoadTest, ConcurrentBulkLoadsKeepPerIdSinkOrder) {
  // Two threads BulkLoad overlapping ids, round after round, beside single
  // Upserts of the same ids and probing readers. Every chunk installs its
  // shards on pool tasks, and the sink observes each install inside its
  // shard's critical section. Per id, the observed versions must strictly
  // increase and end at the resident version.
  CommunityCatalog catalog(WithEverything(8));
  constexpr uint64_t kIds = 128;
  constexpr uint32_t kRounds = 6;
  std::mutex sink_mu;
  std::unordered_map<uint64_t, std::vector<uint64_t>> observed;
  catalog.SetMutationSink([&](const MutationEvent& event) {
    std::lock_guard lock(sink_mu);
    observed[event.id].push_back(event.version);
  });
  // Loader 0 covers ids 1-96 and loader 1 ids 33-128, in opposite orders.
  const auto make_batch = [&](uint32_t loader, uint32_t round) {
    Batch batch;
    for (uint64_t k = 0; k < 96; ++k) {
      const uint64_t id = loader == 0 ? 1 + k : kIds - k;
      batch.emplace_back(id, Frozen(MakeTestCommunity(
                                 14, 20000 + loader * 5000 + round * 200 + id)));
    }
    return batch;
  };
  std::vector<std::vector<Batch>> batches(2);
  for (uint32_t loader = 0; loader < 2; ++loader) {
    for (uint32_t round = 0; round < kRounds; ++round) {
      batches[loader].push_back(make_batch(loader, round));
    }
  }
  std::vector<Community> upserts;
  for (uint64_t salt = 0; salt < 16; ++salt) {
    upserts.push_back(MakeTestCommunity(12, 31000 + salt));
  }

  std::atomic<uint32_t> loaders_left{2};
  std::vector<std::thread> crew;
  for (uint32_t loader = 0; loader < 2; ++loader) {
    crew.emplace_back([&, loader] {
      for (Batch& batch : batches[loader]) {
        catalog.BulkLoad(std::move(batch));
      }
      loaders_left.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  crew.emplace_back([&] {
    util::Rng rng(testing::TestSeed(32000));
    while (loaders_left.load(std::memory_order_acquire) > 0) {
      catalog.Upsert(1 + rng.Below(kIds), upserts[rng.Below(upserts.size())]);
    }
  });
  crew.emplace_back([&] {
    util::Rng rng(testing::TestSeed(32100));
    const SignatureOptions options = *catalog.signature_options();
    // A reader never sees an id's version go back.
    std::vector<uint64_t> seen(kIds + 1, 0);
    while (loaders_left.load(std::memory_order_acquire) > 0) {
      const CommunitySignature signature(
          MakeTestCommunity(14, 32200 + rng.Below(8)), options);
      const auto probe = catalog.ProbeCandidates(
          signature, SignatureProbeOrder(signature), /*eps=*/2, 0.2);
      EXPECT_EQ(probe.stats.passed, probe.candidates.size());
      const uint64_t id = 1 + rng.Below(kIds);
      const uint64_t version = catalog.Get(id).version;
      EXPECT_GE(version, seen[id]) << "id " << id;
      seen[id] = version;
    }
  });
  for (std::thread& thread : crew) thread.join();
  catalog.SetMutationSink(nullptr);

  ASSERT_EQ(observed.size(), kIds);
  for (const auto& [id, versions] : observed) {
    EXPECT_TRUE(std::adjacent_find(versions.begin(), versions.end(),
                                   std::greater_equal<>()) == versions.end())
        << "id " << id << ": sink versions do not strictly increase";
    EXPECT_EQ(versions.back(), catalog.Get(id).version) << "id " << id;
  }
}

}  // namespace
}  // namespace csj::service
