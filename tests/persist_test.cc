// Tests for the persistent catalog store: segment roundtrip, log-tail
// replay, generation turnover, and the zero-copy restore path's
// copy-on-write discipline.

#include "persist/store.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/signature.h"
#include "data/generator.h"
#include "persist/fsck.h"
#include "service/catalog.h"
#include "service/deep_compare.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::persist {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

/// A fresh store directory under TMPDIR, removed by the next run of the
/// same test (mkdtemp keeps parallel test shards from colliding).
std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_persist_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

service::CommunityCatalog::Options CatalogOpts(EncodingCache* cache) {
  service::CommunityCatalog::Options options;
  options.cache = cache;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  return options;
}

constexpr double kTau = 0.1;

/// Restores the store's state into a fresh catalog (own cold cache) and
/// requires deep byte-identity with `expected`.
void ExpectRestoresIdentical(const std::string& dir,
                             const service::CommunityCatalog& expected) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache cache;
  service::CommunityCatalog restored(CatalogOpts(&cache));
  ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;
  EXPECT_EQ(restored.size(), expected.size());
  EXPECT_EQ(restored.latest_version(), expected.latest_version());
  EXPECT_TRUE(service::CatalogsIdentical(expected, restored,
                                         /*eps=*/2, kTau));
}

TEST(PersistStoreTest, FreshStoreOpensEmpty) {
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  std::string error;
  OpenStats stats;
  auto store = Store::Open(options, &error, &stats);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(stats.opened_existing);
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_FALSE(store->has_data());

  // The fresh open committed a superblock: the next open finds it.
  auto again = Store::Open(options, &error, &stats);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_TRUE(stats.opened_existing);
}

TEST(PersistStoreTest, CheckpointRoundTripIsByteIdentical) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 24; ++id) {
    catalog.Upsert(id * 3,
                   MakeTestCommunity(12 + static_cast<uint32_t>(id % 7), id));
  }
  catalog.Upsert(9, MakeTestCommunity(20, 100));  // replaced entry
  catalog.Remove(12);

  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  CheckpointStats save;
  ASSERT_TRUE(store->Checkpoint(catalog, &error, &save)) << error;
  EXPECT_EQ(save.generation, 1u);
  EXPECT_EQ(save.entries, catalog.size());

  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, LogTailReplaysOnTopOfSealedSegment) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 10; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16, id));
  }

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    // Mutations past the checkpoint: replace, add, remove — including a
    // remove of a SEGMENT entry, which replay must apply after the
    // segment image installs.
    catalog.Upsert(3, MakeTestCommunity(24, 200));
    catalog.Upsert(99, MakeTestCommunity(18, 201));
    catalog.Remove(7);
    catalog.Upsert(99, MakeTestCommunity(19, 202));
    store->StopLogging(&catalog);
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, LogTailRefreshingAnIdTwiceReplaysLastWins) {
  // A tail without removes replays as ONE RestoreBatch, so an id the
  // writer refreshed twice appears twice in that batch: the last
  // occurrence must win, exactly as the writer's second Upsert did.
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 10; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16, id));
  }

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(3, MakeTestCommunity(24, 300));
    catalog.Upsert(42, MakeTestCommunity(18, 301));
    catalog.Upsert(3, MakeTestCommunity(14, 302));
    catalog.Upsert(42, MakeTestCommunity(20, 303));
    catalog.Upsert(3, Community(*catalog.Get(3).community));  // same bytes
    store->StopLogging(&catalog);
  }
  ExpectRestoresIdentical(dir, catalog);

  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache restored_cache;
  service::CommunityCatalog restored(CatalogOpts(&restored_cache));
  OpenStats stats;
  ASSERT_TRUE(store->RestoreInto(&restored, &error, &stats)) << error;
  EXPECT_EQ(stats.log_records_replayed, 5u);
  EXPECT_EQ(restored.size(), 11u);
  EXPECT_EQ(restored.Get(3).community->size(), 14u);
  EXPECT_EQ(restored.Get(3).version, catalog.Get(3).version);
  EXPECT_EQ(restored.Get(42).community->size(), 20u);
}

TEST(PersistStoreTest, LogOnlyStoreRecoversWithoutAnySegment) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    // No checkpoint ever: the whole catalog lives in the log tail (the
    // crashed-before-first-checkpoint shape).
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    for (uint64_t id = 1; id <= 8; ++id) {
      catalog.Upsert(id, MakeTestCommunity(12, id));
    }
    catalog.Remove(5);
    store->StopLogging(&catalog);
  }
  {
    StoreOptions reopen;
    reopen.dir = dir;
    auto store = Store::Open(reopen, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->generation(), 0u);
    EXPECT_TRUE(store->has_data());
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, RestartedLoggingKeepsEarlierSessionsRecords) {
  // Regression: StartLogging must resume at the log's CURRENT end, not
  // the open-time length — a stop/start cycle used to truncate away
  // every record the first session had already fsync-acknowledged.
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(1, MakeTestCommunity(14, 1));
    catalog.Upsert(2, MakeTestCommunity(15, 2));
    store->StopLogging(&catalog);

    // Second session on the same store object and the same log file.
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(3, MakeTestCommunity(16, 3));
    catalog.Remove(1);
    store->StopLogging(&catalog);

    // And a third, to prove the end offset keeps advancing.
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(4, MakeTestCommunity(17, 4));
    store->StopLogging(&catalog);
  }
  {
    StoreOptions reopen;
    reopen.dir = dir;
    OpenStats stats;
    auto store = Store::Open(reopen, &error, &stats);
    ASSERT_NE(store, nullptr) << error;
    EncodingCache recovered_cache;
    service::CommunityCatalog recovered(CatalogOpts(&recovered_cache));
    ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
    EXPECT_EQ(stats.log_records_replayed, 5u);  // 4 upserts + 1 remove
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, CheckpointAdvancesGenerationAndDropsOldFiles) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(1, MakeTestCommunity(16, 1));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
  catalog.Upsert(2, MakeTestCommunity(16, 2));
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  EXPECT_EQ(store->generation(), 2u);

  // Old generation's files are gone; the log rolled to the new one.
  EXPECT_NE(::access(store->SegmentPath(2).c_str(), F_OK), -1);
  EXPECT_EQ(::access(store->SegmentPath(1).c_str(), F_OK), -1);
  EXPECT_EQ(::access(store->LogPath(1).c_str(), F_OK), -1);

  // The rolled log still records post-checkpoint mutations.
  catalog.Upsert(3, MakeTestCommunity(16, 3));
  store->StopLogging(&catalog);
  store.reset();
  ExpectRestoresIdentical(dir, catalog);

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(PersistStoreTest, CheckpointSealsEntryArtifactsWhateverTheCacheHolds) {
  // Same history into two catalogs: one cache holds everything, the
  // other's budget is far below the catalog's artifacts, so it keeps
  // evicting them. The segments must not differ by a byte, and sealing
  // must not rebuild anything (the entries carry their artifacts).
  EncodingCache unlimited;
  EncodingCache tight(/*capacity_bytes=*/4096);
  service::CommunityCatalog roomy_catalog(CatalogOpts(&unlimited));
  service::CommunityCatalog tight_catalog(CatalogOpts(&tight));
  for (uint64_t id = 1; id <= 30; ++id) {
    const Community community =
        MakeTestCommunity(10 + static_cast<uint32_t>(id % 9), 300 + id);
    roomy_catalog.Upsert(id, Community(community));
    tight_catalog.Upsert(id, Community(community));
  }
  roomy_catalog.Remove(7);
  tight_catalog.Remove(7);
  ASSERT_GT(tight.GetStats().evictions, 0u);
  ASSERT_EQ(unlimited.GetStats().evictions, 0u);

  std::string paths[2];
  const service::CommunityCatalog* catalogs[2] = {&roomy_catalog,
                                                  &tight_catalog};
  const uint64_t built_before = tight.GetStats().bytes_built;
  for (int arm = 0; arm < 2; ++arm) {
    StoreOptions options;
    options.dir = FreshDir();
    std::string error;
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(*catalogs[arm], &error)) << error;
    paths[arm] = store->SegmentPath(store->generation());
  }
  EXPECT_EQ(tight.GetStats().bytes_built, built_before);
  const std::string roomy_bytes = ReadFileBytes(paths[0]);
  EXPECT_FALSE(roomy_bytes.empty());
  EXPECT_TRUE(roomy_bytes == ReadFileBytes(paths[1]));
}

TEST(PersistStoreTest, RestoredEntriesAreCopyOnWriteOverTheMapping) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(5, MakeTestCommunity(16, 5));
  catalog.Upsert(6, MakeTestCommunity(16, 6));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  EncodingCache restored_cache;
  service::CommunityCatalog restored(CatalogOpts(&restored_cache));
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;

  // A reader pins the mapped (view-backed) entry...
  const service::CatalogEntry pinned = restored.Get(5);
  ASSERT_NE(pinned.community, nullptr);
  const std::vector<Count> before(pinned.community->flat().begin(),
                                  pinned.community->flat().end());
  const uint64_t pinned_version = pinned.version;

  // ...then the entry is replaced and the pinned view must be untouched
  // (copy-on-write: a new buffer installs, the mapped one stays alive).
  restored.Upsert(5, MakeTestCommunity(32, 500));
  ASSERT_NE(restored.Get(5).community, nullptr);
  EXPECT_NE(restored.Get(5).version, pinned_version);
  EXPECT_TRUE(std::equal(pinned.community->flat().begin(),
                         pinned.community->flat().end(), before.begin(),
                         before.end()));

  // The store (and its mapping) can be released while views are pinned:
  // the segment keepalive travels inside the shared_ptr control block.
  store.reset();
  EXPECT_EQ(pinned.community->size(), 16u);
  EXPECT_TRUE(std::equal(pinned.community->flat().begin(),
                         pinned.community->flat().end(), before.begin(),
                         before.end()));
}

TEST(PersistStoreTest, RestoreRejectsMismatchedWarmParameters) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(1, MakeTestCommunity(16, 1));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  // A reader configured for different warm parameters must be refused:
  // the segment's encoded artifacts were built for (eps=2, parts=4).
  EncodingCache other_cache;
  service::CommunityCatalog::Options mismatched = CatalogOpts(&other_cache);
  mismatched.warm_eps = 3;
  service::CommunityCatalog wrong(mismatched);
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(store->RestoreInto(&wrong, &error));
  EXPECT_FALSE(error.empty());
}

TEST(PersistStoreTest, RestoreRejectsCorruptVersionColumnGracefully) {
  // The versions column lives in un-CRC'd payload bytes; a corrupt
  // value must surface as the graceful "run csj_fsck" shape error, not
  // abort inside RestoreBatch.
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 4; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12, id));
  }

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  // Locate the first version's high byte, then blow it up (a value far
  // past header.next_version).
  const std::string seg = dir + "/seg-1.csj";
  uint64_t corrupt_at = 0;
  {
    auto segment = MappedSegment::Map(seg, false, false, &error);
    ASSERT_NE(segment, nullptr) << error;
    const SectionDesc* desc = segment->Find(SectionKind::kVersions);
    ASSERT_NE(desc, nullptr);
    corrupt_at = desc->offset + 7;
  }
  {
    FILE* file = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, static_cast<long>(corrupt_at), SEEK_SET), 0);
    ASSERT_EQ(std::fputc(0xFF, file), 0xFF);
    std::fclose(file);
  }

  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache restored_cache;
  service::CommunityCatalog restored(CatalogOpts(&restored_cache));
  EXPECT_FALSE(store->RestoreInto(&restored, &error));
  EXPECT_NE(error.find("csj_fsck"), std::string::npos) << error;
}

}  // namespace
}  // namespace csj::persist
