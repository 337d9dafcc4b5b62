// Tests for the persistent catalog store: segment roundtrip, log-tail
// replay, generation turnover, the zero-copy restore path's
// copy-on-write discipline, and the CRC32C every persisted region uses.

#include "persist/store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/signature.h"
#include "data/generator.h"
#include "persist/crc32.h"
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

service::CommunityCatalog::Options CatalogOpts() {
  service::CommunityCatalog::Options options;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  return options;
}

constexpr double kTau = 0.1;

/// CRC32C by its definition, one bit at a time (reflected Castagnoli
/// polynomial, inverted in and out): the oracle for whichever path
/// Crc32c dispatches to.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(PersistCrcTest, MatchesTheCastagnoliDefinition) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);

  // Every length 0-300 at each of the 8 start alignments: the head,
  // word and tail loops each see every residue.
  util::Rng rng(testing::TestSeed(0xC5C));
  std::vector<uint64_t> words(40);  // 8-aligned backing, 320 bytes
  for (uint64_t& word : words) word = rng();
  const auto* base = reinterpret_cast<const uint8_t*>(words.data());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(Crc32c(base + align, size), BitwiseCrc32c(base + align, size))
          << "alignment " << align << ", length " << size;
    }
  }

  // Chaining: the CRC of a || b continues from the CRC of a.
  for (size_t split = 0; split <= 300; ++split) {
    ASSERT_EQ(Crc32c(base + split, 300 - split, Crc32c(base, split)),
              Crc32c(base, 300))
        << "split at " << split;
  }
}

/// Restores the store's state into a fresh catalog and requires deep
/// byte-identity with `expected`.
void ExpectRestoresIdentical(const std::string& dir,
                             const service::CommunityCatalog& expected) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  service::CommunityCatalog restored(CatalogOpts());
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

TEST(PersistStoreTest, OpenWithoutCreateRefusesAnEmptyDirectoryUntouched) {
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  options.create_if_missing = false;
  std::string error;
  EXPECT_EQ(Store::Open(options, &error), nullptr);
  EXPECT_NE(error.find("no store"), std::string::npos) << error;
  EXPECT_FALSE(std::ifstream(dir + "/superblock.csj").good());

  // A missing directory is not created either.
  options.dir = dir + "/absent";
  EXPECT_EQ(Store::Open(options, &error), nullptr);
  EXPECT_NE(::access(options.dir.c_str(), F_OK), 0);
}

TEST(PersistStoreTest, CheckpointRoundTripIsByteIdentical) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
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

TEST(PersistStoreTest, CheckpointRefusesWhileAMutationIsInFlight) {
  // A mutation sink that blocks holds an Upsert between the mutation
  // clock's two ticks. Checkpoint must refuse cleanly: an error, no
  // segment file, the superblock unmoved. Once the Upsert finishes, a
  // retry seals a store that restores identically.
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
  for (uint64_t id = 1; id <= 8; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12, id));
  }
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  catalog.SetMutationSink([&](const service::MutationEvent&) {
    std::unique_lock lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread writer([&] { catalog.Upsert(5, MakeTestCommunity(16, 55)); });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  EXPECT_FALSE(store->Checkpoint(catalog, &error));
  EXPECT_NE(error.find("quiescent"), std::string::npos) << error;
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_FALSE(std::ifstream(store->SegmentPath(1)).good());
  auto reopened = Store::Open(options, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->generation(), 0u);

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  writer.join();
  catalog.SetMutationSink(nullptr);
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  EXPECT_EQ(store->generation(), 1u);
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, LogTailReplaysOnTopOfSealedSegment) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
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
  // Replay installs only an id's last record: an id the writer refreshed
  // several times comes back as its final refresh, here one whose bytes
  // equal the refresh before it.
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
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
  service::CommunityCatalog restored(CatalogOpts());
  OpenStats stats;
  ASSERT_TRUE(store->RestoreInto(&restored, &error, &stats)) << error;
  EXPECT_EQ(stats.log_records_replayed, 5u);
  EXPECT_EQ(restored.size(), 11u);
  EXPECT_EQ(restored.Get(3).community->size(), 14u);
  EXPECT_EQ(restored.Get(3).version, catalog.Get(3).version);
  EXPECT_EQ(restored.Get(42).community->size(), 20u);
}

TEST(PersistStoreTest, ReplayInstallsTheTailsFinalState) {
  // Replay installs only each id's last record. The restore must still
  // equal the writer's live catalog, count every record, and resume the
  // version counter past the tail's highest version, which here a removed
  // record carries.
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
  for (uint64_t id = 1; id <= 10; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16, id));
  }
  const SignatureOptions sig_options = *catalog.signature_options();
  const auto home_of = [&](const Community& community) {
    return SignatureHomeDim(CommunitySignature(community, sig_options).table(),
                            sig_options.quantiles);
  };
  util::Rng rng(testing::TestSeed(0xF1A1));
  data::VkLikeGenerator music(data::Category::kMusic);
  const Community rehomed = data::MakeCommunity(music, 20, rng);
  data::UniformGenerator narrow(8, 40);
  const Community reshaped = data::MakeCommunity(narrow, 18, rng);
  ASSERT_NE(home_of(rehomed), home_of(*catalog.Get(3).community));
  ASSERT_NE(reshaped.d(), rehomed.d());

  StoreOptions options;
  options.dir = dir;
  std::string error;
  uint64_t highest = 0;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(3, rehomed);   // new home dimension...
    catalog.Upsert(3, reshaped);  // ...then a new d: the second wins
    catalog.Upsert(5, MakeTestCommunity(22, 402));  // segment entry:
    catalog.Remove(5);                              // upsert, then remove
    catalog.Remove(7);                              // segment entry:
    catalog.Upsert(7, MakeTestCommunity(15, 403));  // remove, then upsert
    catalog.Upsert(42, MakeTestCommunity(17, 404));
    highest = catalog.Upsert(60, MakeTestCommunity(19, 405));
    catalog.Remove(60);
    store->StopLogging(&catalog);
  }
  ASSERT_EQ(highest, catalog.latest_version());
  {
    // A remove of an id the catalog never held: the writer logs none, so
    // append one by hand behind the session's records.
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    const std::string log_path = store->LogPath(store->generation());
    LogWriter writer;
    ASSERT_TRUE(writer.Open(log_path, store->generation(), 1,
                            std::filesystem::file_size(log_path), nullptr,
                            &error))
        << error;
    ASSERT_TRUE(writer.AppendRemove(777));
    writer.Close();
  }
  constexpr uint64_t kTailRecords = 10;

  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  service::CommunityCatalog restored(CatalogOpts());
  OpenStats stats;
  ASSERT_TRUE(store->RestoreInto(&restored, &error, &stats)) << error;
  EXPECT_EQ(stats.log_records_replayed, kTailRecords);
  EXPECT_EQ(restored.size(), catalog.size());
  EXPECT_EQ(restored.latest_version(), highest);
  EXPECT_TRUE(service::CatalogsIdentical(catalog, restored, /*eps=*/2, kTau));
  EXPECT_EQ(restored.Get(3).community->d(), reshaped.d());
  EXPECT_EQ(restored.Get(5).community, nullptr);
  EXPECT_EQ(restored.Get(7).community->size(), 15u);
  EXPECT_EQ(restored.Get(60).community, nullptr);
  EXPECT_EQ(restored.Upsert(61, MakeTestCommunity(12, 406)), highest + 1);

  FsckOptions fsck_options;
  fsck_options.dir = dir;
  fsck_options.deep = true;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck_options, &report));
  EXPECT_TRUE(report.clean());
}

TEST(PersistStoreTest, LogOnlyStoreRecoversWithoutAnySegment) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());

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
    // A restore releases the replayed log: has_data() still answers for
    // the store, and a second restore through the handle is refused
    // rather than silently missing the tail.
    service::CommunityCatalog restored(CatalogOpts());
    ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;
    EXPECT_TRUE(store->has_data());
    service::CommunityCatalog again(CatalogOpts());
    EXPECT_FALSE(store->RestoreInto(&again, &error));
    EXPECT_NE(error.find("already replayed"), std::string::npos) << error;
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, RestartedLoggingKeepsEarlierSessionsRecords) {
  // Regression: StartLogging must resume at the log's CURRENT end, not
  // the open-time length — a stop/start cycle used to truncate away
  // every record the first session had already fsync-acknowledged.
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());

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
    service::CommunityCatalog recovered(CatalogOpts());
    ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
    EXPECT_EQ(stats.log_records_replayed, 5u);  // 4 upserts + 1 remove
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, CheckpointAdvancesGenerationAndDropsOldFiles) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
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
  // Same history into two catalogs, one of them configured with a cache
  // (the catalog ignores it). Both segments carry the entries' own
  // artifacts and must not differ by a byte; the cache stays empty.
  EncodingCache cache;
  service::CommunityCatalog::Options with_cache = CatalogOpts();
  with_cache.cache = &cache;
  service::CommunityCatalog cached_catalog(with_cache);
  service::CommunityCatalog plain_catalog(CatalogOpts());
  for (service::CommunityCatalog* catalog :
       {&cached_catalog, &plain_catalog}) {
    for (uint64_t id = 1; id <= 30; ++id) {
      catalog->Upsert(id, MakeTestCommunity(
                              10 + static_cast<uint32_t>(id % 9), 300 + id));
    }
    catalog->Upsert(4, Community(*catalog->Get(4).community));  // refresh
    catalog->Remove(7);
  }

  std::string paths[2];
  const service::CommunityCatalog* catalogs[2] = {&cached_catalog,
                                                  &plain_catalog};
  for (int arm = 0; arm < 2; ++arm) {
    StoreOptions options;
    options.dir = FreshDir();
    std::string error;
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(*catalogs[arm], &error)) << error;
    paths[arm] = store->SegmentPath(store->generation());
    std::string map_error;
    auto segment = MappedSegment::Map(paths[arm], false, false, &map_error);
    ASSERT_NE(segment, nullptr) << map_error;
    EXPECT_NE(segment->header().flags & kSegHasEncodings, 0u);
  }
  const std::string cached_bytes = ReadFileBytes(paths[0]);
  EXPECT_FALSE(cached_bytes.empty());
  EXPECT_TRUE(cached_bytes == ReadFileBytes(paths[1]));
  const EncodingCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PersistStoreTest, RestoreAdoptsMappedArtifactsUnderTheWritersParameters) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
  for (uint64_t id = 1; id <= 6; ++id) {
    catalog.Upsert(id, MakeTestCommunity(14, id));
  }
  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    // A log tail that rewrites every entry, all but one with unchanged
    // content: one multi-entry RestoreBatch on the pool at replay.
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    for (uint64_t id = 1; id <= 6; ++id) {
      catalog.Upsert(id, id == 4 ? MakeTestCommunity(14, 404)
                                 : Community(*catalog.Get(id).community));
    }
    store->StopLogging(&catalog);
  }

  // No catalog here has a cache: the warm-parameter check applies to
  // every catalog, since every one adopts the mapped artifacts.
  for (const bool other_eps : {true, false}) {
    service::CommunityCatalog::Options mismatched = CatalogOpts();
    if (other_eps) {
      mismatched.warm_eps = 5;
    } else {
      mismatched.warm_parts = 2;
    }
    service::CommunityCatalog wrong(mismatched);
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    error.clear();
    EXPECT_FALSE(store->RestoreInto(&wrong, &error));
    EXPECT_NE(error.find("warm parameters"), std::string::npos) << error;
    EXPECT_EQ(wrong.size(), 0u);
  }

  service::CommunityCatalog restored(CatalogOpts());
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;
  EXPECT_TRUE(service::CatalogsIdentical(catalog, restored, /*eps=*/2, kTau));
  for (const service::CatalogEntry& entry : restored.Snapshot()) {
    ASSERT_NE(entry.encodings, nullptr);
    // A view over the mapping owns no heap: the log-tail rewrites with
    // unchanged content share the segment entries' views; the changed
    // one built its own.
    const bool mapped = entry.id != 4;
    EXPECT_EQ(entry.encodings->encoded_b->MemoryBytes() == 0, mapped);
    EXPECT_EQ(entry.encodings->encoded_a->MemoryBytes() == 0, mapped);
  }

  // A refresh with unchanged content shares the mapped artifacts and
  // copies the sketch row the segment installed; one with new content
  // builds its own.
  const service::CatalogEntry mapped = restored.Get(3);
  const uint64_t refreshed =
      restored.Upsert(3, Community(*mapped.community));
  EXPECT_EQ(restored.Get(3).encodings, mapped.encodings);
  const CommunitySignature fresh(*mapped.community,
                                 *restored.signature_options());
  EXPECT_TRUE(
      std::ranges::equal(restored.SketchAt(3, refreshed), fresh.table()));
  restored.Upsert(3, MakeTestCommunity(14, 303));
  EXPECT_NE(restored.Get(3).encodings, mapped.encodings);
  EXPECT_GT(restored.Get(3).encodings->encoded_b->MemoryBytes(), 0u);
}

TEST(PersistStoreTest, RestoreRejectsLogVersionsOutsideTheHorizon) {
  // A log record's CRC vouches for its bytes, not for its version: one
  // below the horizon (the segment's next_version, 1 without a segment),
  // one whose successor would wrap, or two upserts sharing one must fail
  // the restore cleanly, before anything installs. fsck applies the same
  // rule: it passes exactly what restore takes.
  const Community community = MakeTestCommunity(12, 77);
  struct Case {
    bool with_segment;
    uint64_t version;  ///< 0 = one below the segment's horizon
    bool twice;        ///< a second upsert (id 10) at the same version
    bool valid;
  };
  const Case cases[] = {
      {false, 0, false, false},     {false, UINT64_MAX, false, false},
      {true, 0, false, false},      {true, UINT64_MAX, false, false},
      {false, 1, false, true},      {true, UINT64_MAX - 1, false, true},
      {false, 1, true, false},      {true, UINT64_MAX - 1, true, false},
  };
  for (const Case& c : cases) {
    const std::string dir = FreshDir();
    StoreOptions options;
    options.dir = dir;
    std::string error;
    uint64_t version = c.version;
    {
      auto store = Store::Open(options, &error);
      ASSERT_NE(store, nullptr) << error;
      if (c.with_segment) {
        service::CommunityCatalog catalog(CatalogOpts());
        for (uint64_t id = 1; id <= 3; ++id) {
          catalog.Upsert(id, MakeTestCommunity(12, id));
        }
        ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
        if (version == 0) version = catalog.latest_version();
      }
      LogWriter writer;
      ASSERT_TRUE(writer.Open(store->LogPath(store->generation()),
                              store->generation(), 1, 0, nullptr, &error))
          << error;
      ASSERT_TRUE(writer.AppendUpsert(9, version, community));
      if (c.twice) {
        ASSERT_TRUE(writer.AppendUpsert(10, version, community));
      }
      writer.Close();
    }
    const std::string where = "segment " + std::to_string(c.with_segment) +
                              " version " + std::to_string(version) +
                              " twice " + std::to_string(c.twice);
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    service::CommunityCatalog restored(CatalogOpts());
    error.clear();
    EXPECT_EQ(store->RestoreInto(&restored, &error), c.valid) << where;
    if (c.valid) {
      EXPECT_EQ(restored.Get(9).version, version) << where;
      EXPECT_EQ(restored.latest_version(), version) << where;
    } else {
      EXPECT_NE(error.find(c.twice ? "share version" : "version outside"),
                std::string::npos)
          << where << ": " << error;
      EXPECT_NE(error.find("run csj_fsck"), std::string::npos) << where;
      EXPECT_EQ(restored.size(), 0u) << where;
    }
    FsckOptions fsck_options;
    fsck_options.dir = dir;
    FsckReport report;
    ASSERT_TRUE(FsckStore(fsck_options, &report));
    EXPECT_EQ(report.clean(), c.valid) << where;
  }
}

TEST(PersistStoreTest, RestoredEntriesAreCopyOnWriteOverTheMapping) {
  const std::string dir = FreshDir();
  service::CommunityCatalog catalog(CatalogOpts());
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

  service::CommunityCatalog restored(CatalogOpts());
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
  service::CommunityCatalog catalog(CatalogOpts());
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
  service::CommunityCatalog::Options mismatched = CatalogOpts();
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
  service::CommunityCatalog catalog(CatalogOpts());
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
  service::CommunityCatalog restored(CatalogOpts());
  EXPECT_FALSE(store->RestoreInto(&restored, &error));
  EXPECT_NE(error.find("csj_fsck"), std::string::npos) << error;
}

/// Checkpoints `catalog` into a fresh store, reseals its segment with one
/// more section of `kind` holding `payload` (as an older writer would
/// have sealed it), and requires restore and deep fsck to ignore it.
void ExpectOlderSectionIgnored(const service::CommunityCatalog& catalog,
                               SectionKind kind,
                               const std::vector<uint32_t>& payload) {
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  const std::string seg = dir + "/seg-1.csj";
  const std::string resealed = seg + ".resealed";
  {
    auto segment = MappedSegment::Map(seg, false, false, &error);
    ASSERT_NE(segment, nullptr) << error;
    ASSERT_EQ(segment->Find(kind), nullptr);
    const SegmentHeader& header = segment->header();
    SegmentParams params;
    params.entry_count = header.entry_count;
    params.next_version = header.next_version;
    params.warm_eps = header.warm_eps;
    params.warm_parts = header.warm_parts;
    params.sig_quantiles = header.sig_quantiles;
    params.flags = header.flags;
    std::vector<SectionSpec> sections;
    for (const SectionDesc& desc : segment->sections()) {
      sections.push_back({static_cast<SectionKind>(desc.kind), desc.elem_size,
                          segment->data() + desc.offset, desc.byte_size});
    }
    sections.push_back(
        {kind, 4, payload.data(), payload.size() * sizeof(uint32_t)});
    ASSERT_TRUE(WriteSegment(resealed, params, sections, &error)) << error;
  }
  ASSERT_EQ(std::rename(resealed.c_str(), seg.c_str()), 0);

  ExpectRestoresIdentical(dir, catalog);
  FsckOptions fsck_options;
  fsck_options.dir = dir;
  fsck_options.deep = true;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck_options, &report));
  EXPECT_TRUE(report.clean());
}

void UpsertSixEntries(service::CommunityCatalog* catalog) {
  for (uint64_t id = 1; id <= 6; ++id) {
    catalog->Upsert(id, MakeTestCommunity(12 + static_cast<uint32_t>(id), id));
  }
}

TEST(PersistStoreTest, RestoreAndFsckIgnoreAnOlderSegmentsSampledSection) {
  // Older writers sealed a kSampled section (sketched-user counts) beside
  // the sketch tables. Restore and fsck ignore it whatever it holds: a 0,
  // or a count below the community size, once reached the sketch restore
  // constructor unchecked.
  service::CommunityCatalog catalog(CatalogOpts());
  UpsertSixEntries(&catalog);
  std::vector<uint32_t> sampled(catalog.size());
  for (size_t i = 0; i < sampled.size(); ++i) {
    sampled[i] = static_cast<uint32_t>(i % 2);
  }
  ExpectOlderSectionIgnored(catalog, SectionKind::kSampled, sampled);
}

TEST(PersistStoreTest, RestoreAndFsckIgnoreAnOlderSegmentsCommunityWindow) {
  // Older writers sealed a kComWindow section: every entry's counters as
  // a padded user-order verify window, which no query read. Restore and
  // fsck ignore it, whether it holds those windows or garbage of another
  // length.
  service::CommunityCatalog catalog(CatalogOpts());
  UpsertSixEntries(&catalog);
  std::vector<uint32_t> windows;
  for (const service::CatalogEntry& entry : catalog.Snapshot()) {
    const Community& community = *entry.community;
    VerifyWindow window;
    window.Assign(community.size(), community.d(),
                  [&](uint32_t u) { return community.User(u); });
    windows.insert(windows.end(), window.BlockData(0),
                   window.BlockData(0) + VerifyWindow::PaddedCount(
                                             community.size(), community.d()));
  }
  {
    SCOPED_TRACE("windows");
    ExpectOlderSectionIgnored(catalog, SectionKind::kComWindow, windows);
  }
  util::Rng rng(testing::TestSeed(24));
  std::vector<uint32_t> garbage(windows.size() / 2 + 3);
  for (uint32_t& value : garbage) {
    value = static_cast<uint32_t>(rng());
  }
  SCOPED_TRACE("garbage");
  ExpectOlderSectionIgnored(catalog, SectionKind::kComWindow, garbage);
}

}  // namespace
}  // namespace csj::persist
