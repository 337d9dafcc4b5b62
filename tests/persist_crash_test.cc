// Crash-injection tests for the persistent store: the fault harness
// kills the log writer at every fsync barrier and at arbitrary byte
// offsets (torn records), then recovery must rebuild exactly the
// catalog the durable log prefix describes — proven by the same deep
// byte-identity compare the serving drivers gate on — and csj_fsck must
// pass the recovered store.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/signature.h"
#include "data/generator.h"
#include "persist/fsck.h"
#include "persist/log.h"
#include "persist/store.h"
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

std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_crash_XXXXXX";
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

/// One scripted mutation. Every op is EFFECTIVE (each remove targets a
/// live id), so ops map 1:1 onto durable log records and "the first D
/// records" is the same thing as "the first D ops".
struct Op {
  bool remove = false;
  uint64_t id = 0;
  uint32_t size = 0;
  uint64_t salt = 0;
};

/// The scripted single-threaded history. Sequential appliers reissue
/// the exact same versions for any prefix, which is what lets a shadow
/// catalog built from the durable prefix serve as the recovery oracle.
std::vector<Op> Script() {
  std::vector<Op> ops;
  for (uint64_t id = 1; id <= 9; ++id) {
    ops.push_back({false, id, 10 + static_cast<uint32_t>(id % 5), id});
  }
  ops.push_back({false, 4, 21, 100});  // replace
  ops.push_back({true, 7, 0, 0});      // remove a live id
  ops.push_back({false, 30, 14, 101});
  ops.push_back({true, 2, 0, 0});
  ops.push_back({false, 4, 11, 102});  // replace again
  ops.push_back({false, 31, 17, 103});
  return ops;
}

void ApplyOp(service::CommunityCatalog* catalog, const Op& op) {
  if (op.remove) {
    ASSERT_TRUE(catalog->Remove(op.id));
  } else {
    catalog->Upsert(op.id, MakeTestCommunity(op.size, op.salt));
  }
}

/// Builds the oracle: a plain in-RAM catalog with the first `count` ops
/// applied sequentially.
void BuildShadow(service::CommunityCatalog* shadow, size_t count) {
  const std::vector<Op> ops = Script();
  ASSERT_LE(count, ops.size());
  for (size_t i = 0; i < count; ++i) ApplyOp(shadow, ops[i]);
}

/// Recovers `dir` into a fresh catalog and requires deep identity with
/// the shadow built from `expect_records` ops, plus a clean fsck.
void ExpectRecoversPrefix(const std::string& dir, uint64_t expect_records) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  OpenStats stats;
  auto store = Store::Open(options, &error, &stats);
  ASSERT_NE(store, nullptr) << error;
  service::CommunityCatalog recovered(CatalogOpts());
  ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
  EXPECT_EQ(stats.log_records_replayed, expect_records);

  service::CommunityCatalog shadow(CatalogOpts());
  BuildShadow(&shadow, expect_records);
  EXPECT_TRUE(service::CatalogsIdentical(shadow, recovered, /*eps=*/2, kTau));

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistCrashTest, KillAtEveryFsyncBarrierRecoversDurablePrefix) {
  const std::vector<Op> ops = Script();
  // Barrier k covers record k (sync_every = 1). Dying BEFORE barrier k
  // leaves records 0..k-1 fsynced and record k written-but-unsynced;
  // under the same-process crash model the written bytes survive, so
  // recovery must surface exactly k+1 records.
  for (size_t k = 0; k <= ops.size(); ++k) {
    SCOPED_TRACE("crash before fsync " + std::to_string(k));
    const std::string dir = FreshDir();
    FaultInjector injector;
    injector.crash_after_fsyncs = static_cast<int64_t>(k);
    {
      StoreOptions options;
      options.dir = dir;
      options.log_sync_every = 1;
      options.fault_injector = &injector;
      std::string error;
      auto store = Store::Open(options, &error);
      ASSERT_NE(store, nullptr) << error;
      service::CommunityCatalog live(CatalogOpts());
      ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
      for (const Op& op : ops) ApplyOp(&live, op);
      EXPECT_EQ(injector.dead, k < ops.size());
      // Crash: the store drops without StopLogging; a dead writer's
      // close-time sync is discarded.
    }
    const uint64_t durable =
        k < ops.size() ? static_cast<uint64_t>(k) + 1 : ops.size();
    ExpectRecoversPrefix(dir, durable);
  }
}

TEST(PersistCrashTest, TornRecordAtArbitraryByteOffsetsIsChoppedCleanly) {
  const std::vector<Op> ops = Script();
  // Measure the full log's record-byte footprint with a no-crash run.
  uint64_t total_bytes = 0;
  {
    const std::string dir = FreshDir();
    FaultInjector probe;  // no trigger set: counts bytes only
    StoreOptions options;
    options.dir = dir;
    options.fault_injector = &probe;
    std::string error;
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    service::CommunityCatalog live(CatalogOpts());
    ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
    for (const Op& op : ops) ApplyOp(&live, op);
    store->StopLogging(&live);
    total_bytes = probe.bytes_written;
  }
  ASSERT_GT(total_bytes, 0u);

  // Sweep tear points across the file with a stride that is coprime to
  // the typical record sizes, so the cuts land mid-prefix, mid-payload,
  // and on exact record boundaries.
  for (uint64_t limit = 3; limit < total_bytes; limit += 97) {
    SCOPED_TRACE("torn write at byte " + std::to_string(limit));
    const std::string dir = FreshDir();
    FaultInjector injector;
    injector.crash_write_at_bytes = static_cast<int64_t>(limit);
    {
      StoreOptions options;
      options.dir = dir;
      options.fault_injector = &injector;
      std::string error;
      auto store = Store::Open(options, &error);
      ASSERT_NE(store, nullptr) << error;
      service::CommunityCatalog live(CatalogOpts());
      ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
      for (const Op& op : ops) ApplyOp(&live, op);
      EXPECT_TRUE(injector.dead);
    }
    // The durable prefix is whatever whole records fit under the limit;
    // read it back independently of recovery to fix the expectation.
    LogImage image;
    std::string error;
    ASSERT_TRUE(ReadLog(dir + "/log-0.csj", 0, &image, &error)) << error;
    const uint64_t durable = image.records.size();

    StoreOptions options;
    options.dir = dir;
    OpenStats stats;
    auto store = Store::Open(options, &error, &stats);
    ASSERT_NE(store, nullptr) << error;
    service::CommunityCatalog recovered(CatalogOpts());
    ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
    EXPECT_EQ(stats.log_records_replayed, durable);
    EXPECT_EQ(stats.log_torn_bytes > 0, image.torn);

    service::CommunityCatalog shadow(CatalogOpts());
    BuildShadow(&shadow, durable);
    EXPECT_TRUE(
        service::CatalogsIdentical(shadow, recovered, /*eps=*/2, kTau));

    // fsck: a torn tail is a NON-fatal finding, and --repair truncates
    // it so the next fsck reports nothing at all.
    FsckOptions fsck;
    fsck.dir = dir;
    fsck.repair = true;
    FsckReport report;
    ASSERT_TRUE(FsckStore(fsck, &report));
    EXPECT_TRUE(report.clean())
        << (report.findings.empty() ? "" : report.findings[0].message);
    EXPECT_EQ(report.torn_tail_bytes > 0, image.torn);
    EXPECT_EQ(report.repaired, image.torn);

    FsckReport after;
    ASSERT_TRUE(FsckStore(fsck, &after));
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.torn_tail_bytes, 0u);
    EXPECT_EQ(after.log_records, durable);
  }
}

TEST(PersistCrashTest, RecoveredStoreResumesLoggingAndConverges) {
  const std::vector<Op> ops = Script();
  constexpr size_t kCrashBarrier = 5;
  const std::string dir = FreshDir();
  FaultInjector injector;
  injector.crash_after_fsyncs = kCrashBarrier;
  {
    StoreOptions options;
    options.dir = dir;
    options.fault_injector = &injector;
    std::string error;
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    service::CommunityCatalog live(CatalogOpts());
    ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
    for (const Op& op : ops) ApplyOp(&live, op);
    ASSERT_TRUE(injector.dead);
  }

  // Recover, re-attach the log (Open chops any tear first), and apply
  // the ops the crash swallowed. The final state must equal the full
  // script — versions included, because the restored catalog pins its
  // version horizon where the durable prefix left it.
  const uint64_t durable = kCrashBarrier + 1;
  {
    StoreOptions options;
    options.dir = dir;
    std::string error;
    OpenStats stats;
    auto store = Store::Open(options, &error, &stats);
    ASSERT_NE(store, nullptr) << error;
    service::CommunityCatalog live(CatalogOpts());
    ASSERT_TRUE(store->RestoreInto(&live, &error, &stats)) << error;
    ASSERT_EQ(stats.log_records_replayed, durable);
    ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
    for (size_t i = durable; i < ops.size(); ++i) ApplyOp(&live, ops[i]);
    store->StopLogging(&live);

    service::CommunityCatalog shadow(CatalogOpts());
    BuildShadow(&shadow, ops.size());
    EXPECT_TRUE(service::CatalogsIdentical(shadow, live, /*eps=*/2, kTau));
  }
  // And the re-written log itself recovers to the same converged state.
  ExpectRecoversPrefix(dir, ops.size());
}

TEST(PersistCrashTest, TornLogHeaderRestartsTheLogInsteadOfWedging) {
  // Regression: a log file shorter than its header (the writer died
  // inside the very first write) reads as truncated_at == 0; resuming
  // used to append records after the garbage bytes, making the next
  // open fail structurally ("bad log magic") — acked records
  // unreachable forever. The writer must instead restart from byte 0
  // with a fresh header.
  const std::string dir = FreshDir();
  std::string error;
  {
    StoreOptions options;
    options.dir = dir;
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
  }
  {
    // Plant a torn header: a few junk bytes, fewer than sizeof(LogHeader).
    FILE* torn = std::fopen((dir + "/log-0.csj").c_str(), "wb");
    ASSERT_NE(torn, nullptr);
    std::fputs("junk", torn);
    std::fclose(torn);
  }

  {
    StoreOptions options;
    options.dir = dir;
    OpenStats stats;
    auto store = Store::Open(options, &error, &stats);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_GT(stats.log_torn_bytes, 0u);
    service::CommunityCatalog live(CatalogOpts());
    ASSERT_TRUE(store->RestoreInto(&live, &error, &stats)) << error;
    EXPECT_EQ(stats.log_records_replayed, 0u);
    ASSERT_TRUE(store->StartLogging(&live, &error)) << error;
    live.Upsert(1, MakeTestCommunity(12, 1));
    live.Upsert(2, MakeTestCommunity(13, 2));
    store->StopLogging(&live);
  }

  // The rewritten log must be structurally sound and carry the records.
  StoreOptions options;
  options.dir = dir;
  OpenStats stats;
  auto store = Store::Open(options, &error, &stats);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(stats.log_torn_bytes, 0u);
  service::CommunityCatalog recovered(CatalogOpts());
  ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
  EXPECT_EQ(stats.log_records_replayed, 2u);
  EXPECT_EQ(recovered.size(), 2u);

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistCrashTest, ConcurrentMutationsSurviveRestartByteIdentically) {
  const std::string dir = FreshDir();
  service::CommunityCatalog live(CatalogOpts());
  StoreOptions options;
  options.dir = dir;
  options.log_sync_every = 8;  // batched barriers under contention
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->StartLogging(&live, &error)) << error;

  // Four writers on disjoint id ranges, racing shard locks. The log
  // carries the versions actually issued, so replay reproduces even a
  // nondeterministic interleaving exactly.
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kPerThread = 24;
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&live, t] {
      const uint64_t base = 1000ull * (t + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        live.Upsert(base + (i % 16), MakeTestCommunity(10 + t, base + i));
        if (i % 7 == 6) live.Remove(base + ((i - 3) % 16));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  store->StopLogging(&live);
  store.reset();

  StoreOptions reopen;
  reopen.dir = dir;
  OpenStats stats;
  auto recovered_store = Store::Open(reopen, &error, &stats);
  ASSERT_NE(recovered_store, nullptr) << error;
  service::CommunityCatalog recovered(CatalogOpts());
  ASSERT_TRUE(recovered_store->RestoreInto(&recovered, &error, &stats))
      << error;
  EXPECT_TRUE(service::CatalogsIdentical(live, recovered, /*eps=*/2, kTau));

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistCrashTest, InterruptedCheckpointLeavesOldGenerationServable) {
  const std::string dir = FreshDir();
  service::CommunityCatalog live(CatalogOpts());
  for (uint64_t id = 1; id <= 6; ++id) {
    live.Upsert(id, MakeTestCommunity(12, id));
  }
  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(live, &error)) << error;
  }

  // Simulate a crash mid-checkpoint: a half-written seg-2 exists but
  // the superblock still names generation 1. The partial file must be
  // inert — recovery serves generation 1 and fsck only NOTES the stray.
  {
    FILE* partial = std::fopen((dir + "/seg-2.csj").c_str(), "wb");
    ASSERT_NE(partial, nullptr);
    std::fputs("partial segment bytes that never committed", partial);
    std::fclose(partial);
  }

  OpenStats stats;
  auto store = Store::Open(options, &error, &stats);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->generation(), 1u);
  service::CommunityCatalog recovered(CatalogOpts());
  ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
  EXPECT_TRUE(service::CatalogsIdentical(live, recovered, /*eps=*/2, kTau));

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean());
  bool noted_stray = false;
  for (const FsckFinding& finding : report.findings) {
    noted_stray = noted_stray ||
                  (!finding.fatal &&
                   finding.message.find("seg-2.csj") != std::string::npos);
  }
  EXPECT_TRUE(noted_stray);
}

}  // namespace
}  // namespace csj::persist
