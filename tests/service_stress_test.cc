// Concurrency stress for the serving subsystem, written for TSan: all
// catalog operations, top-k queries, live-session churn and the server's
// admission/shutdown paths race against each other. Assertions are
// deliberately coarse (invariants, not exact values) — the point is that
// the sanitizer observes every pairing of operations.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "data/generator.h"
#include "service/catalog.h"
#include "service/server.h"
#include "service/topk.h"
#include "service/workload.h"
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

TEST(ServiceStressTest, CatalogChurnVersusQueriesAndLiveSessions) {
  EncodingCache cache;
  CommunityCatalog::Options catalog_options;
  catalog_options.shards = 4;
  CommunityCatalog catalog(catalog_options);
  constexpr uint32_t kIds = 12;
  for (uint64_t id = 1; id <= kIds; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16 + static_cast<uint32_t>(id), id));
  }
  const TopKSimilarService topk(&catalog);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_done{0};
  std::vector<std::thread> crew;

  // Upserters: constantly replace entries (exercises COW + warmup).
  for (uint32_t t = 0; t < 2; ++t) {
    crew.emplace_back([&, t] {
      util::Rng rng(testing::TestSeed(100 + t));
      uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t id = 1 + rng.Below(kIds);
        catalog.Upsert(id, MakeTestCommunity(
                               12 + static_cast<uint32_t>(rng.Below(12)),
                               1000 * (t + 1) + round++));
      }
    });
  }

  // Remover/re-inserter: entries flicker in and out of existence.
  crew.emplace_back([&] {
    util::Rng rng(testing::TestSeed(200));
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t id = 1 + rng.Below(kIds);
      if (catalog.Remove(id)) {
        catalog.Upsert(id, MakeTestCommunity(16, 300 + id));
      }
    }
  });

  // Queriers: full top-k against the churning catalog.
  for (uint32_t t = 0; t < 2; ++t) {
    crew.emplace_back([&, t] {
      util::Rng rng(testing::TestSeed(400 + t));
      TopKOptions options;
      options.k = 3;
      options.join.eps = 1;
      options.join.cache = &cache;
      while (!stop.load(std::memory_order_relaxed)) {
        const Community query =
            MakeTestCommunity(14 + static_cast<uint32_t>(rng.Below(10)),
                              500 + rng.Below(64));
        const TopKResult result = topk.Query(query, options);
        // Entries a query returns are pinned copies: dereferencing their
        // similarity is always safe, whatever the churn did meanwhile.
        for (const TopKEntry& entry : result.entries) {
          ASSERT_GE(entry.similarity, 0.0);
          ASSERT_LE(entry.similarity, 1.0);
        }
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Live-session churner: attach, mutate subscribers, poll staleness.
  crew.emplace_back([&] {
    util::Rng rng(testing::TestSeed(600));
    JoinOptions join;
    join.eps = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const Community query = MakeTestCommunity(12, 700 + rng.Below(16));
      const uint64_t id = 1 + rng.Below(kIds);
      auto session = catalog.AttachLive(query, id, join);
      if (session == nullptr) continue;  // absent mid-churn: fine
      const auto handle = session->AddSubscriber(query.User(0));
      (void)session->Similarity();
      (void)session->Stale();
      session->RemoveSubscriber(handle);
      (void)session->Similarity();
    }
  });

  // Snapshotter: full scans racing the writers.
  crew.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
      for (size_t i = 1; i < snapshot.size(); ++i) {
        ASSERT_LT(snapshot[i - 1].id, snapshot[i].id);
      }
    }
  });

  // Run until the queriers have done real work (bounded by wall clock so
  // a TSan-slowed run still terminates promptly).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (queries_done.load(std::memory_order_relaxed) < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : crew) thread.join();

  EXPECT_GT(queries_done.load(), 0u);
  const CommunityCatalog::Stats stats = catalog.GetStats();
  EXPECT_GT(stats.upserts, kIds);
}

TEST(ServiceStressTest, ServerUnderConcurrentMixedLoad) {
  EncodingCache cache;
  CsjServer::Options options;
  options.workers = 3;
  options.queue_capacity = 4;  // small: admission control must fire
  CsjServer server(options);

  WorkloadOptions workload_options;
  workload_options.catalog_size = 10;
  workload_options.community_size = 24;
  workload_options.upsert_fraction = 0.2;
  workload_options.remove_fraction = 0.05;
  workload_options.zipf_s = 1.1;
  workload_options.seed = testing::TestSeed(800);
  const ServeWorkload workload(workload_options);
  workload.Populate(&server);

  TopKOptions topk;
  topk.k = 3;
  topk.join.eps = 1;
  topk.join.cache = &cache;

  constexpr uint32_t kClients = 6;
  constexpr uint32_t kPerClient = 25;
  std::atomic<uint64_t> ok{0}, rejected{0}, not_found{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(testing::TestSeed(900 + c));
      for (uint32_t i = 0; i < kPerClient; ++i) {
        const ServeResponse response =
            server.SubmitAndWait(workload.NextRequest(rng, topk));
        switch (response.status) {
          case ServeStatus::kOk:
            ok.fetch_add(1, std::memory_order_relaxed);
            break;
          case ServeStatus::kRejected:
            rejected.fetch_add(1, std::memory_order_relaxed);
            break;
          case ServeStatus::kNotFound:
            not_found.fetch_add(1, std::memory_order_relaxed);
            break;
          case ServeStatus::kDeadlineExpired:
            break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Shutdown();

  // Every request got exactly one terminal status.
  EXPECT_EQ(ok.load() + rejected.load() + not_found.load(),
            kClients * kPerClient);
  EXPECT_GT(ok.load(), 0u);
  const CsjServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.accepted, ok.load() + not_found.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(ServiceStressTest, SubmitRacingShutdownNeverLosesARequest) {
  // Producers submit while another thread shuts the server down; every
  // Submit must either return false or yield a future that completes.
  for (uint32_t round = 0; round < 4; ++round) {
    CsjServer::Options options;
    options.workers = 2;
    options.queue_capacity = 8;
    CsjServer server(options);
    server.catalog().Upsert(1, MakeTestCommunity(20, 1));

    std::atomic<uint64_t> settled{0};
    std::vector<std::thread> producers;
    for (uint32_t p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        util::Rng rng(testing::TestSeed(1200 + round * 8 + p));
        for (uint32_t i = 0; i < 20; ++i) {
          ServeRequest request;
          request.kind = RequestKind::kTopK;
          request.community = std::make_shared<const Community>(
              MakeTestCommunity(14, 1300 + rng.Below(8)));
          request.topk.k = 2;
          std::future<ServeResponse> response;
          if (server.Submit(std::move(request), &response)) {
            (void)response.get();  // must complete, never hang
          }
          settled.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::thread closer([&] { server.Shutdown(); });
    for (std::thread& producer : producers) producer.join();
    closer.join();
    EXPECT_EQ(settled.load(), 3u * 20u);
  }
}

}  // namespace
}  // namespace csj::service
