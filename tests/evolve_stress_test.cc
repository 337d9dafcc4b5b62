// Sanitizer soak for the evolution subsystem: a maintainer refreshing
// standing queries races catalog churn writers, top-k readers, and a
// trigger subscriber. Run under TSan/ASan by the CI scripts (suite name
// EvolveStress* is in ci_tsan.sh's filter).
//
// The load-bearing invariant is EXACTLY-ONCE EVENT ACCOUNTING: every
// mutation-log record is folded into exactly one refresh outcome per
// query — the per-query sum of records_consumed telescopes to the final
// mutation_seq, with no record skipped and none double-counted, across
// fast paths, fallbacks, and races with in-flight writers.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "evolve/maintainer.h"
#include "service/catalog.h"
#include "service/topk.h"
#include "service/workload.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::evolve {
namespace {

constexpr uint32_t kIdSpace = 48;
constexpr uint32_t kWriters = 2;
constexpr uint32_t kWriterOps = 220;
constexpr uint32_t kQueries = 3;

TEST(EvolveStressTest, MaintainerRacesChurnWithExactAccounting) {
  const uint64_t seed = testing::TestSeed(7);
  service::WorkloadOptions workload_options;
  workload_options.catalog_size = 32;
  workload_options.community_size = 16;
  workload_options.cluster_size = 4;
  workload_options.eps = 1;
  workload_options.seed = seed % 100000 + 1;
  service::ServeWorkload workload(workload_options);

  EncodingCache cache;
  service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = 1;
  catalog_options.mutation_log_capacity = 1 << 18;
  service::CommunityCatalog catalog(catalog_options);
  const auto& pool = workload.communities();
  for (size_t i = 0; i < pool.size(); ++i) {
    catalog.Upsert(static_cast<uint64_t>(i) + 1, *pool[i]);
  }
  service::TopKSimilarService service(&catalog);

  service::TopKOptions topk;
  topk.k = 5;
  topk.join.eps = 1;
  topk.join.cache = &cache;

  TopKMaintainer::Options options;
  options.service = &service;
  TopKMaintainer maintainer(&catalog, options);

  std::atomic<uint64_t> subscriber_triggers{0};
  maintainer.Subscribe([&](const TriggerEvent& event) {
    // A trigger by contract reports an actual meaning change.
    bool same = event.before.size() == event.after.size();
    if (same) {
      for (size_t i = 0; i < event.before.size(); ++i) {
        if (event.before[i].id != event.after[i].id ||
            event.before[i].similarity != event.after[i].similarity) {
          same = false;
          break;
        }
      }
    }
    EXPECT_FALSE(same) << "trigger fired without a ranking change";
    subscriber_triggers.fetch_add(1, std::memory_order_relaxed);
  });

  for (uint32_t q = 0; q < kQueries; ++q) {
    maintainer.Register(pool[q * (pool.size() / kQueries)], topk);
  }

  std::atomic<bool> writers_done{false};
  std::vector<uint64_t> records_sum(kQueries, 0);
  uint64_t observed_changes = 0;

  std::vector<std::thread> threads;
  // Churn writers: upsert freshly minted communities over a shared id
  // space, with occasional removes (ids may be absent — that's fine, a
  // no-op remove logs nothing).
  for (uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(seed + 1000 + w);
      for (uint32_t i = 0; i < kWriterOps; ++i) {
        if (i % 7 == 6) {
          catalog.Remove(1 + rng.Below(kIdSpace));
        } else {
          catalog.Upsert(1 + rng.Below(kIdSpace),
                         *workload.MintAgainstAnchor(rng));
        }
      }
    });
  }
  // Top-k readers: plain serving queries racing the same churn; results
  // must always be well-formed (ranked, at most k).
  for (uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      const auto& pivot = *pool[(r * 5 + 1) % pool.size()];
      while (!writers_done.load(std::memory_order_acquire)) {
        const auto result = service.Query(pivot, topk);
        ASSERT_LE(result.entries.size(), topk.k);
        for (size_t i = 1; i < result.entries.size(); ++i) {
          const auto& prev = result.entries[i - 1];
          const auto& cur = result.entries[i];
          ASSERT_TRUE(cur.similarity < prev.similarity ||
                      (cur.similarity == prev.similarity && cur.id > prev.id))
              << "reader observed an unranked result";
        }
      }
    });
  }
  // The maintainer thread: continuous refreshes while churn is live,
  // accumulating per-query record consumption from the outcomes.
  threads.emplace_back([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      for (uint32_t q = 0; q < kQueries; ++q) {
        const auto outcome = maintainer.Refresh(q);
        records_sum[q] += outcome.records_consumed;
        if (outcome.changed) ++observed_changes;
      }
    }
  });

  for (uint32_t w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (uint32_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Quiesced final refreshes: fold any tail records, then verify the
  // telescoped accounting and byte-identity against fresh recomputes.
  for (uint32_t q = 0; q < kQueries; ++q) {
    const auto outcome = maintainer.Refresh(q);
    records_sum[q] += outcome.records_consumed;
    if (outcome.changed) ++observed_changes;
    const auto tail = maintainer.Refresh(q);
    EXPECT_EQ(tail.records_consumed, 0u)
        << "records appeared after quiesce, query " << q;
    EXPECT_FALSE(tail.changed);
  }
  const uint64_t final_seq = catalog.mutation_seq();
  EXPECT_GT(final_seq, 32u) << "writers produced no churn";
  for (uint32_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(records_sum[q], final_seq)
        << "query " << q
        << " lost or double-counted mutation records (exactly-once "
           "accounting broken)";
    const auto fresh =
        service.Query(*pool[q * (pool.size() / kQueries)], topk);
    EXPECT_TRUE(maintainer.Ranking(q) == fresh.entries)
        << "post-quiesce maintained ranking diverged, query " << q;
  }
  const auto stats = maintainer.GetStats();
  EXPECT_EQ(stats.triggers,
            subscriber_triggers.load(std::memory_order_relaxed))
      << "subscriber missed triggers";
  EXPECT_EQ(stats.triggers, observed_changes)
      << "outcome.changed disagrees with fired triggers";
  EXPECT_EQ(stats.refreshes, stats.fast_paths + stats.fallbacks);
}

/// Concurrent RefreshAll from several threads on the SAME queries: the
/// per-query mutex serializes them; accounting via GetStats must stay
/// coherent and the final rankings identical to fresh recomputes.
TEST(EvolveStressTest, ConcurrentRefreshersSerializePerQuery) {
  const uint64_t seed = testing::TestSeed(8);
  service::WorkloadOptions workload_options;
  workload_options.catalog_size = 24;
  workload_options.community_size = 14;
  workload_options.eps = 1;
  workload_options.seed = seed % 100000 + 1;
  service::ServeWorkload workload(workload_options);

  EncodingCache cache;
  service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = 1;
  catalog_options.mutation_log_capacity = 1 << 16;
  service::CommunityCatalog catalog(catalog_options);
  const auto& pool = workload.communities();
  for (size_t i = 0; i < pool.size(); ++i) {
    catalog.Upsert(static_cast<uint64_t>(i) + 1, *pool[i]);
  }
  service::TopKSimilarService service(&catalog);

  service::TopKOptions topk;
  topk.k = 3;
  topk.join.eps = 1;
  topk.join.cache = &cache;
  TopKMaintainer::Options options;
  options.service = &service;
  TopKMaintainer maintainer(&catalog, options);
  maintainer.Register(pool[0], topk);
  maintainer.Register(pool[7], topk);
  maintainer.RefreshAll();

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) maintainer.RefreshAll();
    });
  }
  threads.emplace_back([&] {
    util::Rng rng(seed + 77);
    for (uint32_t i = 0; i < 150; ++i) {
      catalog.Upsert(1 + rng.Below(30), *workload.MintAgainstAnchor(rng));
    }
    done.store(true, std::memory_order_release);
  });
  for (auto& thread : threads) thread.join();

  maintainer.RefreshAll();
  EXPECT_TRUE(maintainer.Ranking(0) == service.Query(*pool[0], topk).entries);
  EXPECT_TRUE(maintainer.Ranking(1) == service.Query(*pool[7], topk).entries);
  const auto stats = maintainer.GetStats();
  EXPECT_EQ(stats.refreshes, stats.fast_paths + stats.fallbacks);
}

}  // namespace
}  // namespace csj::evolve
