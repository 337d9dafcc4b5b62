// Differential gate for the evolution subsystem: the MAINTAINED top-k
// ranking must equal a fresh TopKSimilarService recompute BYTE FOR BYTE
// (ids, versions, similarity bits) at every quiesce point, across 300+
// seeded drift traces spanning both exact methods, three epsilons, and
// three k values. Trigger events are cross-checked against the observed
// fresh-ranking diffs at the same points: a trigger fires exactly when
// the ranked (id, similarity) sequence moved — no missed, no spurious.
// A drifted catalog must also survive the durable store: checkpoints at
// quiesce points plus the mutation log restore it byte-identically.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "evolve/drift.h"
#include "evolve/maintainer.h"
#include "persist/store.h"
#include "service/catalog.h"
#include "service/deep_compare.h"
#include "service/topk.h"
#include "test_seed.h"

namespace csj::evolve {
namespace {

/// Trigger semantics: the ranked (id, similarity) projection.
bool SameMeaning(const std::vector<service::TopKEntry>& x,
                 const std::vector<service::TopKEntry>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id != y[i].id || x[i].similarity != y[i].similarity) {
      return false;
    }
  }
  return true;
}

struct TraceConfig {
  Method method = Method::kExMinMax;
  Epsilon eps = 1;
  uint32_t k = 5;
  uint64_t seed = 0;
  size_t log_capacity = 1 << 16;
  uint32_t freeze_threads = 0;  ///< 0 = pool default
};

struct TraceResult {
  TopKMaintainer::Stats stats;
  uint64_t triggers = 0;
  /// Final maintained rankings, one per registered query.
  std::vector<std::vector<service::TopKEntry>> rankings;
  /// Final catalog image: (id, version, flat counters) ascending by id.
  std::vector<std::tuple<uint64_t, uint64_t, std::vector<Count>>> image;
};

/// Replays one seeded drift trace, checking maintained-vs-fresh identity
/// and trigger exactness at every quiesce point. Returns the aggregate
/// stats so suites can assert both maintainer paths actually ran.
TraceResult RunTrace(const TraceConfig& config) {
  DriftOptions drift;
  drift.base.catalog_size = 10 + static_cast<uint32_t>(config.seed % 15);
  drift.base.community_size = 24;
  drift.base.cluster_size = 4;
  drift.base.eps = config.eps;
  drift.base.seed = config.seed * 3 + 1;
  drift.events = 48;
  drift.quiesce_every = 12;
  drift.seed = config.seed * 7 + 5;
  DriftModel model(drift);

  EncodingCache cache;
  service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = config.eps;
  catalog_options.mutation_log_capacity = config.log_capacity;
  service::CommunityCatalog catalog(catalog_options);
  service::TopKSimilarService fresh_service(&catalog);

  DriftReplayer::Options replay;
  replay.session_join.eps = config.eps;
  replay.session_join.cache = &cache;
  replay.freeze_threads = config.freeze_threads;
  DriftReplayer replayer(&model, &catalog, replay);

  service::TopKOptions topk;
  topk.k = config.k;
  topk.method = config.method;
  topk.join.eps = config.eps;
  topk.join.cache = &cache;

  TopKMaintainer::Options options;
  options.service = &fresh_service;
  TopKMaintainer maintainer(&catalog, options);

  const auto& pool = model.workload().communities();
  const std::vector<size_t> pivots = {0, pool.size() / 2};
  std::vector<std::vector<service::TopKEntry>> fresh_prev;
  for (const size_t p : pivots) maintainer.Register(pool[p], topk);
  maintainer.RefreshAll();
  for (const size_t p : pivots) {
    fresh_prev.push_back(fresh_service.Query(*pool[p], topk).entries);
    EXPECT_TRUE(maintainer.Ranking(static_cast<uint32_t>(fresh_prev.size()) -
                                   1) == fresh_prev.back())
        << "baseline mismatch, seed " << config.seed;
  }

  for (uint32_t e = 0; e < model.epochs(); ++e) {
    replayer.ApplyEpoch(e);
    for (uint32_t q = 0; q < pivots.size(); ++q) {
      const auto outcome = maintainer.Refresh(q);
      const auto fresh = fresh_service.Query(*pool[pivots[q]], topk);
      const auto maintained = maintainer.Ranking(q);
      // Byte-for-byte: TopKEntry == compares id, VERSION, and the
      // similarity double bits.
      EXPECT_TRUE(maintained == fresh.entries)
          << MethodName(config.method) << " eps=" << config.eps
          << " k=" << config.k << " seed=" << config.seed << " epoch=" << e
          << " query=" << q << ": maintained ranking diverged";
      const bool moved = !SameMeaning(fresh_prev[q], fresh.entries);
      EXPECT_EQ(outcome.changed, moved)
          << MethodName(config.method) << " eps=" << config.eps
          << " k=" << config.k << " seed=" << config.seed << " epoch=" << e
          << " query=" << q
          << (moved ? ": MISSED trigger" : ": SPURIOUS trigger");
      fresh_prev[q] = fresh.entries;
    }
  }

  TraceResult result;
  result.stats = maintainer.GetStats();
  for (uint32_t q = 0; q < pivots.size(); ++q) {
    result.triggers += maintainer.trigger_count(q);
    result.rankings.push_back(maintainer.Ranking(q));
  }
  for (const uint64_t id : replayer.live_ids()) {
    const auto entry = catalog.Get(id);
    EXPECT_NE(entry.community, nullptr) << "live id " << id << " not resident";
    if (entry.community == nullptr) continue;
    const auto flat = entry.community->flat();
    result.image.emplace_back(id, entry.version,
                              std::vector<Count>(flat.begin(), flat.end()));
  }
  return result;
}

/// The headline gate: 2 methods x 3 epsilons x 3 k x 17 seeds = 306
/// traces, each checked at every quiesce point. Aggregate assertions
/// prove the suite exercised BOTH maintainer paths (incremental and
/// fallback), the cutoff-seed prune, and nonzero triggers — a suite
/// where everything fell back would vacuously pass identity.
TEST(EvolveDifferentialTest, MaintainedEqualsFreshOver300Traces) {
  const Method methods[] = {Method::kExMinMax, Method::kExBaseline};
  const Epsilon epsilons[] = {0, 2, 8};
  const uint32_t ks[] = {1, 3, 5};
  TopKMaintainer::Stats total;
  uint64_t triggers = 0;
  uint32_t traces = 0;
  for (const Method method : methods) {
    for (const Epsilon eps : epsilons) {
      for (const uint32_t k : ks) {
        for (uint64_t s = 0; s < 17; ++s) {
          TraceConfig config;
          config.method = method;
          config.eps = eps;
          config.k = k;
          config.seed = testing::TestSeed(s * 97 + k * 7 + eps) % 100000;
          const TraceResult result = RunTrace(config);
          total.fast_paths += result.stats.fast_paths;
          total.fallbacks += result.stats.fallbacks;
          total.reprobed_joins += result.stats.reprobed_joins;
          total.reprobe_skipped += result.stats.reprobe_skipped;
          triggers += result.triggers;
          ++traces;
        }
      }
    }
  }
  EXPECT_GE(traces, 300u);
  EXPECT_GT(total.fast_paths, 0u) << "no trace took the incremental path";
  EXPECT_GT(total.fallbacks, 0u) << "no trace exercised the fallback";
  EXPECT_GT(total.reprobed_joins, 0u);
  EXPECT_GT(total.reprobe_skipped, 0u)
      << "the cutoff seed never pruned a newcomer";
  EXPECT_GT(triggers, 0u) << "no trace ever fired a trigger";
}

/// Replay is bit-reproducible at any thread count: the same trace frozen
/// by 1 thread and by 5 threads must produce identical catalog images
/// (ids, versions, counter bytes) AND identical maintained rankings.
TEST(EvolveDifferentialTest, ThreadCountReproducibility) {
  TraceConfig config;
  config.seed = testing::TestSeed(11) % 100000;
  config.eps = 2;
  config.k = 5;

  config.freeze_threads = 1;
  const TraceResult one = RunTrace(config);
  config.freeze_threads = 5;
  const TraceResult five = RunTrace(config);

  ASSERT_EQ(one.image.size(), five.image.size());
  for (size_t i = 0; i < one.image.size(); ++i) {
    EXPECT_EQ(std::get<0>(one.image[i]), std::get<0>(five.image[i]));
    EXPECT_EQ(std::get<1>(one.image[i]), std::get<1>(five.image[i]))
        << "version divergence at id " << std::get<0>(one.image[i]);
    EXPECT_EQ(std::get<2>(one.image[i]), std::get<2>(five.image[i]))
        << "counter bytes diverged at id " << std::get<0>(one.image[i]);
  }
  ASSERT_EQ(one.rankings.size(), five.rankings.size());
  for (size_t q = 0; q < one.rankings.size(); ++q) {
    EXPECT_TRUE(one.rankings[q] == five.rankings[q])
        << "maintained ranking diverged across thread counts, query " << q;
  }
}

/// A mutation log too small for the epoch's churn forces the cursor off
/// the retention window: every such refresh must detect the truncation,
/// fall back to a full recompute, and STILL be byte-identical.
TEST(EvolveDifferentialTest, LogTruncationFallsBackIdentically) {
  TraceConfig config;
  config.seed = testing::TestSeed(23) % 100000;
  config.eps = 1;
  config.k = 3;
  config.log_capacity = 4;  // epochs install ~10-20 records
  const TraceResult result = RunTrace(config);
  EXPECT_GT(result.stats.log_truncations, 0u)
      << "capacity 4 never truncated — the test lost its teeth";
  EXPECT_GT(result.stats.fallbacks, 0u);
}

/// Prescreen serving path: when the catalog carries a signature index
/// and queries set prescreen, the maintainer's fallback recomputes run
/// through candidate generation — identity must hold there too.
TEST(EvolveDifferentialTest, PrescreenFallbackIdentity) {
  DriftOptions drift;
  drift.base.catalog_size = 20;
  drift.base.community_size = 24;
  drift.base.eps = 2;
  drift.base.seed = testing::TestSeed(31) % 100000 + 1;
  drift.events = 60;
  drift.quiesce_every = 15;
  drift.seed = drift.base.seed * 7 + 5;
  DriftModel model(drift);

  EncodingCache cache;
  service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = 2;
  catalog_options.mutation_log_capacity = 1 << 12;
  catalog_options.signatures = SignatureOptions{};
  service::CommunityCatalog catalog(catalog_options);
  service::TopKSimilarService fresh_service(&catalog);

  DriftReplayer::Options replay;
  replay.session_join.eps = 2;
  replay.session_join.cache = &cache;
  DriftReplayer replayer(&model, &catalog, replay);

  service::TopKOptions topk;
  topk.k = 4;
  topk.join.eps = 2;
  topk.join.cache = &cache;
  topk.prescreen = true;
  topk.prescreen_threshold = 0.05;

  TopKMaintainer::Options options;
  options.service = &fresh_service;
  options.allow_fast_path = false;  // pin every refresh to the fallback
  TopKMaintainer maintainer(&catalog, options);
  const auto& pool = model.workload().communities();
  maintainer.Register(pool[1], topk);
  maintainer.RefreshAll();

  for (uint32_t e = 0; e < model.epochs(); ++e) {
    replayer.ApplyEpoch(e);
    maintainer.Refresh(0);
    const auto fresh = fresh_service.Query(*pool[1], topk);
    EXPECT_TRUE(maintainer.Ranking(0) == fresh.entries)
        << "prescreen-path divergence at epoch " << e;
  }
  const auto stats = maintainer.GetStats();
  EXPECT_EQ(stats.fast_paths, 0u);
  EXPECT_GT(stats.fallbacks, 0u);
}

/// Cold-opens the store in `dir` and restores it into a fresh catalog
/// configured like `live`; the result must deep-compare identical to
/// `live` (entries, versions, digests, MinMax artifacts, sketch layout).
void ExpectRestoresIdentical(const std::string& dir,
                             const service::CommunityCatalog& live,
                             persist::OpenStats* stats) {
  persist::StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = persist::Store::Open(options, &error, stats);
  ASSERT_NE(store, nullptr) << error;
  service::CommunityCatalog restored(live.options());
  ASSERT_TRUE(store->RestoreInto(&restored, &error, stats)) << error;
  EXPECT_EQ(restored.size(), live.size());
  EXPECT_EQ(restored.latest_version(), live.latest_version());
  EXPECT_TRUE(service::CatalogsIdentical(live, restored,
                                         live.options().warm_eps,
                                         /*threshold=*/0.1));
}

/// The drift replayer against a durable store, checkpointing the way a
/// long-running evolution driver does: seal the base catalog, log every
/// quiesced epoch, checkpoint (log attached) at some quiesce points, and
/// stop logging before the final checkpoint. A cold restore mid-run
/// (sealed segment + log tail, as after a crash) and at the end must both
/// bring back the drifted catalog byte-identically.
TEST(EvolveDifferentialTest, DriftedCatalogSurvivesCheckpointAndLogReplay) {
  DriftOptions drift;
  drift.base.catalog_size = 20;
  drift.base.community_size = 24;
  drift.base.cluster_size = 4;
  drift.base.eps = 1;
  drift.base.seed = testing::TestSeed(41) % 100000 + 1;
  drift.events = 96;
  drift.quiesce_every = 12;
  drift.seed = drift.base.seed * 7 + 5;
  DriftModel model(drift);

  EncodingCache cache;
  service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = drift.base.eps;
  catalog_options.signatures = SignatureOptions{};
  service::CommunityCatalog catalog(catalog_options);
  DriftReplayer::Options replay;
  replay.session_join.eps = drift.base.eps;
  replay.session_join.cache = &cache;
  DriftReplayer replayer(&model, &catalog, replay);

  std::string dir = ::testing::TempDir() + "csj_evolve_store_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  persist::StoreOptions store_options;
  store_options.dir = dir;
  std::string error;
  auto store = persist::Store::Open(store_options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;

  // Epochs end at quiesce points, so every epoch boundary may checkpoint;
  // the mid-run restore lands one epoch after a checkpoint, on a log tail.
  constexpr uint32_t kCheckpointEvery = 3;
  constexpr uint32_t kMidRunEpoch = 4;
  ASSERT_GT(model.epochs(), kMidRunEpoch + 1);
  uint64_t births = 0;
  uint64_t deaths = 0;
  for (uint32_t e = 0; e < model.epochs(); ++e) {
    const EpochStats epoch = replayer.ApplyEpoch(e);
    births += epoch.births;
    deaths += epoch.deaths;
    if ((e + 1) % kCheckpointEvery == 0 && e + 1 != model.epochs()) {
      ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    }
    if (e == kMidRunEpoch) {
      SCOPED_TRACE("mid-run restore");
      persist::OpenStats mid;
      ExpectRestoresIdentical(dir, catalog, &mid);
      EXPECT_GE(mid.generation, 2u) << "no mid-run checkpoint sealed";
      EXPECT_GT(mid.log_records_replayed, 0u) << "no log tail to replay";
    }
  }
  EXPECT_GT(births, 0u) << "the trace never birthed a community";
  EXPECT_GT(deaths, 0u) << "the trace never killed a community";

  store->StopLogging(&catalog);
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  SCOPED_TRACE("final restore");
  persist::OpenStats final_stats;
  ExpectRestoresIdentical(dir, catalog, &final_stats);
  EXPECT_EQ(final_stats.segment_entries, catalog.size());
}

}  // namespace
}  // namespace csj::evolve
