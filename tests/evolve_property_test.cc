// Metamorphic properties of the evolution subsystem. Rather than pin
// absolute values, each test perturbs a drift stream in a way whose
// effect is known a priori — an inverse pair restores, a no-op fires
// nothing, a reordering commutes — and asserts the maintained world
// honors it exactly.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/community.h"
#include "core/encoding_cache.h"
#include "evolve/drift.h"
#include "evolve/maintainer.h"
#include "incremental/incremental_csj.h"
#include "service/catalog.h"
#include "service/topk.h"
#include "test_seed.h"

namespace csj::evolve {
namespace {

/// A drift world wired end to end: seeded base catalog, replayer,
/// maintainer with one registered query. The model's own trace is along
/// for the ride — property tests inject handcrafted events instead.
struct World {
  explicit World(uint64_t seed, Epsilon eps = 1, uint32_t k = 5) {
    DriftOptions drift;
    drift.base.catalog_size = 12;
    drift.base.community_size = 24;
    drift.base.cluster_size = 4;
    drift.base.eps = eps;
    drift.base.seed = seed;
    drift.events = 60;
    drift.quiesce_every = 15;
    drift.seed = seed * 7 + 5;
    model = std::make_unique<DriftModel>(drift);

    service::CommunityCatalog::Options catalog_options;
    catalog_options.warm_eps = eps;
    catalog_options.mutation_log_capacity = 1 << 14;
    catalog = std::make_unique<service::CommunityCatalog>(catalog_options);
    service = std::make_unique<service::TopKSimilarService>(catalog.get());

    DriftReplayer::Options replay;
    replay.session_join.eps = eps;
    replay.session_join.cache = &cache;
    replayer =
        std::make_unique<DriftReplayer>(model.get(), catalog.get(), replay);

    topk.k = k;
    topk.join.eps = eps;
    topk.join.cache = &cache;
    TopKMaintainer::Options options;
    options.service = service.get();
    maintainer = std::make_unique<TopKMaintainer>(catalog.get(), options);
    maintainer->Register(model->workload().communities()[0], topk);
    maintainer->RefreshAll();
  }

  /// Ranked (id, similarity) projection of the maintained ranking —
  /// trigger semantics (versions excluded).
  std::vector<std::pair<uint64_t, double>> Meaning() const {
    std::vector<std::pair<uint64_t, double>> out;
    for (const auto& entry : maintainer->Ranking(0)) {
      out.emplace_back(entry.id, entry.similarity);
    }
    return out;
  }

  EncodingCache cache;
  std::unique_ptr<DriftModel> model;
  std::unique_ptr<service::CommunityCatalog> catalog;
  std::unique_ptr<service::TopKSimilarService> service;
  std::unique_ptr<DriftReplayer> replayer;
  std::unique_ptr<TopKMaintainer> maintainer;
  service::TopKOptions topk;
};

DriftEvent Join(uint64_t id, uint64_t key, std::vector<Count> vec) {
  DriftEvent event;
  event.kind = DriftEventKind::kUserJoin;
  event.community_id = id;
  event.user_key = key;
  event.user = std::move(vec);
  return event;
}

DriftEvent Leave(uint64_t id, uint64_t key) {
  DriftEvent event;
  event.kind = DriftEventKind::kUserLeave;
  event.community_id = id;
  event.user_key = key;
  return event;
}

DriftEvent Decay(uint64_t id, double factor) {
  DriftEvent event;
  event.kind = DriftEventKind::kDecay;
  event.community_id = id;
  event.decay_factor = factor;
  return event;
}

/// Joining a user and then removing the SAME user (one quiesce apart) is
/// an inverse pair: the community's counter bytes and the maintained
/// ranking's meaning must come back exactly, and the two refreshes must
/// agree on whether anything ever changed (if the join fired a trigger,
/// the leave must fire the one that undoes it).
TEST(EvolvePropertyTest, AddThenRemoveRestoresRanking) {
  World world(testing::TestSeed(1) % 100000 + 1);
  const uint64_t target = 2;  // a planted member, id 2 <- communities()[1]
  const auto before_span = world.replayer->LiveSnapshot(target)->flat();
  const std::vector<Count> before_bytes(before_span.begin(), before_span.end());
  const auto before_meaning = world.Meaning();
  const uint64_t before_triggers = world.maintainer->trigger_count(0);

  // A user close to the query pivot, so the join plausibly moves the
  // ranking (the property holds either way).
  const auto& pivot = *world.model->workload().communities()[0];
  std::vector<Count> user(pivot.User(0).begin(), pivot.User(0).end());

  std::vector<DriftEvent> add = {Join(target, 1'000'000, user)};
  world.replayer->Apply(add);
  world.replayer->Quiesce();
  const auto join_outcome = world.maintainer->Refresh(0);
  EXPECT_TRUE(world.maintainer->Ranking(0) ==
              world.service->Query(pivot, world.topk).entries);

  std::vector<DriftEvent> remove = {Leave(target, 1'000'000)};
  world.replayer->Apply(remove);
  world.replayer->Quiesce();
  const auto leave_outcome = world.maintainer->Refresh(0);

  EXPECT_TRUE(std::ranges::equal(
      world.replayer->LiveSnapshot(target)->flat(), before_bytes))
      << "community counters not restored by the inverse pair";
  EXPECT_TRUE(std::ranges::equal(world.catalog->Get(target).community->flat(),
                                 before_bytes));
  EXPECT_EQ(world.Meaning(), before_meaning)
      << "ranking meaning not restored by the inverse pair";
  EXPECT_TRUE(world.maintainer->Ranking(0) ==
              world.service->Query(pivot, world.topk).entries);
  EXPECT_EQ(join_outcome.changed, leave_outcome.changed)
      << "an unmatched trigger across an inverse pair";
  const uint64_t fired = world.maintainer->trigger_count(0) - before_triggers;
  EXPECT_TRUE(fired == 0 || fired == 2) << "fired " << fired;
}

/// Decay with factor 1.0 moves no counter: it must install nothing, mint
/// no version, consume no mutation-log records, and fire no trigger —
/// the maintained world cannot tell it happened.
TEST(EvolvePropertyTest, NoopDecayFiresNothing) {
  World world(testing::TestSeed(2) % 100000 + 1);
  const uint64_t seq_before = world.catalog->mutation_seq();
  const auto version_before = world.catalog->Get(3).version;
  const uint64_t triggers_before = world.maintainer->trigger_count(0);

  std::vector<DriftEvent> events = {Decay(3, 1.0)};
  world.replayer->Apply(events);
  const EpochStats stats = world.replayer->Quiesce();

  EXPECT_EQ(stats.noop_decays, 1u);
  EXPECT_EQ(stats.installs, 0u);
  EXPECT_EQ(world.catalog->mutation_seq(), seq_before);
  EXPECT_EQ(world.catalog->Get(3).version, version_before);

  const auto outcome = world.maintainer->Refresh(0);
  EXPECT_FALSE(outcome.changed);
  EXPECT_EQ(outcome.records_consumed, 0u);
  EXPECT_EQ(world.maintainer->trigger_count(0), triggers_before);
}

/// Events within one community that touch DISTINCT user keys commute:
/// any order produces the same installed bytes, the same versions, and
/// the same maintained ranking at the quiesce point. (Keyed membership
/// makes this true by construction; the test pins it stays true.)
TEST(EvolvePropertyTest, EventPermutationCommutesAtQuiesce) {
  const uint64_t seed = testing::TestSeed(3) % 100000 + 1;
  World a(seed);
  World b(seed);
  const uint64_t target = 2;
  const auto& pool = a.model->workload().communities();
  std::vector<Count> u1(pool[2]->User(0).begin(), pool[2]->User(0).end());
  std::vector<Count> u2(pool[3]->User(1).begin(), pool[3]->User(1).end());

  std::vector<DriftEvent> order1 = {Join(target, 1'000'000, u1),
                                    Leave(target, 0),
                                    Join(target, 1'000'001, u2)};
  std::vector<DriftEvent> order2 = {Join(target, 1'000'001, u2),
                                    Join(target, 1'000'000, u1),
                                    Leave(target, 0)};
  a.replayer->Apply(order1);
  a.replayer->Quiesce();
  b.replayer->Apply(order2);
  b.replayer->Quiesce();

  EXPECT_TRUE(std::ranges::equal(a.catalog->Get(target).community->flat(),
                                 b.catalog->Get(target).community->flat()))
      << "permuted event order changed the installed bytes";
  EXPECT_EQ(a.catalog->Get(target).version, b.catalog->Get(target).version);
  EXPECT_EQ(a.catalog->mutation_seq(), b.catalog->mutation_seq());

  a.maintainer->Refresh(0);
  b.maintainer->Refresh(0);
  EXPECT_TRUE(a.maintainer->Ranking(0) == b.maintainer->Ranking(0))
      << "permuted event order changed the maintained ranking";
}

/// The replayer's live anchor sessions stay EXACT through churn: after
/// every quiesce, a from-scratch IncrementalCsj over (pinned anchor
/// snapshot, current live membership) reports the same matching and the
/// same similarity bits as the incrementally maintained session.
TEST(EvolvePropertyTest, AnchorSessionsMatchFreshIncremental) {
  World world(testing::TestSeed(4) % 100000 + 1, /*eps=*/2);
  uint32_t sessions_checked = 0;
  for (uint32_t e = 0; e < world.model->epochs(); ++e) {
    world.replayer->ApplyEpoch(e);
    for (const uint64_t id : world.replayer->live_ids()) {
      const service::LiveCoupleSession* session = world.replayer->session(id);
      if (session == nullptr) continue;
      const auto live = world.replayer->LiveSnapshot(id);
      ASSERT_NE(live, nullptr);
      JoinOptions join;
      join.eps = 2;
      join.cache = &world.cache;
      incremental::IncrementalCsj fresh(*session->entry().community, join);
      for (UserId u = 0; u < live->size(); ++u) fresh.AddUser(live->User(u));
      EXPECT_EQ(fresh.matched_pairs(), session->matched_pairs())
          << "session drifted from exact at id " << id << ", epoch " << e;
      EXPECT_EQ(fresh.live_users(), session->live_subscribers());
      EXPECT_DOUBLE_EQ(fresh.Similarity(), session->Similarity());
      ++sessions_checked;
    }
  }
  EXPECT_GT(sessions_checked, 0u) << "no live session was ever attached";
}

}  // namespace
}  // namespace csj::evolve
