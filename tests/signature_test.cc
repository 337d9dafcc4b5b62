// Core tests for the prescreen signature layer: the quantile-table count
// bound and the per-couple similarity cap must be SOUND (never below the
// true count / exact similarity — this is what the serving fallback
// contract's exactness proof rests on), sketches must be bit-deterministic
// across threads, and the packed SignatureIndex must stay consistent
// through install/replace/remove churn.

#include "core/signature.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_dispatch.h"
#include "core/similarity.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj {
namespace {

Community RandomSmallCommunity(Dim d, uint32_t size, uint32_t value_range,
                               util::Rng& rng) {
  Community community(d);
  std::vector<Count> vec(d);
  for (uint32_t u = 0; u < size; ++u) {
    for (Dim k = 0; k < d; ++k) {
      vec[k] = static_cast<Count>(rng.Below(value_range));
    }
    community.AddUser(vec);
  }
  return community;
}

/// Installs one sketch: the one-element case of SignatureIndex's only
/// install entry point.
void InstallOne(SignatureIndex& index, uint64_t id, uint64_t version,
                const CommunitySignature& signature) {
  const SignatureIndex::SlotInstall slot{id, version, signature.size(),
                                         signature.table()};
  index.InstallBatch(std::span<const SignatureIndex::SlotInstall>(&slot, 1));
}

TEST(SignatureTest, CountUpperBoundDominatesTrueCount) {
  util::Rng rng(testing::TestSeed(1));
  for (uint32_t round = 0; round < 200; ++round) {
    const Dim d = 1 + static_cast<Dim>(rng.Below(4));
    const uint32_t size = 1 + static_cast<uint32_t>(rng.Below(60));
    const Community community = RandomSmallCommunity(d, size, 40, rng);
    SignatureOptions options;
    options.quantiles = 2 + static_cast<uint32_t>(rng.Below(20));
    const CommunitySignature signature(community, options);
    ASSERT_EQ(signature.size(), size);
    for (uint32_t probe = 0; probe < 20; ++probe) {
      const Dim k = static_cast<Dim>(rng.Below(d));
      const int64_t lo = static_cast<int64_t>(rng.Below(45)) - 3;
      const int64_t hi = lo + static_cast<int64_t>(rng.Below(20));
      uint32_t true_count = 0;
      for (UserId u = 0; u < size; ++u) {
        const int64_t v = community.User(u)[k];
        if (v >= lo && v <= hi) ++true_count;
      }
      const uint32_t bound = SignatureCountUpperBound(
          signature.DimTable(k), signature.size(), lo, hi);
      ASSERT_GE(bound, true_count)
          << "round " << round << " dim " << k << " range [" << lo << ","
          << hi << "]";
      ASSERT_LE(bound, size);
    }
  }
}

TEST(SignatureTest, SimilarityCapDominatesExactSimilarity) {
  // The load-bearing soundness property: for any couple, the cap
  // certified from the two sketches alone is >= the exact CSJ
  // similarity. Mix of planted (high-similarity) and unrelated couples,
  // several epsilon regimes.
  const Epsilon eps_values[] = {0, 1, 2, 8};
  util::Rng rng(testing::TestSeed(2));
  SignatureOptions options;
  uint32_t nontrivial = 0;
  for (uint32_t round = 0; round < 120; ++round) {
    data::VkLikeGenerator gen(
        static_cast<data::Category>(round % data::kNumCategories));
    const auto size_a = static_cast<uint32_t>(rng.Between(12, 30));
    const Community a = data::MakeCommunity(gen, size_a, rng);
    const Epsilon eps = eps_values[round % 4];

    Community b(gen.d());
    if (round % 2 == 0) {
      data::CoupleSpec spec;
      spec.size_b = static_cast<uint32_t>(rng.Between(10, size_a));
      spec.eps = eps;
      spec.target_similarity = 0.2 + 0.15 * static_cast<double>(round % 5);
      b = data::PlantCommunityAgainst(a, gen, spec, rng);
    } else {
      data::VkLikeGenerator other(
          static_cast<data::Category>((round + 7) % data::kNumCategories));
      b = data::MakeCommunity(other,
                              static_cast<uint32_t>(rng.Between(10, size_a)),
                              rng);
    }

    const CommunitySignature sig_a(a, options);
    const CommunitySignature sig_b(b, options);
    const std::vector<Dim> order = SignatureProbeOrder(sig_b);
    const double cap = SignatureSimilarityCap(sig_b, sig_a, eps, order);

    JoinOptions join;
    join.eps = eps;
    const auto exact =
        ComputeSimilarityAutoOrder(Method::kExMinMax, b, a, join);
    if (!exact.has_value()) continue;  // inadmissible couple: no claim
    ASSERT_GE(cap, exact->Similarity())
        << "round " << round << " eps " << eps;
    if (exact->Similarity() > 0.0) ++nontrivial;
  }
  // The property must have been exercised on couples that actually match.
  EXPECT_GT(nontrivial, 20u);
}

TEST(SignatureTest, EarlyExitNeverChangesTheVerdict) {
  util::Rng rng(testing::TestSeed(3));
  SignatureOptions options;
  for (uint32_t round = 0; round < 150; ++round) {
    data::VkLikeGenerator gen(
        static_cast<data::Category>(round % data::kNumCategories));
    data::VkLikeGenerator other(
        static_cast<data::Category>((round / 2) % data::kNumCategories));
    const Community a =
        data::MakeCommunity(gen, static_cast<uint32_t>(rng.Between(12, 40)),
                            rng);
    const Community b = data::MakeCommunity(
        other, static_cast<uint32_t>(rng.Between(12, 40)), rng);
    const CommunitySignature sig_a(a, options);
    const CommunitySignature sig_b(b, options);
    const std::vector<Dim> order = SignatureProbeOrder(sig_b);
    const double tau = 0.05 + 0.1 * static_cast<double>(round % 5);
    const double exact_cap = SignatureSimilarityCap(sig_b, sig_a, 1, order);
    const double lazy_cap =
        SignatureSimilarityCap(sig_b, sig_a, 1, order, tau);
    // Early exit may loosen the VALUE but never flips the pass/fail
    // verdict at its own threshold.
    EXPECT_EQ(exact_cap >= tau, lazy_cap >= tau) << "round " << round;
    EXPECT_GE(lazy_cap, exact_cap);
  }
}

TEST(SignatureTest, BuildIsDeterministicAcrossThreads) {
  util::Rng rng(testing::TestSeed(4));
  data::VkLikeGenerator gen(data::Category::kFoodRecipes);
  const Community community = data::MakeCommunity(gen, 80, rng);

  SignatureOptions options;
  const CommunitySignature reference(community, options);

  // Concurrent builds of the same community: bit-identical tables (no
  // hidden global state, no thread-count sensitivity).
  std::vector<std::unique_ptr<CommunitySignature>> built(8);
  std::vector<std::thread> crew;
  for (uint32_t t = 0; t < built.size(); ++t) {
    crew.emplace_back([&, t] {
      built[t] = std::make_unique<CommunitySignature>(community, options);
    });
  }
  for (std::thread& thread : crew) thread.join();
  for (const auto& signature : built) {
    ASSERT_EQ(signature->size(), reference.size());
    ASSERT_TRUE(std::equal(signature->table().begin(),
                           signature->table().end(),
                           reference.table().begin()));
  }
}

TEST(SignatureTest, ProbeOrderIsAPermutation) {
  util::Rng rng(testing::TestSeed(5));
  data::VkLikeGenerator gen(data::Category::kSport);
  const CommunitySignature signature(data::MakeCommunity(gen, 30, rng),
                                     SignatureOptions{});
  const std::vector<Dim> order = SignatureProbeOrder(signature);
  ASSERT_EQ(order.size(), signature.d());
  std::vector<bool> seen(signature.d(), false);
  for (const Dim k : order) {
    ASSERT_LT(k, signature.d());
    ASSERT_FALSE(seen[k]);
    seen[k] = true;
  }
  // Home dimensions (largest smallest-breakpoint) lead the order.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(signature.DimTable(order[i - 1])[0],
              signature.DimTable(order[i])[0]);
  }
}

TEST(SignatureIndexTest, InstallReplaceRemoveStaysConsistent) {
  // Reference-model differential: random install / replace / remove
  // churn against a std::map, checking residency through an inert probe
  // after every step. Single-threaded (the index is externally
  // synchronized; the concurrent story is the catalog's, covered in
  // prescreen_test).
  util::Rng rng(testing::TestSeed(6));
  SignatureOptions options;
  SignatureIndex index(options);
  struct Resident {
    uint64_t version = 0;
    uint32_t size = 0;
  };
  std::map<uint64_t, Resident> model;
  data::VkLikeGenerator gen(data::Category::kTourismLeisure);
  uint64_t next_version = 1;

  util::Rng query_rng(testing::TestSeed(7));
  const Community query = data::MakeCommunity(gen, 20, query_rng);
  const CommunitySignature query_signature(query, options);
  const std::vector<Dim> order = SignatureProbeOrder(query_signature);
  SignatureIndex::ProbeQuery probe;
  probe.signature = &query_signature;
  probe.eps = 1;
  probe.threshold = 0.0;
  probe.probe_order = order;
  // A threshold-0 probe examines every resident slot once and returns
  // every resident entry the size rule admits, exactly once, at its
  // current version.
  uint32_t admitted = 0;
  uint32_t inadmissible = 0;
  const auto expect_resident = [&](uint32_t step) {
    std::vector<PrescreenCandidate> candidates;
    PrescreenStats stats;
    index.Probe(probe, &candidates, &stats);
    EXPECT_EQ(stats.examined, model.size()) << "step " << step;
    EXPECT_EQ(stats.skipped_cap, 0u);  // threshold 0: the cap never rejects
    std::map<uint64_t, uint64_t> want;
    for (const auto& [id, resident] : model) {
      const uint32_t smaller = std::min(query.size(), resident.size);
      const uint32_t larger = std::max(query.size(), resident.size);
      if (SizesAdmissible(smaller, larger)) want[id] = resident.version;
    }
    std::map<uint64_t, uint64_t> got;
    for (const PrescreenCandidate& candidate : candidates) {
      EXPECT_TRUE(got.emplace(candidate.id, candidate.version).second)
          << "duplicate candidate " << candidate.id;
    }
    EXPECT_EQ(got, want) << "step " << step;
    EXPECT_EQ(stats.passed, want.size());
    EXPECT_EQ(stats.skipped_inadmissible, model.size() - want.size());
    admitted += static_cast<uint32_t>(want.size());
    inadmissible += static_cast<uint32_t>(model.size() - want.size());
  };

  for (uint32_t step = 0; step < 400; ++step) {
    const uint64_t id = 1 + rng.Below(40);
    if (rng.NextDouble() < 0.7) {
      const Community community = data::MakeCommunity(
          gen, 8 + static_cast<uint32_t>(rng.Below(24)), rng);
      const uint64_t version = next_version++;
      InstallOne(index, id, version, CommunitySignature(community, options));
      model[id] = {version, community.size()};
    } else {
      const bool removed = index.Remove(id);
      EXPECT_EQ(removed, model.erase(id) > 0) << "step " << step;
    }
    expect_resident(step);
  }
  // Both sides of the size rule were exercised.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(inadmissible, 0u);
}

TEST(SignatureIndexTest, RowsFollowSwapWithLastRemovalAndRepacking) {
  // Five ids in one pack (every user's largest counters sit in dimension
  // 0, the home). Removing a middle slot moves the last slot into it,
  // and replacing another id with a dimension-2 home moves it to another
  // pack; Row() must then still return each survivor's own table.
  util::Rng rng(testing::TestSeed(9));
  SignatureOptions options;
  options.quantiles = 4;
  SignatureIndex index(options);
  const auto make = [&](Dim home) {
    Community community(3);
    std::vector<Count> vec(3);
    const uint32_t users = 5 + static_cast<uint32_t>(rng.Below(10));
    for (uint32_t u = 0; u < users; ++u) {
      for (Dim k = 0; k < 3; ++k) {
        vec[k] = static_cast<Count>(rng.Below(20)) + (k == home ? 100 : 0);
      }
      community.AddUser(vec);
    }
    return community;
  };
  std::map<uint64_t, Community> resident;
  for (uint64_t id = 1; id <= 5; ++id) {
    resident.emplace(id, make(0));
    const CommunitySignature signature(resident.at(id), options);
    ASSERT_EQ(SignatureHomeDim(signature.table(), 4), 0u);
    InstallOne(index, id, id, signature);
  }
  EXPECT_TRUE(index.Remove(3));
  resident.erase(3);
  resident.insert_or_assign(2, make(2));
  const CommunitySignature moved(resident.at(2), options);
  ASSERT_EQ(SignatureHomeDim(moved.table(), 4), 2u);
  InstallOne(index, 2, 6, moved);

  EXPECT_TRUE(index.Row(3).empty());
  for (const auto& [id, community] : resident) {
    const CommunitySignature fresh(community, options);
    EXPECT_TRUE(std::ranges::equal(index.Row(id), fresh.table()))
        << "id " << id;
  }
}

TEST(SignatureIndexTest, DimensionalityMismatchRejectsAsAPack) {
  SignatureOptions options;
  SignatureIndex index(options);
  util::Rng rng(testing::TestSeed(8));
  // Three entries of dimensionality 5, two of dimensionality 3.
  for (uint64_t id = 1; id <= 3; ++id) {
    InstallOne(index, id, id,
               CommunitySignature(RandomSmallCommunity(5, 12, 20, rng),
                                  options));
  }
  for (uint64_t id = 4; id <= 5; ++id) {
    InstallOne(index, id, id,
               CommunitySignature(RandomSmallCommunity(3, 12, 20, rng),
                                  options));
  }
  const Community query = RandomSmallCommunity(5, 12, 20, rng);
  const CommunitySignature query_signature(query, options);
  const std::vector<Dim> order = SignatureProbeOrder(query_signature);
  SignatureIndex::ProbeQuery probe;
  probe.signature = &query_signature;
  probe.eps = 2;
  probe.threshold = 0.0;
  probe.probe_order = order;
  std::vector<PrescreenCandidate> candidates;
  PrescreenStats stats;
  index.Probe(probe, &candidates, &stats);
  EXPECT_EQ(stats.examined, 5u);
  EXPECT_EQ(stats.skipped_dim, 2u);
  for (const PrescreenCandidate& candidate : candidates) {
    EXPECT_LE(candidate.id, 3u);
  }
}

/// The CSJ_TARGET_CLONES clone the loader resolves for the sweep on this
/// host; "default" also when the build carries no clones.
const char* DispatchedClone() {
#ifdef CSJ_HAS_TARGET_CLONES
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse4.2")) return "sse4.2";
#endif
  return "default";
}

TEST(SignatureIndexTest, SweepPassesExactlyTheSlotsWhoseExactCapReachesTau) {
  // The sweep's verdict contract: a slot passes iff its exact cap (no
  // early exit) reaches tau. At 2 quantiles a row holds 3 breakpoints,
  // less than one packed block, so the sweep counts one breakpoint at a
  // time, the path builds without vector extensions take; 16 and 256
  // quantiles run the dispatched packed clone, with a ragged block and
  // with counts past a byte. Catalogs mix copies of a base profile,
  // jittered copies and unrelated entries, over dimensionalities around
  // the 16-lane block, counters at 0 and near the top of the range, and
  // eps from 0 to the whole range; tau sits on slot caps and next to them.
  // At 16 quantiles with high counters every community holds 2-15 users,
  // fewer than its breakpoints, so ranks repeat along each row.
  std::printf("[ sweep    ] dispatched clone: %s\n", DispatchedClone());
  RecordProperty("sweep_clone", DispatchedClone());
  constexpr Count kMax = std::numeric_limits<Count>::max();
  const uint32_t quantiles_values[] = {2, 16, 256};
  const Dim d_values[] = {1, 15, 16, 17, 33, 300};
  const Epsilon eps_values[] = {0, 1, kMax};
  util::Rng rng(testing::TestSeed(9));
  uint64_t passed_total = 0;
  uint64_t failed_total = 0;
  uint32_t ties = 0;
  for (const uint32_t quantiles : quantiles_values) {
    for (const Dim d : d_values) {
      for (const bool high : {false, true}) {
        // Counters in [0, 12) (mostly zeros) or in (kMax - 12, kMax].
        const auto counter = [&](Count offset) {
          const Count v = std::min<Count>(offset, 11);
          return high ? kMax - v : v;
        };
        SignatureOptions options;
        options.quantiles = quantiles;
        const uint32_t max_users = quantiles == 16 && high ? 15 : 40;
        SignatureIndex index(options);
        std::vector<Count> base(static_cast<size_t>(40) * d);
        for (Count& v : base) {
          v = counter(rng.Below(3) == 0 ? 0 : static_cast<Count>(rng.Below(8)));
        }
        struct Slot {
          uint64_t id;
          std::shared_ptr<const CommunitySignature> signature;
        };
        std::vector<Slot> slots;
        for (uint64_t id = 1; id <= 14; ++id) {
          // Sizes 2..max_users: below, at and above `quantiles`
          // breakpoints, and both admissible and inadmissible against the
          // query.
          const auto n = static_cast<uint32_t>(rng.Between(2, max_users));
          const uint32_t kind = static_cast<uint32_t>(id % 3);
          std::vector<Count> flat(static_cast<size_t>(n) * d);
          for (size_t i = 0; i < flat.size(); ++i) {
            const Count offset = high ? kMax - base[i] : base[i];
            if (kind == 0) {
              flat[i] = base[i];  // a copy of the base rows
            } else if (kind == 1) {
              flat[i] = counter(offset + static_cast<Count>(rng.Below(3)));
            } else {
              flat[i] = counter(static_cast<Count>(rng.Below(12)));
            }
          }
          auto signature = std::make_shared<const CommunitySignature>(
              Community(d, std::move(flat)), options);
          slots.push_back({id, signature});
          InstallOne(index, id, id, *signature);
        }
        for (const Epsilon eps : eps_values) {
          const auto query_n =
              static_cast<uint32_t>(rng.Between(3, max_users));
          const Community query(
              d, std::vector<Count>(base.begin(),
                                    base.begin() +
                                        static_cast<ptrdiff_t>(query_n) * d));
          const CommunitySignature query_signature(query, options);
          const std::vector<Dim> order = SignatureProbeOrder(query_signature);
          // Exact caps of the admissible slots; tau lands on each of a
          // few caps, just below and just above one, and at 0.
          std::map<uint64_t, double> caps;
          for (const Slot& slot : slots) {
            const uint32_t smaller =
                std::min(query.size(), slot.signature->size());
            const uint32_t larger =
                std::max(query.size(), slot.signature->size());
            if (!SizesAdmissible(smaller, larger)) continue;
            caps[slot.id] = SignatureSimilarityCap(
                query_signature, *slot.signature, eps, order);
          }
          std::vector<double> taus = {0.0, 0.10};
          for (const auto& [id, cap] : caps) {
            if (taus.size() < 6) taus.push_back(cap);
          }
          if (!caps.empty()) {
            const double cap = caps.begin()->second;
            taus.push_back(std::nextafter(cap, 0.0));
            taus.push_back(std::nextafter(cap, 2.0));
          }
          for (const double tau : taus) {
            std::set<uint64_t> want;
            for (const auto& [id, cap] : caps) {
              if (cap >= tau) want.insert(id);
              ties += cap == tau && tau > 0.0 ? 1u : 0u;
            }
            SignatureIndex::ProbeQuery probe;
            probe.signature = &query_signature;
            probe.eps = eps;
            probe.threshold = tau;
            probe.probe_order = order;
            std::vector<PrescreenCandidate> candidates;
            PrescreenStats stats;
            index.Probe(probe, &candidates, &stats);
            std::set<uint64_t> got;
            for (const PrescreenCandidate& candidate : candidates) {
              got.insert(candidate.id);
            }
            ASSERT_EQ(got, want)
                << "quantiles " << quantiles << " d " << d << " high "
                << high << " eps " << eps << " tau " << tau;
            EXPECT_EQ(stats.passed, want.size());
            EXPECT_EQ(stats.examined, slots.size());
            EXPECT_EQ(stats.passed + stats.skipped_cap +
                          stats.skipped_inadmissible,
                      stats.examined);
            passed_total += want.size();
            failed_total += caps.size() - want.size();
          }
        }
      }
    }
  }
  // Both verdicts, and slots sitting exactly on tau, were exercised.
  EXPECT_GT(passed_total, 100u);
  EXPECT_GT(failed_total, 100u);
  EXPECT_GT(ties, 100u);

  // A cap of 7/25 at tau = 7/25, where the product tau * 25 rounds above
  // 7: a verdict taken as `ub < tau * bn` instead of `ub / bn < tau`
  // would dismiss a slot that reaches tau, in the sweep's first stage or
  // in the cap's early exit. At 256 quantiles over 25 users every value
  // is a breakpoint, so the cap is the exact count: all 25 query users
  // lie in the entry's span, 7 entry users in the query's.
  ASSERT_GT(7.0 / 25.0 * 25.0, 7.0);
  SignatureOptions options;
  options.quantiles = 256;
  std::vector<Count> query_flat;
  std::vector<Count> entry_flat;
  for (Count u = 0; u < 25; ++u) {
    query_flat.push_back(10 * u);
    entry_flat.push_back(u < 7 ? 10 * u : 1000 + u);
  }
  const CommunitySignature query_signature(Community(1, query_flat), options);
  const CommunitySignature entry_signature(Community(1, entry_flat), options);
  SignatureIndex index(options);
  InstallOne(index, 1, 1, entry_signature);
  const std::vector<Dim> order = SignatureProbeOrder(query_signature);
  const double cap =
      SignatureSimilarityCap(query_signature, entry_signature, 0, order);
  ASSERT_EQ(cap, 7.0 / 25.0);
  // The cap's early exit at tau = 7/25 must not stop on a running cap of
  // 7/25 either: in two dimensions, the first probed one reaching 7 entry
  // users and the second 6, the exact cap is 6/25 and fails that tau.
  std::vector<Count> query_flat2;
  std::vector<Count> entry_flat2;
  for (Count u = 0; u < 25; ++u) {
    query_flat2.insert(query_flat2.end(), {5000 + 10 * u, 10 * u});
    entry_flat2.insert(entry_flat2.end(), {u < 7 ? 5000 + 10 * u : 9000 + u,
                                           u < 6 ? 10 * u : 1000 + u});
  }
  const CommunitySignature query2(Community(2, query_flat2), options);
  const CommunitySignature entry2(Community(2, entry_flat2), options);
  const std::vector<Dim> order2 = SignatureProbeOrder(query2);
  ASSERT_EQ(order2.front(), 0u);
  EXPECT_EQ(SignatureSimilarityCap(query2, entry2, 0, order2), 6.0 / 25.0);
  EXPECT_EQ(SignatureSimilarityCap(query2, entry2, 0, order2, cap),
            6.0 / 25.0);
  SignatureIndex::ProbeQuery probe;
  probe.signature = &query_signature;
  probe.eps = 0;
  probe.threshold = cap;
  probe.probe_order = order;
  std::vector<PrescreenCandidate> candidates;
  PrescreenStats stats;
  index.Probe(probe, &candidates, &stats);
  EXPECT_EQ(stats.passed, 1u);
}

}  // namespace
}  // namespace csj
