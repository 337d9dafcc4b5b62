#include "service/topk.h"

#include <algorithm>
#include <set>
#include <utility>

#include "core/minmax.h"
#include "core/similarity.h"
#include "pipeline/screening.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::service {

namespace {

/// One admissible candidate of the walk.
struct Candidate {
  uint32_t snapshot_index = 0;
  double bound = 0.0;
};

/// The top-k order: similarity descending, id ascending. A strict weak
/// ordering over (similarity, id), so the running top-k set is unique —
/// no two entries share an id within one snapshot.
struct RankedLess {
  bool operator()(const TopKEntry& x, const TopKEntry& y) const {
    if (x.similarity != y.similarity) return x.similarity > y.similarity;
    return x.id < y.id;
  }
};

bool DeadlinePassed(const std::optional<Deadline>& deadline) {
  return deadline.has_value() &&
         std::chrono::steady_clock::now() >= *deadline;
}

}  // namespace

CoupleScorer::CoupleScorer(const CommunityCatalog& catalog,
                           const Community& query, const TopKOptions& options)
    : catalog_(catalog),
      query_(query),
      method_(options.method),
      reach_(query, options.join.eps) {
  const CommunityCatalog::Options& warm = catalog.options();
  const bool minmax =
      method_ == Method::kExMinMax || method_ == Method::kApMinMax;
  if (query.empty() || !minmax || options.join.event_log != nullptr ||
      options.join.eps != warm.warm_eps) {
    return;
  }
  const Encoder encoder(query.d(), options.join.eps,
                        options.join.encoding_parts);
  // Entries of the query's dimensionality hold warm_parts clamped to it.
  if (encoder.parts() != Encoder(query.d(), warm.warm_eps, warm.warm_parts)
                             .parts()) {
    return;
  }
  query_b_.emplace(query, encoder);
  query_a_.emplace(query, encoder);
}

CoupleScorer::Couple CoupleScorer::Orient(const CatalogEntry& entry) const {
  const Community& other = *entry.community;
  const bool query_is_b = query_.size() <= other.size();
  return Couple{query_is_b ? &query_ : &other, query_is_b ? &other : &query_,
                query_is_b};
}

bool CoupleScorer::Admissible(const CatalogEntry& entry) const {
  if (entry.community->d() != query_.d()) return false;
  const Couple couple = Orient(entry);
  return SizesAdmissible(couple.b->size(), couple.a->size());
}

double CoupleScorer::Bound(const CatalogEntry& entry) const {
  const uint32_t size_b = Orient(entry).b->size();
  if (size_b == 0) return 0.0;  // also every couple of an empty query
  // Every matched entry user is reachable, and matched <= |B|; the same
  // division as JoinResult::Similarity keeps the bound above it bit for
  // bit.
  const uint32_t reachable =
      std::min(reach_.CountReachable(*entry.community), size_b);
  return static_cast<double>(reachable) / static_cast<double>(size_b);
}

double CoupleScorer::Refine(const CatalogEntry& entry,
                            const JoinOptions& join) const {
  const Couple couple = Orient(entry);
  if (query_b_.has_value()) {
    // The pinned entry's artifacts: resident, published by this refine
    // on first touch, or built for a community the catalog no longer
    // holds at this version.
    const std::shared_ptr<const EntryEncodings> encodings =
        catalog_.EncodingsAt(entry);
    const EncodedB& encd_b =
        couple.query_is_b ? *query_b_ : *encodings->encoded_b;
    const EncodedA& encd_a =
        couple.query_is_b ? *encodings->encoded_a : *query_a_;
    const JoinResult result =
        method_ == Method::kExMinMax
            ? ExMinMaxJoin(*couple.b, *couple.a, encd_b, encd_a, join)
            : ApMinMaxJoin(*couple.b, *couple.a, encd_b, encd_a, join);
    return result.Similarity();
  }
  const auto result = ComputeSimilarity(method_, *couple.b, *couple.a, join);
  CSJ_CHECK(result.has_value());  // callers refine admissible couples only
  return result->Similarity();
}

TopKSimilarService::TopKSimilarService(const CommunityCatalog* catalog)
    : catalog_(catalog) {
  CSJ_CHECK(catalog != nullptr);
}

TopKResult TopKSimilarService::Query(
    const Community& query, const TopKOptions& options,
    const std::optional<Deadline>& deadline) const {
  const CoupleScorer scorer(*catalog_, query, options);
  // Prescreen is inert — a plain scan — without a signature index or for
  // an empty query (which cannot be sketched and matches nothing anyway).
  if (options.prescreen && catalog_->signature_options() != nullptr &&
      !query.empty()) {
    return QueryPrescreen(scorer, query, options, deadline);
  }
  return Walk(scorer, query, catalog_->Snapshot(), options, deadline);
}

TopKResult TopKSimilarService::QueryPrescreen(
    const CoupleScorer& scorer, const Community& query,
    const TopKOptions& options,
    const std::optional<Deadline>& deadline) const {
  util::Timer prescreen_timer;
  const CommunitySignature query_signature(query,
                                           *catalog_->signature_options());
  const std::vector<Dim> probe_order = SignatureProbeOrder(query_signature);
  const double tau = options.prescreen_threshold;
  const CommunityCatalog::ProbeResult probe = catalog_->ProbeCandidates(
      query_signature, probe_order, options.join.eps, tau);
  const double prescreen_seconds = prescreen_timer.Seconds();

  TopKResult result =
      Walk(scorer, query, probe.candidates, options, deadline);
  result.stats.prescreen_probed = static_cast<uint32_t>(probe.stats.passed);
  result.stats.prescreen_skipped =
      static_cast<uint32_t>(probe.stats.examined - probe.stats.passed);
  result.stats.prescreen_packs_skipped =
      static_cast<uint32_t>(probe.stats.packs_skipped);
  result.stats.prescreen_seconds = prescreen_seconds;

  // Certification: every swept-away entry has similarity < tau (the cap
  // is a proven upper bound), so the candidate-only top-k equals the
  // exhaustive one iff k results exist with the k-th at or above tau —
  // nothing skipped can then displace or tie into the ranking. Anything
  // less certifies nothing and triggers the exhaustive fallback. A probe
  // that skipped nothing by cap has nothing to fall back FOR: slots of
  // another dimensionality or an inadmissible size are inadmissible to
  // the scan too. And a deadline blown on the candidate walk returns the
  // flagged partial as a scan query would.
  const uint32_t k = std::max(options.k, 1u);
  const bool certified = result.entries.size() >= k &&
                         result.entries.back().similarity >= tau;
  if (certified || result.deadline_expired || probe.stats.skipped_cap == 0) {
    result.stats.catalog_entries =
        static_cast<uint32_t>(probe.stats.examined);
    return result;
  }

  TopKResult full =
      Walk(scorer, query, catalog_->Snapshot(), options, deadline);
  // Honest accounting: the fallback's totals include the candidate-phase
  // work that preceded it.
  full.stats.refined += result.stats.refined;
  full.stats.waves += result.stats.waves;
  full.stats.bound_seconds += result.stats.bound_seconds;
  full.stats.refine_seconds += result.stats.refine_seconds;
  full.stats.prescreen_probed = result.stats.prescreen_probed;
  full.stats.prescreen_skipped = result.stats.prescreen_skipped;
  full.stats.prescreen_packs_skipped = result.stats.prescreen_packs_skipped;
  full.stats.prescreen_seconds = prescreen_seconds;
  full.stats.fallback = 1;
  return full;
}

TopKResult TopKSimilarService::Walk(
    const CoupleScorer& scorer, const Community& query,
    const std::vector<CatalogEntry>& snapshot, const TopKOptions& options,
    const std::optional<Deadline>& deadline) const {
  TopKResult result;
  result.stats.catalog_entries = static_cast<uint32_t>(snapshot.size());
  const uint32_t k = std::max(options.k, 1u);

  // An empty query is a QUERY invariant, not a per-entry condition: an
  // empty B matches nothing, so every couple is inadmissible. Resolve it
  // once here (same counter totals as the old per-entry accounting)
  // instead of re-testing it on every snapshot entry.
  if (query.empty()) {
    result.stats.inadmissible = result.stats.catalog_entries;
    return result;
  }

  util::ThreadPool& pool = options.join.pool != nullptr
                               ? *options.join.pool
                               : util::ThreadPool::Global();
  const uint32_t threads =
      std::max(1u, std::min(options.query_threads, pool.threads()));

  // Phase 1: orientation + admissibility + batched bounds. Couples are
  // enumerated in snapshot (ascending-id) order; slot-per-index keeps the
  // bound vector deterministic for any thread count.
  util::Timer bound_timer;
  std::vector<uint32_t> admissible;
  for (uint32_t i = 0; i < snapshot.size(); ++i) {
    CSJ_CHECK(snapshot[i].community != nullptr);
    if (!scorer.Admissible(snapshot[i])) {
      ++result.stats.inadmissible;
      continue;
    }
    admissible.push_back(i);
  }
  result.stats.admissible = static_cast<uint32_t>(admissible.size());

  const auto tasks = static_cast<uint32_t>(admissible.size());
  std::vector<double> bounds(tasks);
  const auto bound_one = [&](uint32_t c) {
    // Candidates are scattered over the heap: start the next one's rows,
    // and the one after's community header, while this one counts.
    if (c + 1 < tasks) {
      DimensionReach::Prefetch(*snapshot[admissible[c + 1]].community);
    }
    if (c + 2 < tasks) {
      __builtin_prefetch(snapshot[admissible[c + 2]].community.get());
    }
    bounds[c] = scorer.Bound(snapshot[admissible[c]]);
  };
  if (threads > 1 && tasks > 1) {
    pool.Run(tasks, bound_one, threads);
  } else {
    for (uint32_t c = 0; c < tasks; ++c) bound_one(c);
  }

  // Walk order: bound descending, id ascending (snapshot order is
  // ascending id, so a stable sort on the bound alone would do — the
  // explicit tie-break documents the contract).
  std::vector<Candidate> candidates(admissible.size());
  for (uint32_t c = 0; c < admissible.size(); ++c) {
    candidates[c] = Candidate{admissible[c], bounds[c]};
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& x, const Candidate& y) {
              if (x.bound != y.bound) return x.bound > y.bound;
              return snapshot[x.snapshot_index].id <
                     snapshot[y.snapshot_index].id;
            });
  result.stats.bound_seconds = bound_timer.Seconds();

  if (DeadlinePassed(deadline)) {
    result.deadline_expired = true;
    return result;
  }

  // Phase 2: refine waves of `threads` joins, best bound first, cutoff
  // between waves.
  util::Timer refine_timer;
  // The intra-join budget mirrors the pipeline's rule: with up to
  // `threads` joins in flight per wave, each join gets its fair share of
  // the pool (the whole pool when the wave is a single giant couple).
  JoinOptions join = options.join;
  join.pool = &pool;
  std::set<TopKEntry, RankedLess> best;
  std::vector<TopKEntry> wave_results;

  uint32_t next = 0;
  while (next < candidates.size()) {
    if (DeadlinePassed(deadline)) {
      result.deadline_expired = true;
      break;
    }
    if (options.use_bound_cutoff && best.size() >= k &&
        candidates[next].bound < std::prev(best.end())->similarity) {
      // Every remaining candidate c has similarity <= bound(c) <=
      // bound(next) < kth similarity: strictly below k refined entries,
      // hence outside the top-k under any tie-break. Stop.
      result.stats.bound_skipped =
          static_cast<uint32_t>(candidates.size() - next);
      break;
    }

    const uint32_t wave_end =
        std::min(next + threads, static_cast<uint32_t>(candidates.size()));
    const uint32_t wave = wave_end - next;
    ++result.stats.waves;
    wave_results.assign(wave, TopKEntry{});

    std::vector<std::pair<const Community*, const Community*>> wave_couples;
    wave_couples.reserve(wave);
    for (uint32_t w = 0; w < wave; ++w) {
      const CoupleScorer::Couple couple =
          scorer.Orient(snapshot[candidates[next + w].snapshot_index]);
      wave_couples.emplace_back(couple.b, couple.a);
    }
    JoinOptions wave_join = join;
    wave_join.join_threads = pipeline::NestedJoinThreads(
        join.join_threads, threads, pool.threads(), wave);
    wave_join.matching_threads = pipeline::NestedJoinThreads(
        join.matching_threads, threads, pool.threads(), wave);

    const auto refine_one = [&](uint32_t w) {
      const CatalogEntry& entry =
          snapshot[candidates[next + w].snapshot_index];
      // Admissibility was checked in phase 1.
      wave_results[w] = TopKEntry{entry.id, entry.version,
                                  scorer.Refine(entry, wave_join)};
    };
    if (threads > 1 && wave > 1) {
      // Cost-aware order inside the wave: the pool claims tasks in the
      // given sequence, so most-expensive-first keeps a skewed giant from
      // landing last and serializing the wave's tail.
      const std::vector<uint32_t> order =
          pipeline::CostAwareOrder(wave_couples);
      pool.Run(wave, [&](uint32_t t) { refine_one(order[t]); }, threads);
    } else {
      for (uint32_t w = 0; w < wave; ++w) refine_one(w);
    }

    // Merge in wave (bound) order — deterministic for any thread count.
    for (const TopKEntry& refined : wave_results) {
      best.insert(refined);
      if (best.size() > k) best.erase(std::prev(best.end()));
    }
    result.stats.refined += wave;
    next = wave_end;
  }
  result.stats.refine_seconds = refine_timer.Seconds();

  result.entries.assign(best.begin(), best.end());
  return result;
}

}  // namespace csj::service
