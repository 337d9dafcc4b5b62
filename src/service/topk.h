#ifndef CSJ_SERVICE_TOPK_H_
#define CSJ_SERVICE_TOPK_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/community.h"
#include "core/dimension_reach.h"
#include "core/encoding.h"
#include "core/join_options.h"
#include "core/method.h"
#include "service/catalog.h"

namespace csj::service {

/// Deadline for one request, as a steady-clock point. Checked BETWEEN
/// phases (never inside a join): admission -> bound phase -> each refine
/// batch. A request that blows its deadline returns what it has, flagged.
using Deadline = std::chrono::steady_clock::time_point;

struct TopKOptions {
  /// Result size; clamped to >= 1.
  uint32_t k = 10;

  /// Method used to refine survivors. The walk's bound dominates every
  /// method's similarity (each returns disjoint eps-matched pairs), so
  /// the cutoff equals the exhaustive walk under any of them; the wire
  /// protocol still admits exact methods only.
  Method method = Method::kExMinMax;

  /// Join parameters (eps, parts, matcher, cache...). With eps and parts
  /// equal to the catalog's warm parameters, MinMax couples are served
  /// from the entries' own encodings (see CoupleScorer); `join.cache`
  /// serves every other couple's per-community preparation. `join.pool`
  /// (null = ThreadPool::Global()) runs the bound phase, the refine waves
  /// and each join's chunks.
  JoinOptions join;

  /// The best-bound-first cutoff walk. false refines every admissible
  /// entry — the exhaustive oracle arm the differential test compares
  /// against; results are identical either way, only work differs.
  bool use_bound_cutoff = true;

  /// Threads applied WITHIN this query (bound phase + each refine wave).
  /// 1 = fully inline, no pool interaction — a server running many
  /// concurrent requests gets its parallelism across requests instead.
  /// A refine wave executes as many exact joins as threads are applied,
  /// as pool tasks in cost-aware (most-expensive-first) order; between
  /// waves the cutoff re-checks. A serial query is therefore the classic
  /// one-at-a-time walk with the tightest possible cutoff; results never
  /// depend on the wave size.
  uint32_t query_threads = 1;

  /// Sub-linear candidate generation: sketch the query, sweep the
  /// catalog's SignatureIndex, and feed ONLY the entries whose certified
  /// similarity cap reaches `prescreen_threshold` into the bound+refine
  /// walk above. Results stay byte-identical to the exhaustive scan (see
  /// the fallback contract in docs/API.md): skipped entries are PROVEN
  /// below the threshold, and whenever the refined candidates cannot
  /// certify a full top-k (fewer than k results, or a k-th similarity
  /// below the threshold) the query transparently falls back to the
  /// exhaustive scan. Inert — silently a plain scan — when the catalog
  /// has no signature index or the query is empty.
  bool prescreen = false;

  /// The prescreen admission threshold tau. Larger values skip more of
  /// the catalog but fall back whenever the true k-th similarity lands
  /// below tau; <= 0 admits every entry (prescreen does nothing but add
  /// sweep overhead). 0.10 suits the serving workload's "related
  /// community" regime.
  double prescreen_threshold = 0.10;
};

/// One ranked result: a catalog entry and its EXACT similarity to the
/// query under the auto-ordered couple (smaller side plays B).
struct TopKEntry {
  uint64_t id = 0;
  uint64_t version = 0;
  double similarity = 0.0;

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

struct TopKQueryStats {
  /// Entries the query was answered against: the snapshot size, or, for
  /// a prescreen query, the index slots examined by the sweep (the whole
  /// resident catalog). After a fallback: the fallback snapshot size.
  uint32_t catalog_entries = 0;
  uint32_t admissible = 0;  ///< couples passing the CSJ size rule
  uint32_t inadmissible = 0;
  uint32_t refined = 0;        ///< exact joins actually executed
  uint32_t bound_skipped = 0;  ///< admissible entries the cutoff pruned
  uint32_t waves = 0;          ///< refine waves executed
  double bound_seconds = 0.0;  ///< wall-clock of the bound phase
  double refine_seconds = 0.0; ///< wall-clock of all refine waves

  /// Prescreen accounting (all zero for scan-mode queries). Invariants
  /// for a prescreen query: prescreen_probed + prescreen_skipped ==
  /// slots examined, and (before any fallback) admissible + inadmissible
  /// == prescreen_probed — the exact phases only ever saw the probed
  /// candidates.
  uint32_t prescreen_probed = 0;   ///< entries admitted to the exact path
  uint32_t prescreen_skipped = 0;  ///< entries the sweep certified away
  /// Whole index packs the sweep dismissed from their coarse summaries
  /// alone (their slots are part of prescreen_skipped).
  uint32_t prescreen_packs_skipped = 0;
  uint32_t fallback = 0;           ///< 1 when the exhaustive fallback ran
  double prescreen_seconds = 0.0;  ///< query sketch + index sweep wall
};

struct TopKResult {
  /// At most k entries, ranked by (similarity desc, id asc) — the total
  /// order the cutoff proof and the differential test are stated in.
  std::vector<TopKEntry> entries;
  TopKQueryStats stats;
  /// The deadline expired between phases; `entries` ranks only what was
  /// refined so far (a valid lower-bound answer, not the exact top-k).
  bool deadline_expired = false;
};

/// Scores one query's couples against catalog entries: the one place the
/// top-k walk and the standing-query maintainer (evolve/maintainer.h)
/// orient, bound and refine a couple.
///
/// The BOUND comes from a DimensionReach built once, at construction, for
/// any method: a couple is bounded by
/// min(CountReachable(entry), |B|) / |B|, the entry users lying within
/// eps of some query user in every dimension (core/dimension_reach.h).
/// It dominates every method's similarity, bit for bit and in both
/// orientations, and it is the same whether or not the entry carries
/// artifacts.
///
/// The REFINE of a MinMax couple runs the join kernel on the query's
/// encodings (built once, at construction, as both an EncodedB and an
/// EncodedA) and the entry's artifacts: no digest, no cache lookup and no
/// encoding per couple. That ENTRY-ARTIFACT path serves every couple
/// whose method is Ex-MinMax or Ap-MinMax when `join.eps` equals the
/// catalog's warm_eps, the clamped part counts of `join.encoding_parts`
/// and warm_parts agree, and no EventLog is attached; every resident
/// entry carries artifacts (CatalogEntry::encodings). Refine is the one
/// place that fetches them for a probe head (an entry without artifacts,
/// see CommunityCatalog::ProbeResult): CommunityCatalog::EncodingsAt
/// hands it the resident entry's artifacts while that entry still has
/// the head's version. Every other couple — a non-MinMax method, another
/// eps or part count, an event log, a head whose entry was replaced or
/// removed since the probe (its pinned community is refined), or a
/// synthetic entry the catalog does not hold — refines through
/// ComputeSimilarity (which goes through `join.cache` when set). Both
/// paths yield the same similarity bits, so which one runs never changes
/// a ranking or a walk counter. Const and thread-safe once built.
class CoupleScorer {
 public:
  /// `catalog` and `query` must outlive the scorer.
  CoupleScorer(const CommunityCatalog& catalog, const Community& query,
               const TopKOptions& options);

  /// The couple by the auto-order rule: the smaller side plays B and the
  /// query wins ties, matching ComputeSimilarityAutoOrder(query, entry).
  struct Couple {
    const Community* b = nullptr;
    const Community* a = nullptr;
    bool query_is_b = true;
  };
  Couple Orient(const CatalogEntry& entry) const;

  /// The couple passes the CSJ size rule and shares the query's
  /// dimensionality.
  bool Admissible(const CatalogEntry& entry) const;

  /// Upper bound on the admissible oriented couple's similarity under
  /// any method: min(reachable entry users, |B|) / |B|.
  double Bound(const CatalogEntry& entry) const;

  /// Exact similarity of the admissible oriented couple; `entry` may be
  /// a probe head. `join` is the scorer's join options, possibly with
  /// another thread budget or pool.
  double Refine(const CatalogEntry& entry, const JoinOptions& join) const;

 private:
  const CommunityCatalog& catalog_;
  const Community& query_;
  Method method_;
  DimensionReach reach_;
  /// Built iff entry artifacts can serve this query.
  std::optional<EncodedB> query_b_;
  std::optional<EncodedA> query_a_;
};

/// The catalog-backed top-k similarity query engine.
///
/// Algorithm (the walk): for every snapshot entry, orient the couple
/// by size (smaller side plays B, query wins ties) and drop inadmissible
/// couples; bound every admissible couple (batched on the pool); walk
/// candidates in (bound desc, id asc) order, refining in waves and
/// maintaining the current top-k; STOP as soon as the next candidate's
/// bound is strictly below the current k-th similarity with the top-k
/// full. A CoupleScorer does the per-couple work, built once per query:
/// couples are bounded by the query's per-dimension reach, and MinMax
/// couples are refined from the entries' resident encodings and the
/// query's, encoded once.
///
/// Cutoff correctness (the "provably identical" contract): for any
/// method, similarity(B, A) <= Bound on the same couple. Every matched
/// entry user lies within eps of its partner in every dimension, so it
/// is reachable; matched pairs are disjoint, so matched <= min(reachable,
/// |B|); and the bound divides by the same |B| as JoinResult::Similarity.
/// Candidates are walked in non-increasing bound order, so when the walk
/// stops at a candidate with bound < kth_similarity, every unrefined
/// candidate c satisfies
///     similarity(c) <= bound(c) <= bound(stop) < kth_similarity,
/// i.e. c ranks strictly below k refined entries under (similarity desc,
/// id asc) and cannot appear in the top-k. Ties are why the stop rule is
/// STRICT: a candidate with bound == kth_similarity could still realize
/// exactly kth_similarity and win the tie on a smaller id, so it must be
/// refined. Hence the returned ranking is byte-identical — same (id,
/// version, similarity) triples, same double bits — to refining every
/// admissible entry and truncating (topk_service_test proves this on
/// hundreds of seeded catalogs, and that the entry-artifact path matches
/// the per-couple path counter for counter; dimension_reach_test checks
/// the bound against every method).
class TopKSimilarService {
 public:
  /// `catalog` is not owned and must outlive the service.
  explicit TopKSimilarService(const CommunityCatalog* catalog);

  /// Snapshots the catalog and runs the walk over it — or, with
  /// TopKOptions::prescreen on a signature-indexed catalog, probes the
  /// index and runs the same walk on the candidates only (exhaustive
  /// fallback when the candidates cannot certify a full top-k).
  TopKResult Query(const Community& query, const TopKOptions& options,
                   const std::optional<Deadline>& deadline = {}) const;

 private:
  TopKResult QueryPrescreen(const CoupleScorer& scorer,
                            const Community& query,
                            const TopKOptions& options,
                            const std::optional<Deadline>& deadline) const;
  /// The bound + refine walk over `snapshot` (see the class comment).
  TopKResult Walk(const CoupleScorer& scorer, const Community& query,
                  const std::vector<CatalogEntry>& snapshot,
                  const TopKOptions& options,
                  const std::optional<Deadline>& deadline) const;

  const CommunityCatalog* catalog_;
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_TOPK_H_
