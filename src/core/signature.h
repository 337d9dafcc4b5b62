#ifndef CSJ_CORE_SIGNATURE_H_
#define CSJ_CORE_SIGNATURE_H_

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/community.h"
#include "core/types.h"

namespace csj {

/// The prescreen signature layer: compact per-community sketches that let
/// a top-k query discard most of the catalog WITHOUT computing the exact
/// interval-matching bound, while keeping the exact path authoritative.
///
/// Why not minhash over the encoded totals: every eps-match satisfies
/// encoded_id(b) ∈ [encoded_min(a), encoded_max(a)], but the encoded ids
/// are user activity TOTALS, and real communities share one activity
/// distribution regardless of topic — measured on the serving workload,
/// the totals-based SimilarityUpperBound lands in [0.89, 1.0] for EVERY
/// catalog entry while true similarities are almost all 0. Any sketch of
/// the totals windows (banded minhash included) inherits that blindness.
/// The discriminative signal is per-dimension: at parts = d the MinMax
/// encoding's windows degenerate to [v_k - eps, v_k + eps] per category,
/// and THOSE separate communities sharply (a cooking brand's subscribers
/// hold large cooking counters; a sports brand's almost none). The same
/// blindness is why the top-k walk no longer bounds candidates from the
/// totals: it counts, per candidate, the users within eps of the query
/// in every dimension (DimensionReach, core/dimension_reach.h): the
/// argument below, made exactly from the query's columns instead of
/// from breakpoints.
///
/// The sketch (an LSF-style filter bank in the locality-sensitive
/// FILTERING sense of LSF-Join — deterministic filters, not probabilistic
/// hashes): per dimension k, the community's counter column is summarized
/// by `quantiles + 1` equi-rank breakpoints (sorted column values at
/// ranks j*(n-1)/Q). From two sketches alone one can certify an upper
/// bound on the number of users either side can contribute to ANY
/// eps-matching, per dimension:
///
///   every matched pair <b, a> has |v_b[k] - v_a[k]| <= eps in EVERY
///   dimension k, and matched pairs are disjoint on both sides, so
///     matched <= #{users of B with v[k] inside A's eps-extended value
///                  span}          (and symmetrically for A)
///   for every k. The breakpoint table upper-bounds those counts by rank
///   arithmetic (SignatureCountUpperBound), hence
///     similarity = matched / |B| <= SignatureSimilarityCap.
///
/// A candidate filter that admits exactly the entries whose cap reaches a
/// threshold therefore has NO false dismissals among entries with true
/// similarity >= threshold — the containment guarantee the serving
/// fallback contract builds on (docs/API.md "Candidate generation").
struct SignatureOptions {
  /// Breakpoints per dimension (table stores quantiles + 1 values).
  /// More quantiles -> tighter caps, bigger sketch. Clamped to [2, 256].
  uint32_t quantiles = 16;

};

/// Reusable scratch for the bulk-ingestion sketch builder (one per
/// thread; the capacity settles at the largest community sketched).
struct SketchScratch {
  std::vector<Count> columns;  ///< composite radix keys / transposed counters
  std::vector<Count> aux;      ///< radix scatter buffer
  std::vector<uint16_t> keys16;  ///< half-width keys (vbits + dbits <= 16)
  std::vector<uint16_t> aux16;   ///< half-width radix scatter buffer
  std::vector<uint32_t> zeros;   ///< per-dim zero-counter tallies
};

/// One community's sketch: d equi-rank breakpoint rows, dimension-major.
/// Queries build these; catalog sketches live only in SignatureIndex.
class CommunitySignature {
 public:
  CommunitySignature(const Community& community,
                     const SignatureOptions& options);

  /// Community size: every user is sketched, so the rank arithmetic,
  /// the admissibility checks and the cap's denominator all count it.
  uint32_t size() const { return n_; }
  Dim d() const { return d_; }
  uint32_t quantiles() const { return quantiles_; }

  /// Breakpoint row of dimension `k`: quantiles() + 1 ascending values.
  std::span<const Count> DimTable(Dim k) const {
    const size_t row = static_cast<size_t>(k) * (quantiles_ + 1);
    return {table_.data() + row, quantiles_ + 1};
  }

  /// The whole dimension-major table: d() * (quantiles() + 1) values.
  std::span<const Count> table() const { return table_; }

 private:
  uint32_t n_ = 0;
  uint32_t quantiles_ = 0;
  Dim d_ = 0;
  std::vector<Count> table_;
};

/// The bulk-ingestion sketch builder: writes the constructor's table
/// bytes (bulk_load_test proves it; the constructor stays the readable
/// reference) into `table`, d * (clamped quantiles + 1) values, through
/// caller-owned scratch. All d columns are sorted at once by an LSD
/// radix sort over composite (dim, counter) keys — equal counter
/// multisets sort to equal columns whatever the algorithm.
/// `max_counter_hint`, when nonzero, must be >= every sketched counter
/// (ingest passes the digest's exact maximum; the builder re-checks the
/// bound from an OR-accumulator and aborts on a lying hint) and skips
/// the max-scan pass; 0 scans. Communities whose (dim, counter) keys
/// overflow 32 bits fall back to per-column sorts.
void BuildSketchTable(const Community& community,
                      const SignatureOptions& options, SketchScratch* scratch,
                      Count max_counter_hint, std::span<Count> table);

/// Certified upper bound on the number of users whose value in the row's
/// dimension lies in [lo, hi]. `row` is one DimTable row (quantiles + 1
/// breakpoints over `size` sorted values). The bound is exact rank
/// arithmetic: if breakpoint j (at rank r_j = j*(size-1)/Q) exceeds hi,
/// at most r_j values are <= hi; if it is below lo, at least r_j + 1
/// values are < lo.
uint32_t SignatureCountUpperBound(std::span<const Count> row, uint32_t size,
                                  int64_t lo, int64_t hi);

/// Upper bound on similarity(B, A) for the couple behind the two
/// sketches (B = the smaller community, query wins ties — the same
/// auto-orientation the top-k service uses). Probes dimensions in
/// `probe_order` (a permutation of [0, d)) and may stop early once the
/// running cap drops below `early_exit_below` (the returned value is
/// then still an upper bound of the final cap's pass/fail verdict at
/// that threshold, just not the exact minimum). Pass a negative
/// `early_exit_below` for the exact cap.
double SignatureSimilarityCap(const CommunitySignature& query,
                              const CommunitySignature& entry, Epsilon eps,
                              std::span<const Dim> probe_order,
                              double early_exit_below = -1.0);

/// The query's probe order: dimensions sorted by descending smallest
/// breakpoint (ties: ascending dimension). Dimensions where the query's
/// every user holds a large counter — its home categories — reject
/// unrelated communities in one probe, so they go first and the sweep's
/// early exit fires after 1-3 dimensions for most entries.
std::vector<Dim> SignatureProbeOrder(const CommunitySignature& query);

/// A sketch table's home dimension: the one with the largest smallest
/// breakpoint (ties: smaller dimension) — the first entry of
/// SignatureProbeOrder, without building the whole permutation. On the
/// profile workload this is the community's dominant category (every
/// member holds a large counter there), so grouping index packs by home
/// dimension makes packs internally alike and mutually disparate —
/// exactly what the pack-level prefilter needs to skip whole packs.
Dim SignatureHomeDim(std::span<const Count> table, uint32_t quantiles);

/// Sweep accounting, accumulated across a catalog's shards by one probe.
struct PrescreenStats {
  uint64_t examined = 0;  ///< index slots looked at
  uint64_t passed = 0;    ///< cap >= threshold
  /// Certified below threshold. Slots inside packs dismissed wholesale
  /// by the pack prefilter are folded in here: the pack-level proof is
  /// cap-based, so it cannot tell which of those slots the per-slot
  /// path would have billed to skipped_inadmissible instead.
  uint64_t skipped_cap = 0;
  uint64_t skipped_inadmissible = 0;  ///< CSJ size rule fails
  uint64_t skipped_dim = 0;           ///< dimensionality mismatch
  /// Whole packs dismissed by the coarse per-pack summary check (the
  /// second filter level) without touching any slot.
  uint64_t packs_skipped = 0;
};

struct PrescreenCandidate {
  uint64_t id = 0;
  uint64_t version = 0;
};

/// One catalog shard's packed sketch store — the structure a prescreen
/// query sweeps instead of computing exact bounds against the whole
/// catalog. The community catalog keeps one per shard, beside the
/// shard's entry map.
///
/// The index keeps one pack of slot-major rows (ids, versions, sizes,
/// breakpoint tables) per (dimensionality, home dimension), so a probe is
/// one cache-friendly linear sweep per pack with no pointer chasing. The
/// pack row is the only resident copy of a catalog entry's sketch:
/// Row() reads it back for checkpoints and equal-content rewrites.
///
/// Concurrency: externally synchronized. The index takes no locks of its
/// own; the community catalog wraps every InstallBatch/Remove in the same
/// exclusive shard lock that guards the entry map and every Probe in the
/// same shared lock — so the sketch store and the entry map can never
/// disagree about which (id, version) is resident, which is what makes a
/// probe's candidate list consistent with the snapshot a query refines
/// against.
class SignatureIndex {
 public:
  /// Clamps options.quantiles like the sketch builders do.
  explicit SignatureIndex(const SignatureOptions& options);

  const SignatureOptions& options() const { return options_; }

  /// One element of an InstallBatch: installs (or replaces) the sketch
  /// for `id`: a dimension-major table built with options() (one
  /// resolution per index), read during the call only, and its size.
  struct SlotInstall {
    uint64_t id = 0;
    uint64_t version = 0;
    uint32_t size = 0;
    std::span<const Count> table;
  };

  /// Installs a batch (one element or many) under the caller's ONE
  /// exclusive lock. Each target pack grows at most once per batch,
  /// geometrically, so a stream of small batches stays amortized O(1) per
  /// slot; `batches` > 1 grows it for that many batches like this one.
  /// Elements install in order — replacing ids already resident and
  /// duplicates within the batch — so the resulting pack columns and
  /// summaries depend only on the sequence of elements, never on how it
  /// was split into batches.
  void InstallBatch(std::span<const SlotInstall> batch, size_t batches = 1);

  /// Drops `id`'s sketch. Returns false when absent.
  bool Remove(uint64_t id);

  /// `id`'s resident sketch table, or an empty span when absent; valid
  /// until the next InstallBatch or Remove (read it under their lock).
  std::span<const Count> Row(uint64_t id) const;

  struct ProbeQuery {
    const CommunitySignature* signature = nullptr;
    Epsilon eps = 0;
    /// Admission threshold tau: entries with certified cap < tau are
    /// skipped. <= 0 admits everything (an inert probe).
    double threshold = 0.0;
    /// SignatureProbeOrder(*signature); length must equal signature->d().
    std::span<const Dim> probe_order;
  };

  /// Sweeps the index, appending passing (id, version) pairs to `out`
  /// and accumulating into `stats`. A slot passes iff its exact
  /// SignatureSimilarityCap (no early exit) reaches the threshold. The
  /// per-slot pass is compiled per ISA and dispatched by CPU feature like
  /// EpsilonMatches; its default clone runs the same packed code at the
  /// baseline ISA. Only rows shorter than 16 breakpoints, and builds
  /// without GNU vector extensions, count one breakpoint at a time.
  void Probe(const ProbeQuery& query, std::vector<PrescreenCandidate>* out,
             PrescreenStats* stats) const;

 private:
  /// Packs group the slots by (dimensionality, home dimension): same-home
  /// communities look alike, so one coarse per-pack summary is tight
  /// enough to dismiss the whole pack against most queries.
  using PackKey = std::pair<Dim, Dim>;  ///< (d, SignatureHomeDim)

  /// Slot-major columns of one (d, home) group.
  struct Pack {
    uint32_t stride = 0;  ///< d * (quantiles + 1) Counts per slot
    std::vector<uint64_t> ids;
    std::vector<uint64_t> versions;
    std::vector<uint32_t> sizes;  ///< community sizes
    std::vector<Count> table;     ///< slot-major breakpoint rows

    /// Coarse summary for the pack prefilter, maintained WIDEN-ONLY:
    /// dim_min[k] <= every resident slot's smallest breakpoint in k and
    /// dim_max[k] >= every slot's largest; min_size <= every slot's
    /// community size. Removals leave them untouched (still enclosing,
    /// possibly slack — slack only costs skip opportunities, never
    /// soundness), and widen-only updates are insertion-order
    /// independent, so bulk and sequential installs agree bytewise.
    std::vector<Count> dim_min;
    std::vector<Count> dim_max;
    uint32_t min_size = 0;
  };

  void RemoveSlot(PackKey key, uint32_t slot);

  SignatureOptions options_;
  /// id -> (pack key, slot).
  std::unordered_map<uint64_t, std::pair<PackKey, uint32_t>> locate_;
  std::map<PackKey, Pack> packs_;
};

}  // namespace csj

#endif  // CSJ_CORE_SIGNATURE_H_
