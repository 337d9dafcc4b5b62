#ifndef CSJ_CORE_JOIN_OPTIONS_H_
#define CSJ_CORE_JOIN_OPTIONS_H_

#include <cstdint>

#include "core/join_result.h"
#include "core/types.h"
#include "matching/matcher.h"

namespace csj {

class EncodingCache;

namespace util {
class ThreadPool;
}  // namespace util

/// Knobs shared by all six CSJ methods. Defaults reproduce the paper's
/// configuration (4 encoding parts, CSF matcher, serial SuperEGO).
struct JoinOptions {
  /// The per-dimension absolute-difference threshold (paper: 1 for VK,
  /// 15000 for Synthetic).
  Epsilon eps = 1;

  /// Number of parts in the MinMax encoding (paper §4: 4 is the best
  /// time/space tradeoff; bench_ablation_parts sweeps this).
  uint32_t encoding_parts = 4;

  /// One-to-one matcher used by the exact methods. kCsf is the paper's
  /// algorithm; kMaxMatching upgrades to Hopcroft-Karp (an extension).
  matching::MatcherKind matcher = matching::MatcherKind::kCsf;

  /// SuperEGO recursion threshold `t`: segments smaller than this are
  /// joined with the nested loop.
  uint32_t superego_threshold = 256;

  /// Normalization denominator for SuperEGO (the paper divides by the
  /// dataset-wide maximum counter: 152,532 for VK, 500,000 for Synthetic).
  /// 0 means "use the couple's own maximum counter".
  Count superego_norm_max = 0;

  /// For the GridHash methods: how many (most selective) dimensions the
  /// epsilon-grid hash indexes. Probe cost grows as 3^dims; pruning power
  /// saturates quickly on skewed data.
  uint32_t gridhash_dims = 3;

  /// For the MinMaxEGO hybrid methods: apply the MinMax encoded filter
  /// (encoded-id window + part-range overlap) inside each EGO leaf before
  /// the d-dimensional comparison. false degenerates to a plain
  /// integer-grid SuperEGO, the other arm of bench_ablation_hybrid.
  bool hybrid_encoded_leaf = true;

  /// Worker threads INSIDE one join: the candidate-collection (scan +
  /// verify) phase of the exact methods partitions its probe work into
  /// contiguous chunks — Ex-MinMax and Ex-Baseline over B's rows,
  /// Ex-SuperEGO and Ex-MinMaxEGO over their surviving EGO leaves — and
  /// runs the chunks on the persistent thread pool, each chunk writing
  /// candidate edges into a per-chunk arena. A deterministic merge
  /// concatenates arenas in chunk order (and, for Ex-MinMax, replays the
  /// segment-close rule over the merged edge stream), so the candidate
  /// graph handed to CSF/greedy matching — and hence pairs, similarity
  /// and the summed event counters — is byte-identical to the serial run
  /// for ANY value here. The paper's evaluation pinned 1 thread for
  /// fairness, and so does our default. The approximate methods are
  /// order-dependent greedy scans and always run serially; event logging
  /// also forces serial execution (traces need per-candidate order).
  uint32_t join_threads = 1;

  /// Worker threads for the refine-phase one-to-one matching. Ex-MinMax
  /// flushes many independent CSF segments per join; with a value > 1 the
  /// join defers each flushed segment into a SegmentMatchFarm and runs
  /// them as individual tasks on the persistent pool instead of matching
  /// inline. Matched pairs are appended in SEGMENT ORDER and each matcher
  /// is deterministic on its own segment, so pairs, `candidate_pairs`,
  /// `csf_flushes` and every other counter are byte-identical to the
  /// serial run for ANY value here. The single-segment exact methods
  /// (Ex-Baseline, Ex-SuperEGO, Ex-MinMaxEGO, Ex-GridHash) run one
  /// matcher call and are unaffected; so are the approximate methods
  /// (no matcher at all). Composes with `join_threads`: the scan chunks
  /// and the segment tasks share the same pool, and the pipeline budgets
  /// both through NestedJoinThreads.
  uint32_t matching_threads = 1;

  /// Pool the intra-join chunks and deferred segment matchings run on
  /// (and, in the screening pipeline, its couples); null =
  /// ThreadPool::Global(). Injection seam for tests and embedders (a join
  /// called from inside a pool task degrades to an inline loop either
  /// way, so nesting under pipeline_threads never oversubscribes).
  util::ThreadPool* pool = nullptr;

  /// Optional community-level encoded-buffer cache. When set, the methods
  /// fetch their per-community preparation (EncodedB/EncodedA, Baseline
  /// SoA windows, SuperEGO normalization + segment trees + dimension
  /// orders) from it instead of rebuilding per couple; results are
  /// byte-identical either way. Not owned; must outlive the join. The
  /// hybrid/GridHash grids are couple-shaped and stay uncached.
  EncodingCache* cache = nullptr;

  /// Optional event recorder (MinMax/Baseline only); null on the fast
  /// path. A traced exact join scans serially in one chunk and verifies
  /// pair by pair; its pairs and counters equal the untraced run's at any
  /// join_threads / matching_threads (the scan differential test). The
  /// untraced scans use the 1-vs-many batched verify kernel on candidate
  /// runs of >= kEpsilonBlock and per-pair EpsilonMatches below that;
  /// verdicts are identical either way.
  EventLog* event_log = nullptr;
};

}  // namespace csj

#endif  // CSJ_CORE_JOIN_OPTIONS_H_
