#ifndef CSJ_CORE_JOIN_SCRATCH_H_
#define CSJ_CORE_JOIN_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/epsilon_predicate.h"
#include "core/join_options.h"
#include "core/join_result.h"
#include "matching/matcher.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace csj {
namespace internal {

/// One chunk's output arena for the intra-join parallel phases: candidate
/// edges plus the chunk's event counters. Aligned to two cache lines so
/// adjacent chunks' vector headers and hot counters (bumped once per
/// examined pair) never share a line — with 8 workers the per-event
/// false-sharing traffic otherwise dominates small joins.
struct alignas(128) ChunkSlot {
  /// Candidate edges in scan order. The exact methods store whatever edge
  /// representation their merge wants (real ids, or sorted-buffer indices
  /// for Ex-MinMax's segment replay).
  std::vector<MatchedPair> edges;
  JoinStats stats;
};

/// Reusable pool of ChunkSlots owned by the SUBMITTING thread's scratch:
/// a join acquires one span per parallel phase, workers fill disjoint
/// slots, and the join merges them in chunk order. Capacity (outer and
/// per-slot) survives across joins, so repeated joins stop allocating
/// their chunk bookkeeping — the per-couple allocator churn that showed
/// up as cross-couple scaling loss.
class ChunkArenas {
 public:
  /// Slots [0, chunks), cleared (capacity retained). The span is valid
  /// until the next Acquire on the same thread; a join must finish its
  /// merge before this thread starts another parallel phase.
  std::span<ChunkSlot> Acquire(uint32_t chunks) {
    if (slots_.size() < chunks) slots_.resize(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
      slots_[c].edges.clear();
      slots_[c].stats = JoinStats{};
    }
    return {slots_.data(), chunks};
  }

 private:
  std::vector<ChunkSlot> slots_;
};

/// Reusable per-thread temporaries for the join hot paths.
///
/// Every join method executes on exactly one thread (the pipeline's
/// cross-couple parallelism hands each couple to one worker; the
/// intra-join ParallelFor bodies use chunk-local buffers, never this),
/// so a thread_local instance is race-free and lets repeated joins reuse
/// capacity instead of re-allocating their bookkeeping vectors on every
/// call — the dominant constant cost when screening thousands of small
/// couples.
///
/// Discipline: a field is borrowed for the duration of ONE join and must
/// not be live across a nested use of the same field. Each join method
/// touches a disjoint set of fields at any moment (used/matched flags,
/// the candidate-edge buffers, the encoder temporaries), which keeps the
/// sharing safe even when a join builds encoders mid-flight.
struct JoinScratch {
  /// A-side / B-side "already matched" flags (uint8_t, not vector<bool>:
  /// byte stores are cheaper than bit RMW in the scan inner loops).
  std::vector<uint8_t> used_a;
  std::vector<uint8_t> matched_b;

  /// Ex-MinMax's open segment and the exact methods' merged candidate
  /// edge list (cleared per join, capacity retained).
  std::vector<MatchedPair> segment;
  std::vector<MatchedPair> candidates;

  /// Encoder temporaries: per-user part sums / range endpoints and the
  /// sort keys + permutation used to order encoded buffers.
  std::vector<uint64_t> sums;
  std::vector<uint64_t> lo;
  std::vector<uint64_t> hi;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> perm;

  /// Cache-less batched verification: SoA windows repacked per join (the
  /// cached paths use the windows attached to the cached buffers instead)
  /// and the survivor bitmask of full-range Many calls.
  VerifyWindow window;
  VerifyWindowF window_f;
  std::vector<uint64_t> mask;

  /// Candidate indices that survived the MinMax prescreen of one probe
  /// and still need the d-dimensional comparison.
  std::vector<uint32_t> survivors;

  /// Per-chunk output arenas of this thread's intra-join parallel phases
  /// (the chunks themselves may execute on pool workers; only the slots
  /// live here, and each worker touches exactly one).
  ChunkArenas chunk_arenas;

  /// Deferred per-segment matching farm of Ex-MinMax's refine phase
  /// (JoinOptions::matching_threads > 1). Per-segment edge arenas live in
  /// the slots and are reused across joins; the matching tasks may run on
  /// pool workers, but each task touches exactly one slot.
  matching::SegmentMatchFarm match_farm;
};

/// The calling thread's scratch. Never hold the reference across a point
/// where the same thread may start another join (e.g. across a nested
/// RunMethod call) while still using a field the other join also uses.
inline JoinScratch& GetJoinScratch() {
  thread_local JoinScratch scratch;
  return scratch;
}

/// The chunked candidate collection of the single-segment exact methods
/// (Ex-Baseline over B's rows, Ex-SuperEGO and Ex-MinMaxEGO over their
/// surviving EGO leaves): runs `scan(begin, end, slot)` over [0, n) in
/// `options.join_threads` contiguous chunks on `options.pool` (one chunk
/// when tracing), each chunk filling its own ChunkSlot, then merges the
/// slots in chunk order — counters into `stats`, edges into the calling
/// thread's `candidates` scratch, which it returns. Byte-identical to one
/// serial scan for any thread count.
template <typename Scan>
const std::vector<MatchedPair>& CollectCandidates(uint32_t n,
                                                  const JoinOptions& options,
                                                  JoinStats* stats,
                                                  Scan&& scan) {
  const uint32_t threads = options.event_log != nullptr
                               ? 1
                               : std::max<uint32_t>(options.join_threads, 1);
  JoinScratch& scratch = GetJoinScratch();
  const uint32_t chunks = util::ParallelChunks(0, n, threads);
  const std::span<ChunkSlot> slots = scratch.chunk_arenas.Acquire(chunks);
  util::ParallelFor(
      0, n, threads,
      [&](uint32_t begin, uint32_t end, uint32_t chunk) {
        scan(begin, end, slots[chunk]);
      },
      options.pool);
  std::vector<MatchedPair>& candidates = scratch.candidates;
  candidates.clear();
  for (const ChunkSlot& slot : slots) {
    stats->Merge(slot.stats);
    candidates.insert(candidates.end(), slot.edges.begin(), slot.edges.end());
  }
  return candidates;
}

/// The single-segment exact methods' tail: one matcher call over every
/// candidate edge, counted as one flush.
inline void MatchCandidates(const std::vector<MatchedPair>& candidates,
                            matching::MatcherKind matcher,
                            JoinResult* result) {
  result->stats.candidate_pairs = candidates.size();
  result->stats.csf_flushes = 1;
  util::Timer match_timer;
  result->pairs = matching::RunMatcher(matcher, candidates);
  result->stats.matching_seconds = match_timer.Seconds();
}

}  // namespace internal
}  // namespace csj

#endif  // CSJ_CORE_JOIN_SCRATCH_H_
