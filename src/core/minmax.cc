#include "core/minmax.h"

#include <cstdint>
#include <optional>
#include <vector>

// The prescreen kernel's AVX-512 variant uses intrinsics inside a
// target-attributed function, so no -m flags change for the rest of the
// build (GCC exposes the intrinsics to such functions since 4.9).
#if defined(__GNUC__) && defined(__x86_64__)
#define CSJ_SCAN_AVX512 1
#include <immintrin.h>
#endif

#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/epsilon_predicate.h"
#include "core/join_scratch.h"
#include "matching/matcher.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace csj {

namespace {

/// Emits `event` into the stats and, when tracing, into the event log with
/// the ORIGINAL user ids (the figures label users in sorted-buffer order;
/// the trace tests construct inputs where the two orders coincide).
void Emit(Event event, UserId real_b, UserId real_a, JoinStats* stats,
          EventLog* log) {
  stats->Count(event);
  if (log != nullptr) log->Add(event, real_b, real_a);
}

/// The couple's encoded buffers, either fetched from the cache (shared,
/// built once per community) or built locally into the optionals. `b` /
/// `a` point at whichever variant is live.
struct MinMaxBuffers {
  std::shared_ptr<const EncodedB> cached_b;
  std::shared_ptr<const EncodedA> cached_a;
  std::optional<EncodedB> local_b;
  std::optional<EncodedA> local_a;
  const EncodedB* b = nullptr;
  const EncodedA* a = nullptr;
};

// ---- Vectorized candidate prescreen ---------------------------------
//
// The scan loops spend almost all their time rejecting candidates: on
// the paper's workloads ~90% of the entries a probe reaches fail the
// MAX PRUNE or NO OVERLAP filter, at a part that varies per candidate,
// so the per-candidate branchy form is dominated by mispredicted exits.
// PrescreenCandidates instead classifies the whole reachable run with
// branch-free compares over EncodedA's part-major columns — 8 candidates
// per step via GCC vector extensions where available — bulk-counting the
// pruned and emitting only the (rare) survivors for the d-dimensional
// comparison. Verdicts are exactly the scalar filter chain's; only event
// GRANULARITY changes (counts instead of one Emit per candidate), so the
// joins fall back to the scalar loop whenever an EventLog wants the
// per-candidate trace.

/// Branch-free scalar classification of [begin, end): the portable whole-
/// run path and the vector kernel's sub-8 tail. Accumulates into the
/// caller's counters so both variants share one stats commit.
void PrescreenScalar(const EncodedA& encd_a, uint64_t id,
                     std::span<const uint64_t> sums, uint32_t begin,
                     uint32_t end, uint64_t* max_prunes,
                     uint64_t* no_overlaps,
                     std::vector<uint32_t>* survivors) {
  const uint64_t* __restrict maxs = encd_a.encoded_maxs();
  const auto parts = static_cast<uint32_t>(sums.size());
  for (uint32_t ia = begin; ia < end; ++ia) {
    const unsigned within = id <= maxs[ia] ? 1u : 0u;
    unsigned ok = within;
    for (uint32_t p = 0; p < parts; ++p) {
      ok &= static_cast<unsigned>(sums[p] >= encd_a.part_lo(p)[ia]) &
            static_cast<unsigned>(sums[p] <= encd_a.part_hi(p)[ia]);
    }
    *max_prunes += within ^ 1u;
    *no_overlaps += within & (ok ^ 1u);
    if (ok != 0) survivors->push_back(ia);
  }
}

#ifdef CSJ_SCAN_AVX512

/// AVX-512 classification: 8 candidates per step, one unaligned 64-byte
/// load per column, unsigned compares straight into mask registers — the
/// survivor bitmask IS the compare result, so there is no lane
/// extraction at all. Written with intrinsics rather than GCC generic
/// vectors: the generic lowering has no pattern for combining unsigned
/// 64-bit compares and reassembles the masks lane-by-lane with
/// vpinsrq, which benches slower than the branchy scalar loop.
__attribute__((target("avx512f"))) void PrescreenAvx512(
    const EncodedA& encd_a, uint64_t id, std::span<const uint64_t> sums,
    uint32_t begin, uint32_t end, uint64_t* max_prunes,
    uint64_t* no_overlaps, std::vector<uint32_t>* survivors) {
  const uint64_t* __restrict maxs = encd_a.encoded_maxs();
  const auto parts = static_cast<uint32_t>(sums.size());
  const size_t stride = encd_a.size();
  const __m512i idv = _mm512_set1_epi64(static_cast<long long>(id));
  uint64_t mp = 0;
  uint64_t ov = 0;
  uint32_t ia = begin;
  for (; ia + 8 <= end; ia += 8) {
    const __m512i mx = _mm512_loadu_si512(maxs + ia);
    const __mmask8 within = _mm512_cmple_epu64_mask(idv, mx);
    __mmask8 ok = within;
    const uint64_t* col = encd_a.part_lo(0) + ia;
    for (uint32_t p = 0; p < parts; ++p) {
      const __m512i lo = _mm512_loadu_si512(col);
      const __m512i hi = _mm512_loadu_si512(col + stride);
      const __m512i s = _mm512_set1_epi64(static_cast<long long>(sums[p]));
      ok = static_cast<__mmask8>(ok & _mm512_cmple_epu64_mask(lo, s) &
                                 _mm512_cmple_epu64_mask(s, hi));
      col += 2 * stride;
    }
    mp += static_cast<unsigned>(__builtin_popcount(~within & 0xffu));
    ov += static_cast<unsigned>(__builtin_popcount((within & ~ok) & 0xffu));
    unsigned bits = ok;
    while (bits != 0) {
      survivors->push_back(ia + static_cast<uint32_t>(__builtin_ctz(bits)));
      bits &= bits - 1;
    }
  }
  *max_prunes += mp;
  *no_overlaps += ov;
  PrescreenScalar(encd_a, id, sums, ia, end, max_prunes, no_overlaps,
                  survivors);
}

#endif  // CSJ_SCAN_AVX512

/// Classifies candidates [begin, end) of one probe: counts MAX PRUNEs
/// (id > encoded_max) and NO OVERLAPs into `stats` and appends the
/// indices passing both filters — still needing the d-dimensional
/// comparison — to `survivors` in ascending order.
void PrescreenCandidates(const EncodedA& encd_a, uint64_t id,
                         std::span<const uint64_t> sums, uint32_t begin,
                         uint32_t end, JoinStats* stats,
                         std::vector<uint32_t>* survivors) {
  uint64_t max_prunes = 0;
  uint64_t no_overlaps = 0;
#ifdef CSJ_SCAN_AVX512
  static const bool has_avx512 = __builtin_cpu_supports("avx512f") != 0;
  if (has_avx512) {
    PrescreenAvx512(encd_a, id, sums, begin, end, &max_prunes, &no_overlaps,
                    survivors);
  } else {
    PrescreenScalar(encd_a, id, sums, begin, end, &max_prunes, &no_overlaps,
                    survivors);
  }
#else
  PrescreenScalar(encd_a, id, sums, begin, end, &max_prunes, &no_overlaps,
                  survivors);
#endif
  stats->max_prunes += max_prunes;
  stats->no_overlaps += no_overlaps;
}

// ---- Untraced Ex-MinMax scan ----------------------------------------
//
// The exact scan is sequential on the surface (the skippable-prefix
// offset and the open CSF segment both thread through the probe loop),
// but both pieces of state are pure functions of the input:
//
//  * The offset entering probe ib equals min(F, R) evaluated at
//    id(ib - 1), where F(x) = first A entry with encoded_max >= x and
//    R(x) = UpperBound(x). (Induction over the serial loop: entries are
//    only prefix-skipped once their encoded_max drops below some probe
//    id, probe ids are non-decreasing, and both F and R are monotone in
//    the id.) A scan starting at ib therefore recomputes its entry
//    offset locally with one bounded scan — no cross-chunk handoff.
//
//  * Segment boundaries depend only on the matched-edge stream: between
//    edge groups of probes bi < bj the serial loop flushes iff some
//    intermediate next_id exceeds maxV, and since ids are non-decreasing
//    that maximum IS id(bj). So the merge step can replay the exact
//    segment partition (same CSF calls, same flush count, same pair
//    order) from the concatenated edges alone.
//
// Hence one scan body serves both runs: the serial join feeds its edges
// straight into the open segment and closes segments after each probe,
// while join_threads chunks scan disjoint probe ranges of B into
// per-chunk arenas that the merge concatenates in chunk order, summing
// the counters and replaying the segment-close rule. Byte-identical to
// the serial run for any join_threads (asserted per method and thread
// count by the tests).

/// Scans probes [b_begin, b_end) of B: prescreens each probe's reachable
/// run branch-free, then verifies only the survivors. `edge(ib, real_b,
/// ia)` receives each verified candidate edge as sorted-buffer indices
/// (plus B's original id, already loaded for the verify);
/// `after_probe(ib)` runs once each probe's candidates are done.
template <typename Edge, typename AfterProbe>
void ScanExMinMax(const Community& b, const Community& a,
                  const EncodedB& encd_b, const EncodedA& encd_a,
                  Epsilon eps, uint32_t b_begin, uint32_t b_end,
                  JoinStats* stats, Edge&& edge, AfterProbe&& after_probe) {
  const uint32_t na = encd_a.size();
  const uint64_t* maxs = encd_a.encoded_maxs();

  uint32_t offset = 0;
  if (b_begin > 0) {
    // Replay the serial run's prefix-skip state after probe b_begin - 1,
    // WITHOUT counting: these MAX PRUNEs were already charged to earlier
    // probes (i.e. to the previous chunks).
    const uint64_t prev_id = encd_b.encoded_id(b_begin - 1);
    const uint32_t prev_reach = encd_a.UpperBound(prev_id);
    while (offset < prev_reach && prev_id > maxs[offset]) ++offset;
  }

  // Executing-thread scratch (a chunk runs on exactly one worker; two
  // chunks on the same worker run back to back).
  std::vector<uint32_t>& survivors = internal::GetJoinScratch().survivors;
  LazyBatchVerifier<Count, Epsilon> verifier;
  for (uint32_t ib = b_begin; ib < b_end; ++ib) {
    const uint64_t id = encd_b.encoded_id(ib);
    const UserId real_b = encd_b.real_id(ib);
    const std::span<const Count> vb = b.User(real_b);
    const uint32_t reach = encd_a.UpperBound(id);
    // The skippable prefix: entries whose encoded_max every later
    // (larger-id) probe also exceeds. Same rule as the traced loop's
    // `skip`.
    uint32_t advanced = offset;
    while (advanced < reach && id > maxs[advanced]) ++advanced;
    stats->max_prunes += advanced - offset;
    offset = advanced;

    survivors.clear();
    PrescreenCandidates(encd_a, id, encd_b.part_sums(ib), offset, reach,
                        stats, &survivors);
    // Batch the d-dimensional compares over the reachable run when it is
    // at least one block wide, else the per-pair kernel is cheaper than
    // the lane waste.
    const bool batched = reach > offset && reach - offset >= kEpsilonBlock;
    if (batched) verifier.Start(encd_a.window(), vb, eps, reach);
    for (const uint32_t ia : survivors) {
      const bool match =
          batched ? verifier.Matches(ia)
                  : EpsilonMatches(vb, a.User(encd_a.real_id(ia)), eps);
      if (match) {
        stats->Count(Event::kMatch);
        edge(ib, real_b, ia);
      } else {
        stats->Count(Event::kNoMatch);
      }
    }
    if (reach < na) stats->Count(Event::kMinPrune);
    after_probe(ib);
  }
}

MinMaxBuffers AcquireMinMaxBuffers(const Community& b, const Community& a,
                                   const JoinOptions& options,
                                   JoinStats* stats) {
  MinMaxBuffers buffers;
  const Encoder encoder(b.d(), options.eps, options.encoding_parts);
  if (options.cache != nullptr) {
    // Key on the CLAMPED part count so "parts = 100, d = 27" and
    // "parts = 27" share an entry (they build identical buffers).
    const CommunityDigest digest_b = DigestCommunity(b);
    const CommunityDigest digest_a = DigestCommunity(a);
    buffers.cached_b = options.cache->GetEncodedB(b, digest_b, options.eps,
                                                  encoder.parts(), stats);
    buffers.cached_a = options.cache->GetEncodedA(a, digest_a, options.eps,
                                                  encoder.parts(), stats);
    buffers.b = buffers.cached_b.get();
    buffers.a = buffers.cached_a.get();
  } else {
    buffers.local_b.emplace(b, encoder);
    buffers.local_a.emplace(a, encoder);
    buffers.b = &*buffers.local_b;
    buffers.a = &*buffers.local_a;
  }
  return buffers;
}

/// One of the two join kernels below, run on fetched or built encodings.
using EncodedJoin = JoinResult (*)(const Community&, const Community&,
                                   const EncodedB&, const EncodedA&,
                                   const JoinOptions&);

JoinResult JoinWithBuffers(EncodedJoin join, const Community& b,
                           const Community& a, const JoinOptions& options) {
  CSJ_CHECK_EQ(b.d(), a.d());
  util::Timer timer;
  JoinStats lookups;
  const MinMaxBuffers buffers = AcquireMinMaxBuffers(b, a, options, &lookups);
  JoinResult result = join(b, a, *buffers.b, *buffers.a, options);
  result.stats.Merge(lookups);  // only the cache counters are nonzero
  result.stats.seconds = timer.Seconds();
  return result;
}

/// The kernels' shared precondition: the encodings belong to the couple.
void CheckEncodings(const Community& b, const Community& a,
                    const EncodedB& encd_b, const EncodedA& encd_a) {
  CSJ_CHECK_EQ(b.d(), a.d());
  CSJ_CHECK_EQ(encd_b.size(), b.size());
  CSJ_CHECK_EQ(encd_a.size(), a.size());
  CSJ_CHECK_EQ(encd_b.parts(), encd_a.parts());
}

}  // namespace

JoinResult ApMinMaxJoin(const Community& b, const Community& a,
                        const JoinOptions& options) {
  return JoinWithBuffers(ApMinMaxJoin, b, a, options);
}

JoinResult ExMinMaxJoin(const Community& b, const Community& a,
                        const JoinOptions& options) {
  return JoinWithBuffers(ExMinMaxJoin, b, a, options);
}

JoinResult ApMinMaxJoin(const Community& b, const Community& a,
                        const EncodedB& encd_b, const EncodedA& encd_a,
                        const JoinOptions& options) {
  CheckEncodings(b, a, encd_b, encd_a);
  util::Timer timer;
  JoinResult result;
  result.method = "Ap-MinMax";
  result.size_b = b.size();

  const uint32_t nb = encd_b.size();
  const uint32_t na = encd_a.size();

  // Reused across joins: repeated screening calls stop re-allocating.
  std::vector<uint8_t>& used_a = internal::GetJoinScratch().used_a;
  used_a.assign(na, 0);
  LazyBatchVerifier<Count, Epsilon> verifier;
  uint32_t offset = 0;
  for (uint32_t ib = 0; ib < nb; ++ib) {
    const uint64_t id = encd_b.encoded_id(ib);
    const UserId real_b = encd_b.real_id(ib);
    const std::span<const Count> vb = b.User(real_b);
    // The scan can only reach entries with encoded_min <= id; batch the
    // d-dimensional compares over that run when it is at least one block
    // wide, else the per-pair kernel is cheaper than the lane waste.
    const uint32_t reach = encd_a.UpperBound(id);
    const bool batched = reach > offset && reach - offset >= kEpsilonBlock;
    if (batched) verifier.Start(encd_a.window(), vb, options.eps, reach);
    bool skip = true;
    for (uint32_t ia = offset; ia < na; ++ia) {
      const UserId real_a = encd_a.real_id(ia);
      if (used_a[ia]) {
        // Matched A users are out of the join; while skip is active they
        // extend the permanently skippable prefix.
        if (skip) offset = ia + 1;
        continue;
      }
      if (ia >= reach) {
        // reach = UpperBound(id), so this is exactly id < encoded_min(ia)
        // without re-reading mins_ per candidate: b is done.
        Emit(Event::kMinPrune, real_b, real_a, &result.stats,
             options.event_log);
        break;
      }
      if (id <= encd_a.encoded_max(ia)) {
        skip = false;  // a comparison (even part/range) pins the offset
        if (!PartsOverlap(encd_b, ib, encd_a, ia)) {
          Emit(Event::kNoOverlap, real_b, real_a, &result.stats,
               options.event_log);
          continue;
        }
        const bool match =
            batched ? verifier.Matches(ia)
                    : EpsilonMatches(vb, a.User(real_a), options.eps);
        if (match) {
          Emit(Event::kMatch, real_b, real_a, &result.stats,
               options.event_log);
          result.pairs.push_back(MatchedPair{real_b, real_a});
          used_a[ia] = 1;
          break;  // approximate rule: first match ends this b
        }
        Emit(Event::kNoMatch, real_b, real_a, &result.stats,
             options.event_log);
        continue;
      }
      // id > encoded_max: this a is unreachable for every later b too.
      Emit(Event::kMaxPrune, real_b, real_a, &result.stats,
           options.event_log);
      if (skip) offset = ia + 1;
    }
  }

  result.stats.seconds = timer.Seconds();
  return result;
}

JoinResult ExMinMaxJoin(const Community& b, const Community& a,
                        const EncodedB& encd_b, const EncodedA& encd_a,
                        const JoinOptions& options) {
  CheckEncodings(b, a, encd_b, encd_a);
  util::Timer timer;
  JoinResult result;
  result.method = "Ex-MinMax";
  result.size_b = b.size();

  const uint32_t nb = encd_b.size();
  const uint32_t na = encd_a.size();

  // Open segment: candidate edges (original ids) plus maxV, the largest
  // encoded_max over the A users those edges touch. The segment buffer is
  // per-thread scratch so repeated joins reuse its capacity.
  std::vector<MatchedPair>& segment = internal::GetJoinScratch().segment;
  segment.clear();
  uint64_t max_v = 0;

  // Deferred per-segment matching: with matching_threads > 1 a flushed
  // segment is enqueued on the farm instead of matched inline, and
  // drain_farm() runs all segments as pool tasks before the join returns.
  // The segment partition is a pure function of the candidate-edge stream
  // and the farm appends matched pairs in segment order, so pairs and
  // every counter are byte-identical to the inline path for any value.
  const uint32_t matching_threads =
      options.event_log != nullptr
          ? 1
          : std::max<uint32_t>(options.matching_threads, 1);
  matching::SegmentMatchFarm& farm = internal::GetJoinScratch().match_farm;
  farm.Reset();

  auto flush_segment = [&]() {
    if (segment.empty()) {
      max_v = 0;
      return;
    }
    result.stats.candidate_pairs += segment.size();
    ++result.stats.csf_flushes;
    if (matching_threads > 1) {
      farm.Enqueue(&segment);
    } else {
      util::Timer match_timer;
      std::vector<MatchedPair> matched =
          matching::RunMatcher(options.matcher, segment);
      result.stats.matching_seconds += match_timer.Seconds();
      result.pairs.insert(result.pairs.end(), matched.begin(), matched.end());
      segment.clear();
    }
    max_v = 0;
  };

  auto drain_farm = [&]() {
    if (matching_threads <= 1) return;
    util::Timer match_timer;
    farm.MatchAll(options.matcher, matching_threads, options.pool,
                  &result.pairs);
    result.stats.matching_seconds += match_timer.Seconds();
  };

  // Adds one candidate edge (A as a sorted-buffer index) to the open
  // segment and widens maxV.
  auto add_edge = [&](UserId real_b, uint32_t ia) {
    segment.push_back(MatchedPair{real_b, encd_a.real_id(ia)});
    if (encd_a.encoded_max(ia) > max_v) max_v = encd_a.encoded_max(ia);
  };

  // Segment-close check (Figure 3 performs it whether the scan ended by
  // MIN PRUNE or by exhausting Encd_A): if the next b's encoded_id
  // exceeds maxV, no later b can reach any matched a, and every
  // collected b has finished its scan, so CSF is safe.
  auto close_after = [&](uint32_t ib) {
    const uint64_t next_id =
        ib + 1 < nb ? encd_b.encoded_id(ib + 1) : UINT64_MAX;
    if (next_id > max_v) flush_segment();
  };

  const uint32_t threads = std::max<uint32_t>(options.join_threads, 1);
  if (options.event_log != nullptr) {
    // The Figure 3 reference: one event per candidate in scan order, so
    // no prescreen and no batched verify.
    uint32_t offset = 0;
    for (uint32_t ib = 0; ib < nb; ++ib) {
      const uint64_t id = encd_b.encoded_id(ib);
      const UserId real_b = encd_b.real_id(ib);
      const std::span<const Count> vb = b.User(real_b);
      const uint32_t reach = encd_a.UpperBound(id);
      bool skip = true;
      for (uint32_t ia = offset; ia < na; ++ia) {
        const UserId real_a = encd_a.real_id(ia);
        if (ia >= reach) {
          // As in Ap-MinMax: equivalent to id < encoded_min(ia), minus
          // the per-candidate mins_ load.
          Emit(Event::kMinPrune, real_b, real_a, &result.stats,
               options.event_log);
          break;
        }
        if (id <= encd_a.encoded_max(ia)) {
          skip = false;
          if (!PartsOverlap(encd_b, ib, encd_a, ia)) {
            Emit(Event::kNoOverlap, real_b, real_a, &result.stats,
                 options.event_log);
          } else if (EpsilonMatches(vb, a.User(real_a), options.eps)) {
            Emit(Event::kMatch, real_b, real_a, &result.stats,
                 options.event_log);
            // Exact rule: keep scanning — b may match further A users.
            add_edge(real_b, ia);
          } else {
            Emit(Event::kNoMatch, real_b, real_a, &result.stats,
                 options.event_log);
          }
          continue;
        }
        Emit(Event::kMaxPrune, real_b, real_a, &result.stats,
             options.event_log);
        if (skip) offset = ia + 1;
      }
      close_after(ib);
    }
  } else if (threads > 1 && nb > 1) {
    // Intra-join parallel scan: chunks of B's probes fill per-chunk
    // arenas (on the pool) with sorted-buffer index pairs, then the
    // calling thread merges in chunk order — counters sum, and the
    // segment-close rule is replayed over the concatenated edge stream
    // so the CSF segments (hence pairs and flush count) are
    // byte-identical to the serial scan.
    const uint32_t chunks = util::ParallelChunks(0, nb, threads);
    const std::span<internal::ChunkSlot> slots =
        internal::GetJoinScratch().chunk_arenas.Acquire(chunks);
    util::ParallelFor(
        0, nb, threads,
        [&](uint32_t lo, uint32_t hi, uint32_t chunk) {
          std::vector<MatchedPair>& edges = slots[chunk].edges;
          ScanExMinMax(
              b, a, encd_b, encd_a, options.eps, lo, hi, &slots[chunk].stats,
              [&edges](uint32_t ib, UserId, uint32_t ia) {
                edges.push_back(MatchedPair{ib, ia});
              },
              [](uint32_t) {});
        },
        options.pool);

    // A probe's own edges never close its segment: each edge's A entry
    // has encoded_max >= the probe's id, so maxV already covers it.
    for (uint32_t chunk = 0; chunk < chunks; ++chunk) {
      result.stats.Merge(slots[chunk].stats);
      for (const MatchedPair& edge : slots[chunk].edges) {
        const uint32_t ib = edge.b;  // sorted-buffer indices, not real ids
        if (encd_b.encoded_id(ib) > max_v) flush_segment();
        add_edge(encd_b.real_id(ib), edge.a);
      }
    }
  } else {
    ScanExMinMax(
        b, a, encd_b, encd_a, options.eps, 0, nb, &result.stats,
        [&](uint32_t, UserId real_b, uint32_t ia) { add_edge(real_b, ia); },
        close_after);
  }
  flush_segment();  // the serial scans already flushed at ib == nb - 1
  drain_farm();     // no-op unless matching_threads > 1
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace csj
