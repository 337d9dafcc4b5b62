#include "core/baseline.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "core/encoding_cache.h"
#include "core/epsilon_predicate.h"
#include "core/join_scratch.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csj {

namespace {

/// A's counters as a natural-order SoA window for batched verification:
/// from the cache when one is wired (built once per community), else
/// repacked into this thread's scratch window (one O(n*d) pass — noise
/// next to the O(nb*na*d) scan it accelerates).
const VerifyWindow* AcquireBaselineWindow(
    const Community& a, const JoinOptions& options,
    std::shared_ptr<const VerifyWindow>* keepalive, JoinStats* stats) {
  if (options.cache != nullptr) {
    *keepalive = options.cache->GetCommunityWindow(a, DigestCommunity(a),
                                                   stats);
    return keepalive->get();
  }
  VerifyWindow& window = internal::GetJoinScratch().window;
  window.Assign(a.size(), a.d(), [&](uint32_t i) { return a.User(i); });
  return &window;
}

}  // namespace

JoinResult ApBaselineJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  CSJ_CHECK_EQ(b.d(), a.d());
  util::Timer timer;
  JoinResult result;
  result.method = "Ap-Baseline";
  result.size_b = b.size();

  const uint32_t nb = b.size();
  const uint32_t na = a.size();
  // Reused across joins: repeated screening calls stop re-allocating.
  std::vector<uint8_t>& used_a = internal::GetJoinScratch().used_a;
  used_a.assign(na, 0);

  const bool batched = na >= kEpsilonBlock;
  std::shared_ptr<const VerifyWindow> keepalive;
  const VerifyWindow* window =
      batched ? AcquireBaselineWindow(a, options, &keepalive, &result.stats)
              : nullptr;
  LazyBatchVerifier<Count, Epsilon> verifier;

  uint32_t offset = 0;
  for (UserId ib = 0; ib < nb; ++ib) {
    const std::span<const Count> vb = b.User(ib);
    if (batched) verifier.Start(*window, vb, options.eps, na);
    bool skip = true;
    for (UserId ia = offset; ia < na; ++ia) {
      if (used_a[ia]) {
        // A contiguous prefix of matched users can be skipped for every
        // later b; once an unmatched a has been seen (skip == false) the
        // offset is pinned behind it.
        if (skip) offset = ia + 1;
        continue;
      }
      skip = false;
      const bool match = batched
                             ? verifier.Matches(ia)
                             : EpsilonMatches(vb, a.User(ia), options.eps);
      const Event event = match ? Event::kMatch : Event::kNoMatch;
      result.stats.Count(event);
      if (options.event_log != nullptr) options.event_log->Add(event, ib, ia);
      if (event == Event::kMatch) {
        result.pairs.push_back(MatchedPair{ib, ia});
        used_a[ia] = 1;
        break;  // approximate rule: first match ends this b's processing
      }
    }
  }

  result.stats.seconds = timer.Seconds();
  return result;
}

JoinResult ExBaselineJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  CSJ_CHECK_EQ(b.d(), a.d());
  util::Timer timer;
  JoinResult result;
  result.method = "Ex-Baseline";
  result.size_b = b.size();

  const uint32_t nb = b.size();
  const uint32_t na = a.size();

  // Candidate collection partitions B's rows. Event logging pins the run
  // to one chunk and (because events must flow one pair at a time)
  // disables batching.
  const bool batched = options.event_log == nullptr && na >= kEpsilonBlock;
  std::shared_ptr<const VerifyWindow> keepalive;
  const VerifyWindow* window =
      batched ? AcquireBaselineWindow(a, options, &keepalive, &result.stats)
              : nullptr;

  const std::vector<MatchedPair>& candidates = internal::CollectCandidates(
      nb, options, &result.stats,
      [&](uint32_t chunk_begin, uint32_t chunk_end, internal::ChunkSlot& slot) {
        JoinStats& stats = slot.stats;
        if (batched) {
          // Exact baseline wants every verdict of the row anyway, so the
          // whole row is one kernel call; survivors come back as a
          // bitmask walked in ascending ia order (identical pair order),
          // and the event tallies collapse to popcounts.
          const uint32_t words = (na + 63) / 64;
          std::vector<uint64_t>& mask = internal::GetJoinScratch().mask;
          mask.resize(words);
          for (UserId ib = chunk_begin; ib < chunk_end; ++ib) {
            EpsilonMatchesMany(b.User(ib), *window, 0, na, options.eps,
                               mask.data());
            uint64_t found = 0;
            for (uint32_t w = 0; w < words; ++w) {
              uint64_t word = mask[w];
              found += static_cast<uint64_t>(std::popcount(word));
              while (word != 0) {
                const UserId ia =
                    w * 64 + static_cast<uint32_t>(std::countr_zero(word));
                slot.edges.push_back(MatchedPair{ib, ia});
                word &= word - 1;
              }
            }
            stats.matches += found;
            stats.no_matches += na - found;
            stats.dimension_compares += na;
          }
          return;
        }
        for (UserId ib = chunk_begin; ib < chunk_end; ++ib) {
          const std::span<const Count> vb = b.User(ib);
          for (UserId ia = 0; ia < na; ++ia) {
            const Event event = EpsilonMatches(vb, a.User(ia), options.eps)
                                    ? Event::kMatch
                                    : Event::kNoMatch;
            stats.Count(event);
            if (options.event_log != nullptr) {
              options.event_log->Add(event, ib, ia);
            }
            if (event == Event::kMatch) {
              slot.edges.push_back(MatchedPair{ib, ia});
            }
          }
        }
      });

  internal::MatchCandidates(candidates, options.matcher, &result);
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace csj
