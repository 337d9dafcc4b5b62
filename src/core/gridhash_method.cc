#include "core/gridhash_method.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/epsilon_predicate.h"
#include "core/join_scratch.h"
#include "ego/dimension_reorder.h"
#include "ego/integer_grid.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csj {

namespace {

/// Epsilon-grid hash over the most selective dimensions of the couple.
class GridIndex {
 public:
  GridIndex(const Community& b, const Community& a,
            const JoinOptions& options)
      : eps_(std::max<Epsilon>(options.eps, 1)) {
    Count max_count = std::max(b.MaxCounter(), a.MaxCounter());
    if (max_count == 0) max_count = 1;
    std::vector<Dim> order =
        ego::ComputeDimensionOrder(b, a, eps_, max_count);
    const uint32_t k = std::clamp<uint32_t>(options.gridhash_dims, 1, b.d());
    dims_.assign(order.begin(), order.begin() + k);

    buckets_.reserve(a.size());
    for (UserId u = 0; u < a.size(); ++u) {
      buckets_[KeyOf(a.User(u), /*offsets=*/nullptr)].push_back(u);
    }
  }

  /// Calls `visit(a_id)` for every A user in the 3^k cells neighbouring
  /// `vec`'s cell. A hash collision can only ADD candidates (two distinct
  /// cell tuples sharing a key), never lose one, so the probe is a strict
  /// superset of the true eps-neighbourhood in the indexed dimensions.
  template <typename Visitor>
  void Probe(std::span<const Count> vec, Visitor&& visit) const {
    const auto k = static_cast<uint32_t>(dims_.size());
    std::vector<int32_t> offsets(k, -1);
    while (true) {
      const auto it = buckets_.find(KeyOf(vec, offsets.data()));
      if (it != buckets_.end()) {
        for (const UserId a : it->second) visit(a);
      }
      // Advance the {-1,0,1}^k counter.
      uint32_t pos = 0;
      while (pos < k && offsets[pos] == 1) offsets[pos++] = -1;
      if (pos == k) break;
      ++offsets[pos];
    }
  }

 private:
  /// Mixes the (optionally offset) cell coordinates of the indexed
  /// dimensions into one 64-bit key.
  uint64_t KeyOf(std::span<const Count> vec, const int32_t* offsets) const {
    uint64_t key = 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < dims_.size(); ++i) {
      int64_t cell = ego::IntegerCellOf(vec[dims_[i]], eps_);
      if (offsets != nullptr) cell += offsets[i];
      key ^= static_cast<uint64_t>(cell) + 0x9E3779B97F4A7C15ULL +
             (key << 6) + (key >> 2);
    }
    return key;
  }

  Epsilon eps_;
  std::vector<Dim> dims_;
  std::unordered_map<uint64_t, std::vector<UserId>> buckets_;
};

}  // namespace

JoinResult ApGridHashJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  CSJ_CHECK_EQ(b.d(), a.d());
  util::Timer timer;
  JoinResult result;
  result.method = "Ap-GridHash";
  result.size_b = b.size();
  if (b.empty() || a.empty()) {
    result.stats.seconds = timer.Seconds();
    return result;
  }

  const GridIndex index(b, a, options);
  std::vector<bool> used_a(a.size(), false);
  for (UserId ib = 0; ib < b.size(); ++ib) {
    const std::span<const Count> vb = b.User(ib);
    bool matched = false;
    index.Probe(vb, [&](UserId ia) {
      if (matched || used_a[ia]) return;
      const bool match = EpsilonMatches(vb, a.User(ia), options.eps);
      result.stats.Count(match ? Event::kMatch : Event::kNoMatch);
      if (match) {
        result.pairs.push_back(MatchedPair{ib, ia});
        used_a[ia] = true;
        matched = true;  // approximate rule: first match ends this b
      }
    });
  }

  result.stats.seconds = timer.Seconds();
  return result;
}

JoinResult ExGridHashJoin(const Community& b, const Community& a,
                          const JoinOptions& options) {
  CSJ_CHECK_EQ(b.d(), a.d());
  util::Timer timer;
  JoinResult result;
  result.method = "Ex-GridHash";
  result.size_b = b.size();
  if (b.empty() || a.empty()) {
    result.stats.seconds = timer.Seconds();
    return result;
  }

  const GridIndex index(b, a, options);
  std::vector<MatchedPair> candidates;
  for (UserId ib = 0; ib < b.size(); ++ib) {
    const std::span<const Count> vb = b.User(ib);
    index.Probe(vb, [&](UserId ia) {
      const bool match = EpsilonMatches(vb, a.User(ia), options.eps);
      result.stats.Count(match ? Event::kMatch : Event::kNoMatch);
      if (match) candidates.push_back(MatchedPair{ib, ia});
    });
  }

  internal::MatchCandidates(candidates, options.matcher, &result);
  result.stats.seconds = timer.Seconds();
  return result;
}

}  // namespace csj
