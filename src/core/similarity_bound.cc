#include "core/similarity_bound.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace csj {

namespace {

/// Per-thread buffers of the bound kernel, so bounding a couple performs
/// no allocation once a thread has seen its largest couple.
struct BoundScratch {
  std::vector<uint64_t> open_maxs;  ///< min-heap of open windows' maxes
  std::vector<uint64_t> ids;
  std::vector<std::pair<uint64_t, uint64_t>> windows;  ///< (min, max)
  std::vector<uint64_t> mins;
  std::vector<uint64_t> maxs;
};

BoundScratch& GetBoundScratch() {
  thread_local BoundScratch scratch;
  return scratch;
}

}  // namespace

uint32_t IntervalPointMatching(std::span<const uint64_t> points,
                               std::span<const uint64_t> mins,
                               const uint64_t* maxs) {
  // Sweep the points upward. A window opens once its min is reached and
  // is dead once its max falls below the current point; each point takes
  // the open window that closes first. Exchange argument: any window the
  // point could take instead ends no earlier, so it stays usable for
  // every later point the taken one could have served.
  std::vector<uint64_t>& open = GetBoundScratch().open_maxs;
  open.clear();
  const auto later = std::greater<uint64_t>{};
  size_t next = 0;
  uint32_t matched = 0;
  for (const uint64_t x : points) {
    for (; next < mins.size() && mins[next] <= x; ++next) {
      open.push_back(maxs[next]);
      std::push_heap(open.begin(), open.end(), later);
    }
    while (!open.empty() && open.front() < x) {
      std::pop_heap(open.begin(), open.end(), later);
      open.pop_back();
    }
    if (open.empty()) {
      if (next == mins.size()) break;  // no window left for any point
      continue;
    }
    std::pop_heap(open.begin(), open.end(), later);
    open.pop_back();
    ++matched;
  }
  return matched;
}

uint32_t MatchingUpperBound(const Community& b, const Community& a,
                            Epsilon eps) {
  CSJ_CHECK_EQ(b.d(), a.d());
  if (b.empty() || a.empty()) return 0;
  const Dim d = b.d();
  BoundScratch& scratch = GetBoundScratch();

  // B side: encoded ids (total counter sums), ascending.
  std::vector<uint64_t>& ids = scratch.ids;
  ids.clear();
  for (UserId u = 0; u < b.size(); ++u) {
    uint64_t id = 0;
    for (const Count c : b.User(u)) id += c;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  // A side: encoded windows [sum max(0, v-eps), sum (v+eps)], ascending
  // by min — the columns EncodedA holds, in the order it holds them.
  std::vector<std::pair<uint64_t, uint64_t>>& windows = scratch.windows;
  windows.clear();
  for (UserId u = 0; u < a.size(); ++u) {
    const std::span<const Count> vec = a.User(u);
    uint64_t lo = 0;
    uint64_t hi = 0;
    for (Dim k = 0; k < d; ++k) {
      lo += vec[k] >= eps ? vec[k] - eps : 0;
      hi += static_cast<uint64_t>(vec[k]) + eps;
    }
    windows.emplace_back(lo, hi);
  }
  std::sort(windows.begin(), windows.end());
  scratch.mins.clear();
  scratch.maxs.clear();
  for (const auto& [lo, hi] : windows) {
    scratch.mins.push_back(lo);
    scratch.maxs.push_back(hi);
  }
  return IntervalPointMatching(ids, scratch.mins, scratch.maxs.data());
}

double SimilarityUpperBound(const Community& b, const Community& a,
                            Epsilon eps) {
  if (b.empty()) return 0.0;
  return static_cast<double>(MatchingUpperBound(b, a, eps)) /
         static_cast<double>(b.size());
}

}  // namespace csj
