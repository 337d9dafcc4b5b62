#include "core/dimension_reach.h"

#include <algorithm>
#include <limits>
#include <span>

#include "util/logging.h"

namespace csj {

namespace {

constexpr uint64_t kMaxCount = std::numeric_limits<Count>::max();

/// Sets bits [lo, hi] (inclusive) of `words` a word at a time.
void SetBits(uint64_t* words, uint64_t lo, uint64_t hi) {
  const uint64_t first = lo >> 6;
  const uint64_t last = hi >> 6;
  const uint64_t head = ~uint64_t{0} << (lo & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - (hi & 63));
  if (first == last) {
    words[first] |= head & tail;
    return;
  }
  words[first] |= head;
  std::fill(words + first + 1, words + last, ~uint64_t{0});
  words[last] |= tail;
}

}  // namespace

DimensionReach::DimensionReach(const Community& query, Epsilon eps)
    : d_(query.d()), empty_query_(query.empty()) {
  if (empty_query_) return;
  const uint32_t n = query.size();
  // Offsets into the filter arrays are 32-bit: a query within the wire's
  // payload limit is far below this.
  const size_t budget =
      kMemoryMultiple * size_t{n} * size_t{d_} * sizeof(Count);
  CSJ_CHECK_LE(budget / sizeof(uint64_t), size_t{UINT32_MAX});

  // Merge each dimension's eps-intervals. Sorted values give ascending
  // lower ends and, after clamping, ascending upper ends, so an interval
  // either extends the last one or starts a new one.
  struct Plan {
    Filter filter;
    uint64_t words = 0;    ///< bitmap words over [0, max_k + eps]
    double density = 0.0;  ///< covered share of [0, max_k + eps]
  };
  std::vector<Plan> plans;
  std::vector<Interval> merged;
  std::vector<Count> column(n);
  for (Dim k = 0; k < d_; ++k) {
    for (UserId u = 0; u < n; ++u) column[u] = query.User(u)[k];
    std::sort(column.begin(), column.end());
    const size_t begin = merged.size();
    for (const Count v : column) {
      const Count lo = v >= eps ? v - eps : 0;
      const auto hi = static_cast<Count>(
          std::min<uint64_t>(uint64_t{v} + eps, kMaxCount));
      if (merged.size() > begin &&
          uint64_t{lo} <= uint64_t{merged.back().hi} + 1) {
        merged.back().hi = hi;
      } else {
        merged.push_back(Interval{lo, hi});
      }
    }
    if (merged.size() == begin + 1 && merged[begin].lo == 0 &&
        merged[begin].hi == kMaxCount) {
      merged.resize(begin);  // every counter value is reachable
      continue;
    }
    uint64_t covered = 0;
    for (size_t i = begin; i < merged.size(); ++i) {
      covered += uint64_t{merged[i].hi} - merged[i].lo + 1;
    }
    const uint64_t span = uint64_t{merged.back().hi} + 1;
    plans.push_back(Plan{
        Filter{k, static_cast<uint32_t>(begin),
               static_cast<uint32_t>(merged.size() - begin), false},
        (span + 63) / 64,
        static_cast<double>(covered) / static_cast<double>(span)});
  }

  // The budget. Interval lists for every filtered dimension always fit:
  // at most one filter per dimension and one interval per counter, and
  // sizeof(Filter) + sizeof(Interval) stays within the multiple. What is
  // left buys bitmaps, smallest first; each frees its intervals.
  static_assert(sizeof(Filter) + sizeof(Interval) <=
                kMemoryMultiple * sizeof(Count));
  size_t spare = budget - plans.size() * sizeof(Filter) -
                 merged.size() * sizeof(Interval);
  std::vector<Plan*> by_words;
  by_words.reserve(plans.size());
  for (Plan& plan : plans) by_words.push_back(&plan);
  std::sort(by_words.begin(), by_words.end(),
            [](const Plan* x, const Plan* y) {
              return x->words != y->words ? x->words < y->words
                                          : x->filter.dim < y->filter.dim;
            });
  size_t total_words = 0;
  size_t total_intervals = merged.size();
  for (Plan* plan : by_words) {
    const size_t bitmap_bytes = plan->words * sizeof(uint64_t);
    const size_t freed = plan->filter.size * sizeof(Interval);
    if (bitmap_bytes > spare + freed) continue;
    spare = spare + freed - bitmap_bytes;
    plan->filter.bitmap = true;
    total_words += plan->words;
    total_intervals -= plan->filter.size;
  }

  // Lay the filters out sparsest first.
  std::sort(plans.begin(), plans.end(), [](const Plan& x, const Plan& y) {
    return x.density != y.density ? x.density < y.density
                                  : x.filter.dim < y.filter.dim;
  });
  filters_.reserve(plans.size());
  bits_.reserve(total_words);
  intervals_.reserve(total_intervals);
  for (const Plan& plan : plans) {
    const Interval* first = merged.data() + plan.filter.begin;
    const Interval* last = first + plan.filter.size;
    Filter filter = plan.filter;
    if (filter.bitmap) {
      filter.begin = static_cast<uint32_t>(bits_.size());
      filter.size = static_cast<uint32_t>(plan.words);
      bits_.resize(bits_.size() + plan.words, 0);
      uint64_t* words = bits_.data() + filter.begin;
      for (const Interval* it = first; it != last; ++it) {
        SetBits(words, it->lo, it->hi);
      }
      ++bitmap_dims_;
    } else {
      filter.begin = static_cast<uint32_t>(intervals_.size());
      intervals_.insert(intervals_.end(), first, last);
    }
    filters_.push_back(filter);
  }
}

bool DimensionReach::Reachable(const Count* row) const {
  for (const Filter& filter : filters_) {
    const Count v = row[filter.dim];
    if (filter.bitmap) {
      const uint32_t word = v >> 6;
      if (word >= filter.size ||
          ((bits_[filter.begin + word] >> (v & 63)) & 1) == 0) {
        return false;
      }
    } else {
      // The first interval ending at or above v is the only one that can
      // hold it.
      const Interval* first = intervals_.data() + filter.begin;
      const Interval* last = first + filter.size;
      const Interval* it = std::lower_bound(
          first, last, v,
          [](const Interval& interval, Count x) { return interval.hi < x; });
      if (it == last || it->lo > v) return false;
    }
  }
  return true;
}

uint32_t DimensionReach::CountReachable(const Community& other) const {
  CSJ_CHECK_EQ(other.d(), d_);
  if (empty_query_) return 0;
  const uint32_t n = other.size();
  uint32_t reachable = 0;
  const Count* row = other.flat().data();
  for (UserId u = 0; u < n; ++u, row += d_) {
    if (Reachable(row)) ++reachable;
  }
  return reachable;
}

void DimensionReach::Prefetch(const Community& other) {
  // Every line of the rows up to the cap: a community is one allocation
  // that the count walks front to back, but too short a stream for the
  // hardware prefetcher to ramp up on before it ends.
  const std::span<const Count> flat = other.flat();
  const auto* first = reinterpret_cast<const char*>(flat.data());
  const char* last = first + std::min(flat.size_bytes(), kPrefetchBytes);
  for (const char* line = first; line < last; line += 64) {
    __builtin_prefetch(line);
  }
  if (first != last) __builtin_prefetch(last - 1);
}

size_t DimensionReach::MemoryBytes() const {
  return filters_.capacity() * sizeof(Filter) +
         bits_.capacity() * sizeof(uint64_t) +
         intervals_.capacity() * sizeof(Interval);
}

uint32_t DimensionReach::search_dims() const {
  return static_cast<uint32_t>(filters_.size()) - bitmap_dims_;
}

}  // namespace csj
