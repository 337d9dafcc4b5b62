#include "ego/dimension_reorder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/logging.h"

namespace csj::ego {

std::vector<double> DimensionFailureProbabilities(const Community& b,
                                                  const Community& a,
                                                  Epsilon eps, Count max_count,
                                                  uint32_t max_buckets) {
  CSJ_CHECK_EQ(b.d(), a.d());
  CSJ_CHECK_GT(max_count, 0u);
  const Dim d = b.d();

  // One bucket per epsilon cell, capped: with the cap the buckets are
  // coarser than a cell, which only makes the failure-probability estimate
  // pessimistic uniformly across dimensions — the relative order survives.
  const double cells = static_cast<double>(max_count) / std::max<double>(eps, 1);
  const uint32_t buckets = static_cast<uint32_t>(
      std::clamp<double>(std::ceil(cells), 1.0, max_buckets));

  // The bucket of a value is util::Histogram's over [0, 1]: the same
  // width, the same floor and the same clamp into the edge buckets.
  const double width = 1.0 / static_cast<double>(buckets);
  const double inv_max = 1.0 / static_cast<double>(max_count);
  const auto bucket_of = [&](Count count) {
    const double offset = static_cast<double>(count) * inv_max / width;
    const auto raw = static_cast<int64_t>(std::floor(offset));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(raw, 0, static_cast<int64_t>(buckets) - 1));
  };
  const auto total =
      static_cast<double>(static_cast<uint64_t>(b.size()) + a.size());

  std::vector<double> failure(d, 1.0);  // an empty histogram's value
  if (b.size() + a.size() == 0) return failure;
  // One count array serves every dimension: only the occupied buckets
  // are listed, read and reset.
  std::vector<uint64_t> counts(buckets, 0);
  std::vector<uint32_t> occupied;
  for (Dim dim = 0; dim < d; ++dim) {
    occupied.clear();
    const auto add = [&](const Community& community) {
      for (UserId u = 0; u < community.size(); ++u) {
        const uint32_t bucket = bucket_of(community.User(u)[dim]);
        if (counts[bucket]++ == 0) occupied.push_back(bucket);
      }
    };
    add(b);
    add(a);
    std::sort(occupied.begin(), occupied.end());
    const auto fraction = [&](uint32_t bucket) {
      return static_cast<double>(counts[bucket]) / total;
    };
    // The dense sum adds every neighbour's fraction; an empty neighbour
    // adds an exact 0.0, so skipping it leaves every partial sum's bits
    // unchanged.
    double p = 0.0;
    for (size_t j = 0; j < occupied.size(); ++j) {
      const uint32_t i = occupied[j];
      const double fi = fraction(i);
      double neighborhood = fi;
      if (j > 0 && occupied[j - 1] + 1 == i) {
        neighborhood += fraction(i - 1);
      }
      if (j + 1 < occupied.size() && occupied[j + 1] == i + 1) {
        neighborhood += fraction(i + 1);
      }
      p += fi * neighborhood;
    }
    failure[dim] = p;
    for (const uint32_t bucket : occupied) counts[bucket] = 0;
  }
  return failure;
}

std::vector<Dim> ComputeDimensionOrder(const Community& b, const Community& a,
                                       Epsilon eps, Count max_count,
                                       uint32_t max_buckets) {
  const std::vector<double> failure =
      DimensionFailureProbabilities(b, a, eps, max_count, max_buckets);
  std::vector<Dim> order(b.d());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](Dim x, Dim y) {
    if (failure[x] != failure[y]) return failure[x] < failure[y];
    return x < y;
  });
  return order;
}

}  // namespace csj::ego
