#ifndef CSJ_CORE_ENCODING_H_
#define CSJ_CORE_ENCODING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/column_storage.h"
#include "core/community.h"
#include "core/epsilon_predicate.h"
#include "core/types.h"

namespace csj {

/// The MinMax encoding scheme (paper §4, Figure 1).
///
/// A user vector of d counters is split into `parts` contiguous segments.
/// For the B side we keep each segment's counter sum (`part_sums`) and
/// their total (`encoded_id`). For the A side we keep, per segment, the
/// interval of part sums any eps-matching partner could have
/// (`range = [sum of max(0, v_i - eps), sum of (v_i + eps)]`) plus the
/// totals of those interval endpoints (`encoded_min` / `encoded_max`).
///
/// Guarantee (no false dismissals, property-tested): if b eps-matches a,
/// then for every part p `b.part_sums[p] ∈ a.range[p]`, hence
/// `b.encoded_id ∈ [a.encoded_min, a.encoded_max]`. The converse does not
/// hold (footnote 6 of the paper): sums can land inside the ranges without
/// a per-dimension match, so surviving pairs still get the d-dimensional
/// comparison.
///
/// The default of 4 parts is the paper's tradeoff: fewer parts prune less,
/// more parts cost more memory and filter time (bench_ablation_parts
/// reproduces the sweep).
class Encoder {
 public:
  /// `parts` is clamped to [1, d]: more parts than dimensions would leave
  /// empty segments with degenerate [0, eps*0] ranges.
  Encoder(Dim d, Epsilon eps, uint32_t parts = kDefaultParts);

  static constexpr uint32_t kDefaultParts = 4;

  Dim d() const { return d_; }
  Epsilon eps() const { return eps_; }
  uint32_t parts() const { return static_cast<uint32_t>(part_begin_.size()) - 1; }

  /// First dimension of part `p`; part p covers [PartBegin(p), PartBegin(p+1)).
  /// Matches Figure 1's layout for d=27, parts=4: sizes 6|7|7|7.
  Dim PartBegin(uint32_t p) const { return part_begin_[p]; }

  /// Part sums of one vector (size == parts()).
  std::vector<uint64_t> PartSums(std::span<const Count> vec) const;

  /// Allocation-free form of PartSums: writes exactly parts() entries
  /// into `sums`. The encoded-buffer builders call this once per user, so
  /// it must not allocate.
  void PartSumsInto(std::span<const Count> vec,
                    std::span<uint64_t> sums) const;

  /// encoded_id == sum of all counters.
  uint64_t EncodedId(std::span<const Count> vec) const;

  /// Per-part range endpoints of one vector; lo/hi get parts() entries.
  void PartRanges(std::span<const Count> vec, std::vector<uint64_t>* lo,
                  std::vector<uint64_t>* hi) const;

  /// Allocation-free form of PartRanges: writes exactly parts() entries
  /// into each span.
  void PartRangesInto(std::span<const Count> vec, std::span<uint64_t> lo,
                      std::span<uint64_t> hi) const;

 private:
  Dim d_;
  Epsilon eps_;
  std::vector<Dim> part_begin_;  // parts() + 1 boundaries
};

/// The paper's `Encd_B` buffer: per user of B a triple
/// (encoded_id, part sums, real id), ascending by encoded_id.
/// Structure-of-arrays with one flat part-sum buffer — the pairing loop
/// touches ids far more often than part sums.
class EncodedB {
 public:
  /// Encodes every user of `b` and sorts by encoded_id (ties: by real id,
  /// for deterministic traces).
  EncodedB(const Community& b, const Encoder& encoder);

  /// A deserialized buffer: the persist path's restore constructor. The
  /// three columns are BORROWED (mapped segment bytes pinned by `owner`,
  /// already in this class's sorted layout) — zero-copy, byte-identical
  /// to the build constructor by the store's fsck contract.
  struct Columns {
    uint32_t parts = 0;
    uint32_t n = 0;
    const uint64_t* ids = nullptr;   ///< n encoded ids, ascending
    const UserId* real = nullptr;    ///< n real ids
    const uint64_t* sums = nullptr;  ///< n * parts part sums
  };
  EncodedB(const Columns& columns, std::shared_ptr<const void> owner);

  uint32_t size() const { return static_cast<uint32_t>(ids_.size()); }
  uint32_t parts() const { return parts_; }
  uint64_t encoded_id(uint32_t i) const { return ids_[i]; }
  UserId real_id(uint32_t i) const { return real_[i]; }
  std::span<const uint64_t> part_sums(uint32_t i) const {
    return {sums_.data() + static_cast<size_t>(i) * parts_, parts_};
  }

  /// Approximate heap footprint (cache memory accounting; a restored
  /// buffer owns no heap — the mapping is accounted by its owner).
  size_t MemoryBytes() const {
    return ids_.OwnedBytes() + real_.OwnedBytes() + sums_.OwnedBytes();
  }

 private:
  uint32_t parts_;
  ColumnStorage<uint64_t> ids_;
  ColumnStorage<UserId> real_;
  ColumnStorage<uint64_t> sums_;
  std::shared_ptr<const void> owner_;
};

/// The paper's `Encd_A` buffer: per user of A a quadruple
/// (encoded_min, encoded_max, part ranges, real id), ascending by
/// encoded_min (ties: by real id).
class EncodedA {
 public:
  EncodedA(const Community& a, const Encoder& encoder);

  /// A deserialized buffer (see EncodedB::Columns): borrowed columns in
  /// this class's sorted layout, plus the pre-packed SoA verify window
  /// (BasicVerifyWindow::PaddedCount(n, d) values in block-major
  /// layout), all pinned by `owner`.
  struct Columns {
    uint32_t parts = 0;
    uint32_t n = 0;
    Dim d = 0;
    const uint64_t* mins = nullptr;   ///< n encoded mins, ascending
    const uint64_t* maxs = nullptr;   ///< n encoded maxs
    const UserId* real = nullptr;     ///< n real ids
    const uint64_t* cols = nullptr;   ///< n * 2 * parts part-major lo/hi
    const Count* window = nullptr;    ///< PaddedCount(n, d) packed rows
  };
  EncodedA(const Columns& columns, std::shared_ptr<const void> owner);

  uint32_t size() const { return static_cast<uint32_t>(mins_.size()); }
  uint32_t parts() const { return parts_; }
  uint64_t encoded_min(uint32_t i) const { return mins_[i]; }
  uint64_t encoded_max(uint32_t i) const { return maxs_[i]; }
  UserId real_id(uint32_t i) const { return real_[i]; }

  /// Part-major SoA columns of the range endpoints: part p's lo (hi)
  /// values for ALL entries sit contiguously in sorted order, so the
  /// vectorized prescreen of the scan loops loads 8 consecutive
  /// candidates' bounds with one unaligned vector load per part — no
  /// per-candidate row gathers.
  const uint64_t* part_lo(uint32_t p) const {
    return cols_.data() + static_cast<size_t>(2 * p) * mins_.size();
  }
  const uint64_t* part_hi(uint32_t p) const {
    return cols_.data() + static_cast<size_t>(2 * p + 1) * mins_.size();
  }

  /// The full encoded_max column (ascending-by-encoded_min order), for
  /// the prescreen's vector loads.
  const uint64_t* encoded_maxs() const { return maxs_.data(); }

  /// A's counter rows repacked into the SoA dimension-blocked layout in
  /// THIS buffer's sorted order: window row i holds the counters of
  /// real_id(i). Built once with the buffer so every probe's candidate
  /// run [lo, hi) over the sorted entries is a contiguous batched-verify
  /// window for EpsilonMatchesMany.
  const VerifyWindow& window() const { return window_; }

  /// One past the last entry whose encoded_min can admit `id` — entries
  /// are ascending by encoded_min, so [0, UpperBound(id)) is the only
  /// stretch a probe with this encoded id can reach before MIN PRUNE.
  uint32_t UpperBound(uint64_t id) const;

  /// Approximate heap footprint (cache memory accounting; a restored
  /// buffer owns no heap — the mapping is accounted by its owner).
  size_t MemoryBytes() const {
    return mins_.OwnedBytes() + maxs_.OwnedBytes() + cols_.OwnedBytes() +
           real_.OwnedBytes() + window_.MemoryBytes();
  }

 private:
  uint32_t parts_;
  ColumnStorage<uint64_t> mins_;
  ColumnStorage<uint64_t> maxs_;
  ColumnStorage<UserId> real_;
  /// Part-major lo/hi columns, see part_lo().
  ColumnStorage<uint64_t> cols_;
  VerifyWindow window_;
  std::shared_ptr<const void> owner_;
};

/// The NO OVERLAP filter: true iff every part sum of entry `ib` of B lies
/// inside the corresponding range of entry `ia` of A ("complete overlap").
/// Branchless: on the hot scan most candidates FAIL at a part that varies
/// per candidate, so the short-circuiting form mispredicts its exit
/// branch; accumulating all parts' verdicts costs a few extra compares
/// but leaves the caller exactly one well-predicted branch.
inline bool PartsOverlap(const EncodedB& encd_b, uint32_t ib,
                         const EncodedA& encd_a, uint32_t ia) {
  const std::span<const uint64_t> sums = encd_b.part_sums(ib);
  unsigned ok = 1;
  for (size_t p = 0; p < sums.size(); ++p) {
    const auto part = static_cast<uint32_t>(p);
    ok &= static_cast<unsigned>(sums[p] >= encd_a.part_lo(part)[ia]) &
          static_cast<unsigned>(sums[p] <= encd_a.part_hi(part)[ia]);
  }
  return ok != 0;
}

}  // namespace csj

#endif  // CSJ_CORE_ENCODING_H_
