#ifndef CSJ_CORE_EPSILON_PREDICATE_H_
#define CSJ_CORE_EPSILON_PREDICATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"

namespace csj {

namespace internal {

/// std::allocator whose construct() DEFAULT-initializes value-less
/// elements instead of VALUE-initializing them: vector::resize stops
/// zero-filling trivial element types. Only for containers whose owner
/// overwrites every element itself (BasicVerifyWindow::Assign does) —
/// resized-in elements hold garbage until then.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace internal

/// Vectorization block of EpsilonMatches. Eight 32-bit counters fill two
/// SSE registers (one AVX2 register); the kernel accumulates whole
/// multiples of this width branchlessly so the auto-vectorizer maps the
/// loop onto packed min/max ops.
inline constexpr size_t kEpsilonBlock = 8;

/// Early-exit granularity of EpsilonMatches: the accumulated worst
/// difference is tested against eps once per this many dimensions. A
/// horizontal vector reduction is expensive relative to the packed
/// min/max work, so testing per 8-wide block would eat the vector win;
/// testing per 32 keeps the reduction cost amortized while bounding the
/// work wasted on an early-diverging pair.
inline constexpr size_t kEpsilonSuperBlock = 32;

/// The CSJ match condition (paper §3): two users match iff
/// |b_i - a_i| <= eps for EVERY dimension i — an L-infinity test, not an
/// aggregated distance.
///
/// Dimensions are processed in fixed-width blocks: super-blocks of
/// kEpsilonSuperBlock accumulate the largest per-dimension difference
/// with branchless min/max arithmetic (no data-dependent branches inside
/// a super-block, so the loop auto-vectorizes at kEpsilonBlock lanes)
/// and a single compare rejects the pair at the first violating
/// super-block. The remaining whole kEpsilonBlock blocks are accumulated
/// the same way under one test, and the scalar tail handles
/// `d mod kEpsilonBlock`.
///
/// Defined out of line so the translation unit can be function-
/// multiversioned: on x86-64 ELF toolchains the kernel is cloned for
/// SSE4.2/AVX2/AVX-512 and dispatched by cpuid at load time, giving the
/// wide-vector code path without changing the build's baseline -march.
bool EpsilonMatches(std::span<const Count> b, std::span<const Count> a,
                    Epsilon eps);

/// A candidate window in SoA, dimension-blocked layout for the 1-vs-many
/// batched verification kernel (EpsilonMatchesMany).
///
/// Candidates are grouped into blocks of kEpsilonBlock (8); inside a block
/// the layout is dimension-major: the 8 candidates' values of dimension k
/// sit contiguously, so the kernel loads one full vector register per
/// dimension and broadcasts the probe's value against it — no horizontal
/// reduction, no strided row gathers. The last block is padded with T{}
/// lanes; padded lanes are computed but their result bits are never
/// emitted.
///
/// value(i, k) lives at data[(i / 8) * 8 * d + k * 8 + (i % 8)].
template <typename T>
class BasicVerifyWindow {
 public:
  uint32_t size() const { return n_; }
  Dim d() const { return d_; }
  bool empty() const { return n_ == 0; }

  /// Packed element count of an (n, d) window: whole blocks of
  /// kEpsilonBlock lanes, the last one padded: the value count of the
  /// packed buffer BlockData(0) starts.
  static size_t PaddedCount(uint32_t n, Dim d) {
    const size_t blocks =
        (static_cast<size_t>(n) + kEpsilonBlock - 1) / kEpsilonBlock;
    return blocks * kEpsilonBlock * d;
  }

  /// First value of block `g` (the 8 lane values of dimension 0).
  const T* BlockData(uint32_t g) const {
    return data_.data() + static_cast<size_t>(g) * kEpsilonBlock * d_;
  }

  /// One candidate's value of one dimension (tests / debugging; the
  /// kernel walks BlockData directly).
  T Value(uint32_t i, Dim k) const {
    return data_[(static_cast<size_t>(i) / kEpsilonBlock) * kEpsilonBlock *
                    d_ +
                static_cast<size_t>(k) * kEpsilonBlock + i % kEpsilonBlock];
  }

  /// (Re)packs the window from `n` rows of `d` values each; `row(i)` must
  /// return a span of exactly `d` values. Reuses the existing buffer's
  /// capacity, so a scratch window costs no allocation after warm-up.
  template <typename RowFn>
  void Assign(uint32_t n, Dim d, RowFn&& row) {
    n_ = n;
    d_ = d;
    const size_t blocks = (static_cast<size_t>(n) + kEpsilonBlock - 1) /
                          kEpsilonBlock;
    // The default-init allocator makes this resize allocation-only; the
    // block-major loop below writes every slot exactly once (real lanes
    // from the rows, padding lanes T{}) in one sequential output pass —
    // no zero-fill-then-scatter double write.
    data_.resize(blocks * kEpsilonBlock * d);
    for (size_t g = 0; g < blocks; ++g) {
      T* base = data_.data() + g * kEpsilonBlock * d;
      const uint32_t first = static_cast<uint32_t>(g * kEpsilonBlock);
      const uint32_t lanes =
          std::min<uint32_t>(kEpsilonBlock, n - first);
      std::span<const T> rows[kEpsilonBlock];
      for (uint32_t l = 0; l < lanes; ++l) rows[l] = row(first + l);
      for (Dim k = 0; k < d; ++k) {
        T* lane = base + static_cast<size_t>(k) * kEpsilonBlock;
        uint32_t l = 0;
        for (; l < lanes; ++l) lane[l] = rows[l][k];
        for (; l < kEpsilonBlock; ++l) lane[l] = T{};
      }
    }
  }

  /// Approximate heap footprint (the cache's memory accounting).
  size_t MemoryBytes() const { return data_.capacity() * sizeof(T); }

 private:
  uint32_t n_ = 0;
  Dim d_ = 0;
  std::vector<T, internal::DefaultInitAllocator<T>> data_;
};

/// Integer-domain window (Community counters, EncodedA order, hybrid
/// grids) and the float window of SuperEGO's normalized rows.
using VerifyWindow = BasicVerifyWindow<Count>;
using VerifyWindowF = BasicVerifyWindow<float>;

/// The 1-vs-many batched verify kernel: tests `b` against every window
/// candidate in [begin, end) and writes a survivor bitmask — bit (i -
/// begin) of `mask` is 1 iff candidate i eps-matches b. `mask` must hold
/// ceil((end - begin) / 64) words; the kernel zeroes them first.
///
/// Verdicts are EXACTLY EpsilonMatches(b, candidate, eps) — the integer
/// arithmetic is identical, so callers may mix the two paths freely (the
/// joins do: batched on long candidate runs, per-pair on short ones).
/// Dispatch matches EpsilonMatches: SSE4.2/AVX2/AVX-512 function
/// multiversioning on x86-64 ELF builds.
void EpsilonMatchesMany(std::span<const Count> b, const VerifyWindow& window,
                        uint32_t begin, uint32_t end, Epsilon eps,
                        uint64_t* mask);

/// Float-domain batched verify for SuperEGO leaves: bit i-begin is 1 iff
/// every dimension's |b_k - candidate_k| <= eps_norm, bit-identical to
/// ego::EpsMatchesFloat (float max and subtraction are exact here).
void EpsilonMatchesManyFloat(std::span<const float> b,
                             const VerifyWindowF& window, uint32_t begin,
                             uint32_t end, float eps_norm, uint64_t* mask);

namespace internal {

inline void MatchManyDispatch(std::span<const Count> b,
                              const VerifyWindow& window, uint32_t begin,
                              uint32_t end, Epsilon eps, uint64_t* mask) {
  EpsilonMatchesMany(b, window, begin, end, eps, mask);
}

inline void MatchManyDispatch(std::span<const float> b,
                              const VerifyWindowF& window, uint32_t begin,
                              uint32_t end, float eps_norm, uint64_t* mask) {
  EpsilonMatchesManyFloat(b, window, begin, end, eps_norm, mask);
}

}  // namespace internal

/// Chunked adapter from the scan loops' one-candidate-at-a-time shape to
/// the batched kernel: the first Matches(i) query inside an uncovered
/// block batch-verifies that candidate's whole SoA block (kEpsilonBlock
/// lanes, block-aligned so the kernel touches exactly one block) and
/// later queries read bits. One block costs about one scalar verify — the
/// packed ops cover all 8 lanes per dimension step — so sparse scans
/// (heavy NO-OVERLAP filtering, first-match early exit) roughly break
/// even while dense scans collect the full lane win. `limit` caps the
/// chunk at the end of the reachable run so narrow encoded windows don't
/// over-verify.
template <typename T, typename EpsT>
class LazyBatchVerifier {
 public:
  static constexpr uint32_t kChunk = static_cast<uint32_t>(kEpsilonBlock);

  /// Begins a new probe scan. Queries must stay in [0, limit).
  void Start(const BasicVerifyWindow<T>& window, std::span<const T> b,
             EpsT eps, uint32_t limit) {
    window_ = &window;
    b_ = b;
    eps_ = eps;
    limit_ = std::min(limit, window.size());
    chunk_begin_ = 0;
    chunk_end_ = 0;
  }

  /// Verdict for candidate i (== EpsilonMatches against window row i).
  bool Matches(uint32_t i) {
    if (i < chunk_begin_ || i >= chunk_end_) {
      chunk_begin_ = i & ~(kChunk - 1);  // block-aligned
      chunk_end_ = std::min(chunk_begin_ + kChunk, limit_);
      internal::MatchManyDispatch(b_, *window_, chunk_begin_, chunk_end_,
                                  eps_, &mask_);
    }
    return (mask_ >> (i - chunk_begin_)) & 1u;
  }

 private:
  const BasicVerifyWindow<T>* window_ = nullptr;
  std::span<const T> b_;
  EpsT eps_{};
  uint32_t limit_ = 0;
  uint32_t chunk_begin_ = 0;
  uint32_t chunk_end_ = 0;
  uint64_t mask_ = 0;
};

/// Chebyshev (L-infinity) distance between two counter vectors; the CSJ
/// condition is exactly `ChebyshevDistance(b, a) <= eps`. Deliberately
/// kept as the straightforward scalar loop: it is the independent oracle
/// the tests validate the blocked EpsilonMatches against.
inline Count ChebyshevDistance(std::span<const Count> b,
                               std::span<const Count> a) {
  Count worst = 0;
  const size_t d = b.size();
  for (size_t i = 0; i < d; ++i) {
    const Count lo = b[i] < a[i] ? b[i] : a[i];
    const Count hi = b[i] < a[i] ? a[i] : b[i];
    const Count diff = hi - lo;
    if (diff > worst) worst = diff;
  }
  return worst;
}

}  // namespace csj

#endif  // CSJ_CORE_EPSILON_PREDICATE_H_
