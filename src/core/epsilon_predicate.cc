#include "core/epsilon_predicate.h"

// EpsilonMatches and the 1-vs-many kernels are the hottest code in the
// system; CSJ_TARGET_CLONES (core/cpu_dispatch.h) compiles them once per
// ISA and dispatches by cpuid at load time.
#include "core/cpu_dispatch.h"

namespace csj {

CSJ_TARGET_CLONES
bool EpsilonMatches(std::span<const Count> b, std::span<const Count> a,
                    Epsilon eps) {
  const size_t d = b.size();
  const Count* pb = b.data();
  const Count* pa = a.data();
  size_t i = 0;
  // Super-blocks: branchless interior (vectorizes), one reduce + test per
  // kEpsilonSuperBlock dimensions.
  for (; i + kEpsilonSuperBlock <= d; i += kEpsilonSuperBlock) {
    Count worst = 0;
    for (size_t k = 0; k < kEpsilonSuperBlock; ++k) {
      const Count x = pb[i + k];
      const Count y = pa[i + k];
      const Count diff = x > y ? x - y : y - x;  // branchless: max - min
      worst = diff > worst ? diff : worst;
    }
    if (worst > eps) return false;
  }
  // Remaining whole kEpsilonBlock blocks, accumulated under one test.
  // `blocked - i` is a multiple of kEpsilonBlock, so the vectorized main
  // loop covers it with no epilogue iterations at runtime.
  const size_t blocked = d - (d - i) % kEpsilonBlock;
  Count worst = 0;
  for (; i < blocked; ++i) {
    const Count x = pb[i];
    const Count y = pa[i];
    const Count diff = x > y ? x - y : y - x;
    worst = diff > worst ? diff : worst;
  }
  if (worst > eps) return false;
  // Scalar tail: d mod kEpsilonBlock dimensions.
  for (; i < d; ++i) {
    const Count x = pb[i];
    const Count y = pa[i];
    const Count diff = x > y ? x - y : y - x;
    worst = diff > worst ? diff : worst;
  }
  return worst <= eps;
}

namespace {

#if defined(__GNUC__) && defined(__x86_64__)
#define CSJ_MANY_VECTOR_EXT 1
#endif

#ifdef CSJ_MANY_VECTOR_EXT

/// One SoA block's lanes as a GCC vector: explicit packed arithmetic, so
/// the per-dimension step is guaranteed to be ONE max/min/sub sequence
/// over all kEpsilonBlock candidates (the autovectorizer reliably
/// scalarized the equivalent loop nest and lost the whole lane win).
template <typename T>
struct ManyVec {
  typedef T type __attribute__((vector_size(kEpsilonBlock * sizeof(T))));
};

/// Shared body of the 1-vs-many kernels. Dimension-major over one block:
/// load the block's 8 contiguous values of dimension k, broadcast the
/// probe's value, accumulate the per-lane worst difference. Every
/// kEpsilonBlock dimensions an all-lanes-dead test abandons the block —
/// the batched analogue of the per-pair early exit, at a granularity
/// fine enough to fire on the paper's d=16 datasets (the per-pair
/// kernel's 32-wide super-block never would). Marked always_inline so
/// each target_clones ISA copy of the public wrappers inlines and
/// compiles this body at its own register width.
template <typename T, typename EpsT>
[[gnu::always_inline]] inline void MatchManyBody(const T* __restrict probe,
                                                 Dim d,
                                                 const BasicVerifyWindow<T>& w,
                                                 uint32_t begin, uint32_t end,
                                                 EpsT eps, uint64_t* mask) {
  using V = typename ManyVec<T>::type;
  const size_t words = (static_cast<size_t>(end - begin) + 63) / 64;
  for (size_t i = 0; i < words; ++i) mask[i] = 0;
  if (begin >= end) return;

  const auto first_block = static_cast<uint32_t>(begin / kEpsilonBlock);
  const auto last_block =
      static_cast<uint32_t>((end + kEpsilonBlock - 1) / kEpsilonBlock);
  for (uint32_t g = first_block; g < last_block; ++g) {
    const T* __restrict base = w.BlockData(g);
    V worst = {};
    size_t k = 0;
    bool dead = false;
    while (k < d) {
      const size_t stop = std::min<size_t>(d, k + kEpsilonBlock);
      for (; k < stop; ++k) {
        V y;
        __builtin_memcpy(&y, base + k * kEpsilonBlock, sizeof(V));
        const V x = V{} + probe[k];  // broadcast
        const V hi = x > y ? x : y;
        const V lo = x > y ? y : x;
        const V diff = hi - lo;
        worst = worst > diff ? worst : diff;
      }
      if (k >= d) break;
      // All lanes already over eps? The whole block is dead.
      T best = worst[0];
      for (size_t l = 1; l < kEpsilonBlock; ++l) {
        best = worst[l] < best ? worst[l] : best;
      }
      if (best > eps) {
        dead = true;
        break;
      }
    }
    if (dead) continue;  // all bits stay 0

    // Emit the block's survivor bits, clipped to [begin, end).
    const uint32_t block_base = g * static_cast<uint32_t>(kEpsilonBlock);
    const uint32_t lane_lo = block_base < begin ? begin - block_base : 0;
    const uint32_t lane_hi =
        std::min<uint32_t>(static_cast<uint32_t>(kEpsilonBlock),
                           end - block_base);
    for (uint32_t l = lane_lo; l < lane_hi; ++l) {
      if (worst[l] <= eps) {
        const uint32_t bit = block_base + l - begin;
        mask[bit >> 6] |= 1ULL << (bit & 63u);
      }
    }
  }
}

#else  // !CSJ_MANY_VECTOR_EXT

/// Portable fallback: plain loops the optimizer may or may not
/// vectorize; verdict-identical to the vector-extension body.
template <typename T, typename EpsT>
inline void MatchManyBody(const T* __restrict probe, Dim d,
                          const BasicVerifyWindow<T>& w, uint32_t begin,
                          uint32_t end, EpsT eps, uint64_t* mask) {
  const size_t words = (static_cast<size_t>(end - begin) + 63) / 64;
  for (size_t i = 0; i < words; ++i) mask[i] = 0;
  if (begin >= end) return;

  const auto first_block = static_cast<uint32_t>(begin / kEpsilonBlock);
  const auto last_block =
      static_cast<uint32_t>((end + kEpsilonBlock - 1) / kEpsilonBlock);
  for (uint32_t g = first_block; g < last_block; ++g) {
    const T* __restrict base = w.BlockData(g);
    T worst[kEpsilonBlock] = {};
    for (size_t k = 0; k < d; ++k) {
      const T x = probe[k];
      const T* __restrict lane = base + k * kEpsilonBlock;
      for (size_t l = 0; l < kEpsilonBlock; ++l) {
        const T y = lane[l];
        const T diff = x > y ? x - y : y - x;
        worst[l] = diff > worst[l] ? diff : worst[l];
      }
    }
    const uint32_t block_base = g * static_cast<uint32_t>(kEpsilonBlock);
    const uint32_t lane_lo = block_base < begin ? begin - block_base : 0;
    const uint32_t lane_hi =
        std::min<uint32_t>(static_cast<uint32_t>(kEpsilonBlock),
                           end - block_base);
    for (uint32_t l = lane_lo; l < lane_hi; ++l) {
      if (worst[l] <= eps) {
        const uint32_t bit = block_base + l - begin;
        mask[bit >> 6] |= 1ULL << (bit & 63u);
      }
    }
  }
}

#endif  // CSJ_MANY_VECTOR_EXT

}  // namespace

CSJ_TARGET_CLONES
void EpsilonMatchesMany(std::span<const Count> b, const VerifyWindow& window,
                        uint32_t begin, uint32_t end, Epsilon eps,
                        uint64_t* mask) {
  MatchManyBody<Count, Epsilon>(b.data(), window.d(), window, begin, end, eps,
                                mask);
}

CSJ_TARGET_CLONES
void EpsilonMatchesManyFloat(std::span<const float> b,
                             const VerifyWindowF& window, uint32_t begin,
                             uint32_t end, float eps_norm, uint64_t* mask) {
  MatchManyBody<float, float>(b.data(), window.d(), window, begin, end,
                              eps_norm, mask);
}

}  // namespace csj
