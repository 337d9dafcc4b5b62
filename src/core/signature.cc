#include "core/signature.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/cpu_dispatch.h"
#include "core/similarity.h"
#include "util/logging.h"

namespace csj {
namespace {

constexpr uint32_t kMinQuantiles = 2;
constexpr uint32_t kMaxQuantiles = 256;

uint32_t ClampQuantiles(uint32_t q) {
  return std::clamp(q, kMinQuantiles, kMaxQuantiles);
}

/// Rank of breakpoint j over `n` sorted values: j * (n-1) / Q. Monotone
/// in j, 0 at j = 0, n - 1 at j = Q.
inline uint32_t RankOf(uint32_t j, uint32_t n, uint32_t quantiles) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(j) * (n - 1)) / quantiles);
}

/// Radix-sort all d columns at once through composite (dim << vbits) |
/// counter keys, then read the breakpoint ranks straight out of the
/// sorted key array (column k's nonzeros occupy a contiguous run and
/// the masked low bits are the sorted counters). KeyT is the narrowest
/// unsigned type that holds vbits + dbits: uint16_t halves the radix
/// memory traffic whenever counters and dims fit (they do for d = 27
/// categories until a counter exceeds ~2k).
///
/// Zero counters never enter the key array: they are counted per dim
/// during the key build and resolved as an implicit sorted prefix at
/// rank extraction (zero is the unsigned minimum, so a sorted column is
/// always `zeros[k]` zeros followed by the sorted nonzeros). Profile
/// data is roughly half zeros, and skipping them halves the scatter
/// passes — which are the radix hot spot, serialized by
/// store-to-forward chains whenever consecutive keys land in the same
/// bucket (bucket 0 otherwise absorbs every zero).
template <typename KeyT>
void RadixRankExtract(const Community& community, uint32_t n, Dim d,
                      uint32_t vbits, uint32_t dbits, uint32_t quantiles,
                      const uint32_t* ranks, std::vector<KeyT>& keys,
                      std::vector<KeyT>& aux, std::vector<uint32_t>& zeros,
                      Count* table) {
  const size_t total = static_cast<size_t>(d) * n;
  keys.resize(total);
  aux.resize(total);
  zeros.assign(d, 0);
  const uint32_t passes = (vbits + dbits + 7) / 8;
  CSJ_CHECK(passes <= sizeof(KeyT));
  // Key build is a pure compaction pass: the key is written
  // unconditionally and the cursor advances by the nonzero flag, so a
  // zero counter's slot is simply overwritten by the next key. No
  // accumulator is indexed by key content here — zero runs would
  // otherwise serialize the loop through store-to-load forwarding on
  // one histogram slot. The build doubles as hint audit: the
  // OR-accumulator's width bounds every counter's width, so a hint
  // below the true maximum (which would corrupt keys) aborts instead
  // of mis-sketching.
  Count seen = 0;
  size_t p = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const Count* row = community.User(i).data();
    for (Dim k = 0; k < d; ++k) {
      const Count v = row[k];
      seen |= v;
      keys[p] = static_cast<KeyT>((static_cast<Count>(k) << vbits) | v);
      p += v != 0;
    }
  }
  CSJ_CHECK(static_cast<uint32_t>(std::bit_width(seen)) <= vbits)
      << "max_counter_hint below the true maximum counter";
  const size_t kept = p;
  // Histogram pass over the surviving keys only: every digit histogram
  // for the radix passes below, plus the per-dim nonzero counts (the
  // dim tag is the key's high field), in one ~half-length sweep.
  uint32_t hist[sizeof(KeyT)][256] = {};
  for (size_t i = 0; i < kept; ++i) {
    const KeyT key = keys[i];
    ++zeros[key >> vbits];
    if (passes == 2) {
      ++hist[0][key & 0xFF];
      ++hist[1][(key >> 8) & 0xFF];
    } else {
      for (uint32_t pass = 0; pass < passes; ++pass) {
        ++hist[pass][(key >> (pass * 8)) & 0xFF];
      }
    }
  }
  // `zeros` held nonzero tallies during the sweep; flip it.
  for (Dim k = 0; k < d; ++k) zeros[k] = n - zeros[k];
  KeyT* src = keys.data();
  KeyT* dst = aux.data();
  for (uint32_t pass = 0; pass < passes; ++pass) {
    const uint32_t shift = pass * 8;
    uint32_t* buckets = hist[pass];
    uint32_t sum = 0;
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t count = buckets[b];
      buckets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < kept; ++i) {
      dst[buckets[(src[i] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  const Count mask = vbits >= 32 ? ~Count{0} : (Count{1} << vbits) - 1;
  size_t col_start = 0;
  for (Dim k = 0; k < d; ++k) {
    const uint32_t z = zeros[k];
    const KeyT* column = src + col_start;
    Count* row = table + static_cast<size_t>(k) * (quantiles + 1);
    for (uint32_t j = 0; j <= quantiles; ++j) {
      const uint32_t r = ranks[j];
      row[j] = r < z ? Count{0} : (static_cast<Count>(column[r - z]) & mask);
    }
    col_start += n - z;
  }
}

}  // namespace

CommunitySignature::CommunitySignature(const Community& community,
                                       const SignatureOptions& options) {
  CSJ_CHECK(community.size() > 0) << "cannot sketch an empty community";
  n_ = community.size();
  d_ = community.d();
  quantiles_ = ClampQuantiles(options.quantiles);

  table_.resize(static_cast<size_t>(d_) * (quantiles_ + 1));
  std::vector<Count> column(n_);
  for (Dim k = 0; k < d_; ++k) {
    for (uint32_t i = 0; i < n_; ++i) column[i] = community.User(i)[k];
    std::sort(column.begin(), column.end());
    Count* row = table_.data() + static_cast<size_t>(k) * (quantiles_ + 1);
    for (uint32_t j = 0; j <= quantiles_; ++j) {
      row[j] = column[RankOf(j, n_, quantiles_)];
    }
  }
}

void BuildSketchTable(const Community& community,
                      const SignatureOptions& options, SketchScratch* scratch,
                      Count max_counter_hint, std::span<Count> table) {
  CSJ_CHECK(community.size() > 0) << "cannot sketch an empty community";
  CSJ_CHECK(scratch != nullptr);
  const uint32_t n = community.size();
  const Dim d = community.d();
  const uint32_t quantiles = ClampQuantiles(options.quantiles);
  CSJ_CHECK_EQ(table.size(), static_cast<size_t>(d) * (quantiles + 1));

  // A sketch is d order-statistic rows, one per counter column. Instead
  // of d separate sorts, sort ALL columns at once: pack each counter
  // into a (dim << vbits) | counter key and LSD-radix the keys — the
  // sorted key array is the concatenation of the sorted columns in dim
  // order (zeros included), and equal value multisets sort identically
  // under any algorithm, so the rank reads below reproduce the reference
  // constructor's bytes exactly.
  Count max_counter = max_counter_hint;
  if (max_counter == 0) {
    for (uint32_t i = 0; i < n; ++i) {
      const Count* row = community.User(i).data();
      for (Dim k = 0; k < d; ++k) max_counter = std::max(max_counter, row[k]);
    }
  }
  const uint32_t vbits = std::bit_width(std::max(max_counter, Count{1}));
  const uint32_t dbits = d <= 1 ? 0 : std::bit_width(d - 1);

  // Breakpoint ranks depend on (j, n, quantiles) only — hoist the
  // 64-bit divisions out of the per-dimension loops (d * (Q+1) of them
  // otherwise; the divider is the rank loop's hot instruction).
  uint32_t ranks[kMaxQuantiles + 1];
  for (uint32_t j = 0; j <= quantiles; ++j) {
    ranks[j] = RankOf(j, n, quantiles);
  }

  if (vbits + dbits <= 16) {
    RadixRankExtract<uint16_t>(community, n, d, vbits, dbits, quantiles,
                               ranks, scratch->keys16, scratch->aux16,
                               scratch->zeros, table.data());
    return;
  }
  if (vbits + dbits <= 32) {
    RadixRankExtract<Count>(community, n, d, vbits, dbits, quantiles, ranks,
                            scratch->columns, scratch->aux, scratch->zeros,
                            table.data());
    return;
  }

  // Fallback for counters too wide to share a 32-bit key with the dim
  // tag: transpose once, then per-column sorts of the nonzero tail.
  std::vector<Count>& columns = scratch->columns;
  columns.resize(static_cast<size_t>(d) * n);
  for (uint32_t i = 0; i < n; ++i) {
    const Count* row = community.User(i).data();
    for (Dim k = 0; k < d; ++k) {
      columns[static_cast<size_t>(k) * n + i] = row[k];
    }
  }
  for (Dim k = 0; k < d; ++k) {
    Count* column = columns.data() + static_cast<size_t>(k) * n;
    // Counters are unsigned, so the sorted column is a zero prefix
    // followed by the sorted nonzeros: compact the nonzeros to the
    // front, sort only them, and resolve ranks against the implicit
    // zero prefix.
    uint32_t nonzeros = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const Count v = column[i];
      if (v != 0) column[nonzeros++] = v;
    }
    std::sort(column, column + nonzeros);
    const uint32_t zeros = n - nonzeros;
    Count* row = table.data() + static_cast<size_t>(k) * (quantiles + 1);
    for (uint32_t j = 0; j <= quantiles; ++j) {
      const uint32_t r = ranks[j];
      row[j] = r < zeros ? 0 : column[r - zeros];
    }
  }
}

uint32_t SignatureCountUpperBound(std::span<const Count> row, uint32_t size,
                                  int64_t lo, int64_t hi) {
  const uint32_t quantiles = static_cast<uint32_t>(row.size()) - 1;
  if (hi < static_cast<int64_t>(row[0]) ||
      lo > static_cast<int64_t>(row[quantiles])) {
    return 0;
  }
  // Upper bound on count(value <= hi): the smallest breakpoint above hi
  // sits at rank r_j, so at most r_j values can be <= hi.
  uint32_t ub_leq = size;
  for (uint32_t j = 0; j <= quantiles; ++j) {
    if (static_cast<int64_t>(row[j]) > hi) {
      ub_leq = RankOf(j, size, quantiles);
      break;
    }
  }
  // Lower bound on count(value < lo): the largest breakpoint below lo at
  // rank r_j proves at least r_j + 1 values are < lo.
  uint32_t lb_lt = 0;
  for (uint32_t j = quantiles + 1; j-- > 0;) {
    if (static_cast<int64_t>(row[j]) < lo) {
      lb_lt = RankOf(j, size, quantiles) + 1;
      break;
    }
  }
  return ub_leq > lb_lt ? ub_leq - lb_lt : 0;
}

double SignatureSimilarityCap(const CommunitySignature& query,
                              const CommunitySignature& entry, Epsilon eps,
                              std::span<const Dim> probe_order,
                              double early_exit_below) {
  CSJ_CHECK(query.d() == entry.d()) << "dimensionality mismatch";
  CSJ_CHECK(query.quantiles() == entry.quantiles())
      << "signatures built with different resolutions";
  CSJ_CHECK(probe_order.size() == query.d());
  const uint32_t quantiles = query.quantiles();
  const uint32_t row_len = quantiles + 1;
  const uint32_t bn = std::min(query.size(), entry.size());
  // matched <= min(|B|, |A|) trivially; each probed dimension can only
  // lower the bound.
  uint32_t ub = bn;
  const double denom = static_cast<double>(bn);
  for (Dim k : probe_order) {
    const std::span<const Count> query_row =
        query.table().subspan(static_cast<size_t>(k) * row_len, row_len);
    const std::span<const Count> entry_row =
        entry.table().subspan(static_cast<size_t>(k) * row_len, row_len);
    // Matched users of either side must land inside the other side's
    // eps-extended value span in this dimension.
    const uint32_t in_query = SignatureCountUpperBound(
        query_row, query.size(),
        static_cast<int64_t>(entry_row[0]) - eps,
        static_cast<int64_t>(entry_row[quantiles]) + eps);
    const uint32_t in_entry = SignatureCountUpperBound(
        entry_row, entry.size(),
        static_cast<int64_t>(query_row[0]) - eps,
        static_cast<int64_t>(query_row[quantiles]) + eps);
    ub = std::min(ub, std::min(in_query, in_entry));
    // The same division as the returned cap: an exit here is a cap below
    // the threshold, and the full probe could only lower it further.
    if (static_cast<double>(ub) / denom < early_exit_below) break;
  }
  return static_cast<double>(ub) / denom;
}

std::vector<Dim> SignatureProbeOrder(const CommunitySignature& query) {
  std::vector<Dim> order(query.d());
  std::iota(order.begin(), order.end(), Dim{0});
  std::sort(order.begin(), order.end(), [&](Dim a, Dim b) {
    const Count min_a = query.DimTable(a)[0];
    const Count min_b = query.DimTable(b)[0];
    if (min_a != min_b) return min_a > min_b;
    return a < b;
  });
  return order;
}

Dim SignatureHomeDim(std::span<const Count> table, uint32_t quantiles) {
  const size_t len = quantiles + 1;
  Dim best = 0;
  for (size_t row = len; row < table.size(); row += len) {
    if (table[row] > table[static_cast<size_t>(best) * len]) {
      best = static_cast<Dim>(row / len);
    }
  }
  return best;
}

SignatureIndex::SignatureIndex(const SignatureOptions& options)
    : options_(options) {
  options_.quantiles = ClampQuantiles(options_.quantiles);
}

void SignatureIndex::InstallBatch(std::span<const SlotInstall> batch,
                                  size_t batches) {
  const uint32_t quantiles = options_.quantiles;
  const size_t len = quantiles + 1;
  // Reservation pass: each target pack's table gets room for `batches`
  // times its growth here (an id replaced within its pack needs none), at
  // least doubling: exact reserves would be quadratic over many upserts.
  std::map<PackKey, size_t> growth;
  for (const SlotInstall& element : batch) {
    CSJ_CHECK(!element.table.empty() && element.table.size() % len == 0)
        << "sketch table does not match the index resolution";
    const PackKey key{static_cast<Dim>(element.table.size() / len),
                      SignatureHomeDim(element.table, quantiles)};
    const auto resident = locate_.find(element.id);
    if (resident == locate_.end() || resident->second.first != key) {
      ++growth[key];
    }
  }
  for (const auto& [key, count] : growth) {
    std::vector<Count>& table = packs_[key].table;
    const size_t size = table.size() + count * batches * key.first * len;
    if (size > table.capacity()) {
      table.reserve(std::max(size, 2 * table.capacity()));
    }
  }
  // Same for the id map; its `reserve` rehashes (even shrinks) whenever
  // the bucket count it computes differs, so call it only to grow.
  const size_t located = locate_.size() + batch.size() * batches;
  if (static_cast<double>(located) >
      static_cast<double>(locate_.bucket_count()) * locate_.max_load_factor()) {
    locate_.reserve(std::max(located, 2 * locate_.size()));
  }
  for (const SlotInstall& element : batch) {
    auto it = locate_.find(element.id);
    if (it != locate_.end()) {
      // Replace: drop the old slot first — the community may have changed
      // dimensionality or home category, which moves it to another pack.
      RemoveSlot(it->second.first, it->second.second);
    }
    const auto d = static_cast<Dim>(element.table.size() / len);
    const PackKey key{d, SignatureHomeDim(element.table, quantiles)};
    Pack& pack = packs_[key];
    pack.stride = static_cast<uint32_t>(element.table.size());
    const auto slot = static_cast<uint32_t>(pack.ids.size());
    pack.ids.push_back(element.id);
    pack.versions.push_back(element.version);
    pack.sizes.push_back(element.size);
    pack.table.insert(pack.table.end(), element.table.begin(),
                      element.table.end());
    // Widen the coarse summary (never shrink — see the header note).
    if (pack.dim_min.empty()) {
      pack.dim_min.assign(d, std::numeric_limits<Count>::max());
      pack.dim_max.assign(d, 0);
      pack.min_size = std::numeric_limits<uint32_t>::max();
    }
    for (Dim k = 0; k < d; ++k) {
      const Count* row = element.table.data() + k * len;
      pack.dim_min[k] = std::min(pack.dim_min[k], row[0]);
      pack.dim_max[k] = std::max(pack.dim_max[k], row[quantiles]);
    }
    pack.min_size = std::min(pack.min_size, element.size);
    locate_[element.id] = {key, slot};
  }
}

std::span<const Count> SignatureIndex::Row(uint64_t id) const {
  const auto it = locate_.find(id);
  if (it == locate_.end()) return {};
  const Pack& pack = packs_.at(it->second.first);
  return std::span(pack.table).subspan(
      static_cast<size_t>(it->second.second) * pack.stride, pack.stride);
}

bool SignatureIndex::Remove(uint64_t id) {
  auto it = locate_.find(id);
  if (it == locate_.end()) return false;
  RemoveSlot(it->second.first, it->second.second);
  return true;
}

void SignatureIndex::RemoveSlot(PackKey key, uint32_t slot) {
  auto pack_it = packs_.find(key);
  CSJ_CHECK(pack_it != packs_.end());
  Pack& pack = pack_it->second;
  const uint32_t last = static_cast<uint32_t>(pack.ids.size()) - 1;
  locate_.erase(pack.ids[slot]);
  if (slot != last) {
    // Swap-with-last keeps the columns dense; only the moved id's locate
    // entry needs fixing.
    pack.ids[slot] = pack.ids[last];
    pack.versions[slot] = pack.versions[last];
    pack.sizes[slot] = pack.sizes[last];
    std::memcpy(pack.table.data() + static_cast<size_t>(slot) * pack.stride,
                pack.table.data() + static_cast<size_t>(last) * pack.stride,
                static_cast<size_t>(pack.stride) * sizeof(Count));
    locate_[pack.ids[slot]] = {key, slot};
  }
  pack.ids.pop_back();
  pack.versions.pop_back();
  pack.sizes.pop_back();
  pack.table.resize(pack.table.size() - pack.stride);
}

namespace {

/// Certifies that EVERY slot of `pack` fails the per-slot cap check at
/// `threshold`, from the pack's coarse summary alone. One skip proof in
/// any single dimension suffices; all three proofs below lower-bound the
/// per-slot sweep's own verdict, so a skipped pack contributes no
/// candidate the slot-by-slot path would have admitted:
///
///  - span disjointness: every slot user in k is >= that slot's smallest
///    breakpoint >= dim_min[k]; if the query's eps-extended span in k
///    ends below dim_min[k], every slot's in_entry count is exactly 0,
///    so every cap is 0 < threshold. Symmetrically for dim_max[k] below
///    the span's start.
///  - counting: any slot's in_query count is SignatureCountUpperBound of
///    the query row against THAT slot's eps-extended span, which lies
///    inside [dim_min[k] - eps, dim_max[k] + eps]; the bound is monotone
///    under interval widening, so `ub` dominates every slot's in_query.
///    Any slot's cap denominator bn = min(query, slot size) >= m, and
///    IEEE division is correctly rounded hence monotone in both
///    operands, so double(in_query)/double(bn) <= double(ub)/double(m)
///    slot by slot — the comparison is done in the SAME double
///    arithmetic as the per-slot check on purpose (a threshold*m product
///    form could disagree with it by an ulp).
bool DimProvesPackBelow(const CommunitySignature& query_sig, Epsilon eps,
                        double threshold, double denom, Dim k,
                        std::span<const Count> dim_min,
                        std::span<const Count> dim_max) {
  const uint32_t quantiles = query_sig.quantiles();
  const auto row = query_sig.DimTable(k);
  const int64_t pack_lo = static_cast<int64_t>(dim_min[k]);
  const int64_t pack_hi = static_cast<int64_t>(dim_max[k]);
  if (static_cast<int64_t>(row[quantiles]) + eps < pack_lo) return true;
  if (static_cast<int64_t>(row[0]) - eps > pack_hi) return true;
  const uint32_t ub = SignatureCountUpperBound(row, query_sig.size(),
                                               pack_lo - eps, pack_hi + eps);
  return static_cast<double>(ub) / denom < threshold;
}

bool PackBelowThreshold(const CommunitySignature& query_sig, Epsilon eps,
                        double threshold, std::span<const Dim> probe_order,
                        Dim pack_home, std::span<const Count> dim_min,
                        std::span<const Count> dim_max, uint32_t min_size) {
  const uint32_t m = std::min(query_sig.size(), min_size);
  if (m == 0) return false;
  const double denom = static_cast<double>(m);
  // The pack's home dimension is where same-home slots all hold large
  // counters and unrelated queries hold few, so it proves most skips —
  // try it first. Which dimension fires does not affect the outcome
  // (skip iff ANY dimension proves it).
  if (DimProvesPackBelow(query_sig, eps, threshold, denom, pack_home, dim_min,
                         dim_max)) {
    return true;
  }
  for (Dim k : probe_order) {
    if (k == pack_home) continue;
    if (DimProvesPackBelow(query_sig, eps, threshold, denom, k, dim_min,
                           dim_max)) {
      return true;
    }
  }
  return false;
}

/// A couple's per-side count bounds, tabulated: of `n` values sketched
/// at ranks r_j = j * (n - 1) / Q, at most ub[c] lie at or
/// below a value that exactly c breakpoints reach (r_c, or all of them
/// at c = Q + 1), and at least lb[c] lie below a value that c breakpoints
/// lie below (r_{c-1} + 1, or none at c = 0). Bound() is then
/// SignatureCountUpperBound's rank arithmetic for a span, from the two
/// breakpoint counts of a sorted row.
struct RankRows {
  uint32_t ub[kMaxQuantiles + 2];
  uint32_t lb[kMaxQuantiles + 2];

  RankRows(uint32_t n, uint32_t quantiles) {
    // r_j = j * t + (j * r) / Q with n - 1 = Q * t + r, stepped without
    // a division per breakpoint.
    const uint32_t t = (n - 1) / quantiles;
    const uint32_t r = (n - 1) % quantiles;
    uint32_t rank = 0;
    uint32_t rem = 0;
    lb[0] = 0;
    for (uint32_t j = 0; j <= quantiles; ++j) {
      ub[j] = rank;
      lb[j + 1] = rank + 1;
      rem += r;
      const uint32_t carry = rem >= quantiles ? 1u : 0u;
      rem -= carry * quantiles;
      rank += t + carry;
    }
    ub[quantiles + 1] = n;
  }

  uint32_t Bound(uint32_t le, uint32_t lt) const {
    return ub[le] > lb[lt] ? ub[le] - lb[lt] : 0;
  }
};

/// The eps-extended span of a row, clamped to the counter range (no
/// counter lies below 0 or above the maximum, so clamping changes no
/// count).
constexpr Count kMaxCount = std::numeric_limits<Count>::max();
inline Count SpanLo(Count v, Epsilon eps) { return v > eps ? v - eps : 0; }
inline Count SpanHi(Count v, Epsilon eps) {
  return eps > kMaxCount - v ? kMaxCount : v + eps;
}

/// What the sweep holds per query: its rows and rank rows. O(quantiles)
/// beyond the query's own sketch, whatever d the query carries.
struct SweepQuery {
  const Count* table = nullptr;
  uint32_t size = 0;
  uint32_t len = 0;  ///< quantiles + 1
  Dim d = 0;
  Dim first = 0;  ///< the first probe dimension
  Epsilon eps = 0;
  double threshold = 0.0;
  RankRows ranks;

  SweepQuery(const CommunitySignature& query, Epsilon query_eps,
             double query_threshold, Dim first_probe)
      : table(query.table().data()),
        size(query.size()),
        len(query.quantiles() + 1),
        d(query.d()),
        first(first_probe),
        eps(query_eps),
        threshold(query_threshold),
        ranks(query.size(), query.quantiles()) {}
};

/// Slots ahead of the sweep whose first-probe rows are prefetched.
constexpr uint32_t kSweepPrefetch = 8;

/// The breakpoint counts of one dimension: how many of the entry row's
/// breakpoints the query's eps-extended span reaches (le) and lies above
/// (lt), and the same for the query row against the entry's span.
struct DimCounts {
  uint32_t entry_le = 0;
  uint32_t entry_lt = 0;
  uint32_t query_le = 0;
  uint32_t query_lt = 0;
};

#if defined(__GNUC__) && defined(__x86_64__)
#define CSJ_SWEEP_VECTOR_EXT 1

/// Sixteen breakpoints: one AVX-512 register, two AVX2 or four SSE ones
/// per packed step, whichever clone runs.
typedef Count SweepLanes __attribute__((vector_size(64)));
constexpr uint32_t kSweepLanes = sizeof(SweepLanes) / sizeof(Count);

/// Lane tallies of a row against a span: per lane, how many of its
/// values lie at or below the span's end (`le`) and below its start
/// (`lt`). A compare yields -1 per true lane, so subtracting counts.
struct RowTally {
  SweepLanes le = {};
  SweepLanes lt = {};
};

/// Tallies a row of len >= kSweepLanes. Whole blocks first; a ragged end
/// is one more block that overlaps its predecessor, with the lanes
/// already tallied switched off — no scalar tail, no read outside the
/// row.
[[gnu::always_inline]] inline void TallyRow(const Count* row, uint32_t len,
                                            Count lo, Count hi,
                                            RowTally* tally) {
  const SweepLanes vlo = SweepLanes{} + lo;
  const SweepLanes vhi = SweepLanes{} + hi;
  uint32_t j = 0;
  SweepLanes x;
  for (; j + kSweepLanes <= len; j += kSweepLanes) {
    __builtin_memcpy(&x, row + j, sizeof(x));
    tally->le -= reinterpret_cast<SweepLanes>(x <= vhi);
    tally->lt -= reinterpret_cast<SweepLanes>(x < vlo);
  }
  if (j < len) {
    const SweepLanes lane = {0, 1, 2,  3,  4,  5,  6,  7,
                             8, 9, 10, 11, 12, 13, 14, 15};
    const SweepLanes fresh = reinterpret_cast<SweepLanes>(
        lane >= SweepLanes{} + (kSweepLanes - (len - j)));
    __builtin_memcpy(&x, row + len - kSweepLanes, sizeof(x));
    tally->le -= reinterpret_cast<SweepLanes>(x <= vhi) & fresh;
    tally->lt -= reinterpret_cast<SweepLanes>(x < vlo) & fresh;
  }
}

/// Sum of the 16 lanes.
[[gnu::always_inline]] inline uint32_t LaneSum(const SweepLanes& v) {
  typedef Count Half __attribute__((vector_size(32)));
  typedef Count Quarter __attribute__((vector_size(16)));
  const Half h = __builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7) +
                 __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15);
  const Quarter q = __builtin_shufflevector(h, h, 0, 1, 2, 3) +
                    __builtin_shufflevector(h, h, 4, 5, 6, 7);
  return (q[0] + q[1]) + (q[2] + q[3]);
}

#endif  // CSJ_SWEEP_VECTOR_EXT

/// The counts of one dimension's rows. Rows of at least one block are
/// counted with packed compares; the four counts share one lane
/// reduction while each fits a byte (len <= 255), and the two widest
/// resolutions (256 and 257 breakpoints) reduce each side alone. Shorter
/// rows, and builds without GNU vector extensions, count one breakpoint
/// at a time.
[[gnu::always_inline]] inline DimCounts CountDim(const Count* query_row,
                                                 const Count* entry_row,
                                                 uint32_t len, Epsilon eps) {
  const uint32_t last = len - 1;
  const Count qlo = SpanLo(query_row[0], eps);
  const Count qhi = SpanHi(query_row[last], eps);
  const Count elo = SpanLo(entry_row[0], eps);
  const Count ehi = SpanHi(entry_row[last], eps);
  DimCounts counts;
#ifdef CSJ_SWEEP_VECTOR_EXT
  if (len >= kSweepLanes) {
    RowTally entry;
    RowTally query;
    TallyRow(entry_row, len, qlo, qhi, &entry);
    TallyRow(query_row, len, elo, ehi, &query);
    if (len <= 0xFF) {
      const uint32_t packed = LaneSum(entry.le + (query.le << 8) +
                                      (entry.lt << 16) + (query.lt << 24));
      counts.entry_le = packed & 0xFF;
      counts.query_le = (packed >> 8) & 0xFF;
      counts.entry_lt = (packed >> 16) & 0xFF;
      counts.query_lt = packed >> 24;
    } else {
      const uint32_t le = LaneSum(entry.le + (query.le << 16));
      const uint32_t lt = LaneSum(entry.lt + (query.lt << 16));
      counts.entry_le = le & 0xFFFF;
      counts.query_le = le >> 16;
      counts.entry_lt = lt & 0xFFFF;
      counts.query_lt = lt >> 16;
    }
    return counts;
  }
#endif
  for (uint32_t j = 0; j < len; ++j) {
    counts.entry_le += entry_row[j] <= qhi ? 1u : 0u;
    counts.entry_lt += entry_row[j] < qlo ? 1u : 0u;
    counts.query_le += query_row[j] <= ehi ? 1u : 0u;
    counts.query_lt += query_row[j] < elo ? 1u : 0u;
  }
  return counts;
}

/// The vector sweep of one admissible slot: verdict == (exact
/// SignatureSimilarityCap >= threshold). The query's first probe
/// dimension goes first and alone, since it dismisses most slots of
/// other homes; a slot it cannot dismiss gets one branch-free pass over
/// all d rows. Per dimension, packed compares count the breakpoints each
/// side's span reaches, and the rank rows turn the counts into the two
/// count bounds, so no division runs per dimension.
CSJ_TARGET_CLONES
bool SweepSlot(const SweepQuery& query, const Count* entry_table,
               uint32_t entry_size) {
  const uint32_t len = query.len;
  const uint32_t bn = std::min(query.size, entry_size);
  const double denom = static_cast<double>(bn);
  const size_t first_row = static_cast<size_t>(query.first) * len;
  DimCounts counts = CountDim(query.table + first_row,
                              entry_table + first_row, len, query.eps);
  // The cap over all dimensions is at most this one's (division is
  // monotone in the dividend). The query side's bound is a table read,
  // so it goes first; the entry's rank rows are built only past it.
  uint32_t ub =
      std::min(bn, query.ranks.Bound(counts.query_le, counts.query_lt));
  if (static_cast<double>(ub) / denom < query.threshold) return false;
  const RankRows entry_ranks(entry_size, len - 1);
  ub = std::min(ub, entry_ranks.Bound(counts.entry_le, counts.entry_lt));
  if (static_cast<double>(ub) / denom < query.threshold) return false;

  const Count* query_row = query.table;
  const Count* entry_row = entry_table;
  for (Dim k = 0; k < query.d; ++k, query_row += len, entry_row += len) {
    counts = CountDim(query_row, entry_row, len, query.eps);
    ub = std::min({ub, entry_ranks.Bound(counts.entry_le, counts.entry_lt),
                   query.ranks.Bound(counts.query_le, counts.query_lt)});
  }
  return static_cast<double>(ub) / denom >= query.threshold;
}

}  // namespace

void SignatureIndex::Probe(const ProbeQuery& query,
                           std::vector<PrescreenCandidate>* out,
                           PrescreenStats* stats) const {
  CSJ_CHECK(query.signature != nullptr);
  CSJ_CHECK(query.probe_order.size() == query.signature->d());
  const CommunitySignature& query_sig = *query.signature;
  const uint32_t query_size = query_sig.size();
  const uint32_t quantiles = query_sig.quantiles();
  const SweepQuery sweep(query_sig, query.eps, query.threshold,
                         query.probe_order[0]);
  const size_t first_row =
      static_cast<size_t>(query.probe_order[0]) * (quantiles + 1);
  for (const auto& [key, pack] : packs_) {
    const uint64_t slots = pack.ids.size();
    if (slots == 0) continue;
    stats->examined += slots;
    if (key.first != query_sig.d()) {
      // A whole pack of differently-dimensioned entries rejects for free
      // (the scan path counts these as inadmissible, one by one).
      stats->skipped_dim += slots;
      continue;
    }
    if (query.threshold > 0 &&
        PackBelowThreshold(query_sig, query.eps, query.threshold,
                           query.probe_order, key.second, pack.dim_min,
                           pack.dim_max, pack.min_size)) {
      // Second filter level: the coarse summary certifies every slot
      // below threshold, so the whole pack is dismissed in one check.
      // Inert probes (threshold <= 0) never take this path — they must
      // enumerate every slot.
      stats->skipped_cap += slots;
      ++stats->packs_skipped;
      continue;
    }
    for (uint32_t slot = 0; slot < slots; ++slot) {
      // Most slots are settled by their first-probe row alone, a cold
      // line a pack stride away from the last one: fetch it ahead.
      if (slot + kSweepPrefetch < slots) {
        const Count* ahead = pack.table.data() +
                             static_cast<size_t>(slot + kSweepPrefetch) *
                                 pack.stride +
                             first_row;
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + quantiles);
      }
      const uint32_t entry_size = pack.sizes[slot];
      const uint32_t smaller = std::min(query_size, entry_size);
      const uint32_t larger = std::max(query_size, entry_size);
      if (!SizesAdmissible(smaller, larger)) {
        ++stats->skipped_inadmissible;
        continue;
      }
      const Count* entry_table =
          pack.table.data() + static_cast<size_t>(slot) * pack.stride;
      // Every cap is >= 0, so an inert probe passes every slot unswept.
      const bool passes =
          query.threshold <= 0 ||
          SweepSlot(sweep, entry_table, entry_size);
      if (passes) {
        ++stats->passed;
        out->push_back({pack.ids[slot], pack.versions[slot]});
      } else {
        ++stats->skipped_cap;
      }
    }
  }
}

}  // namespace csj
