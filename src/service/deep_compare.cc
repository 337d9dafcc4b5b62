#include "service/deep_compare.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/encoding.h"
#include "core/signature.h"

namespace csj::service {
namespace {

template <typename T>
bool SameValues(const T* lhs, const T* rhs, size_t count) {
  return count == 0 || std::equal(lhs, lhs + count, rhs);
}

bool WindowsIdentical(const VerifyWindow& lhs, const VerifyWindow& rhs) {
  return lhs.size() == rhs.size() && lhs.d() == rhs.d() &&
         SameValues(lhs.BlockData(0), rhs.BlockData(0),
                    VerifyWindow::PaddedCount(lhs.size(), lhs.d()));
}

/// Every column the walk refines from and a checkpoint seals: ids, real
/// ids and part sums of the B side; mins, maxs, real ids, part columns
/// and verify window of the A side.
bool ArtifactsIdentical(const EntryEncodings& lhs, const EntryEncodings& rhs) {
  const EncodedB& lhs_b = *lhs.encoded_b;
  const EncodedB& rhs_b = *rhs.encoded_b;
  if (lhs_b.size() != rhs_b.size() || lhs_b.parts() != rhs_b.parts()) {
    return false;
  }
  for (uint32_t u = 0; u < lhs_b.size(); ++u) {
    if (lhs_b.encoded_id(u) != rhs_b.encoded_id(u) ||
        lhs_b.real_id(u) != rhs_b.real_id(u)) {
      return false;
    }
  }
  if (!SameValues(lhs_b.part_sums(0).data(), rhs_b.part_sums(0).data(),
                  static_cast<size_t>(lhs_b.size()) * lhs_b.parts())) {
    return false;
  }
  const EncodedA& lhs_a = *lhs.encoded_a;
  const EncodedA& rhs_a = *rhs.encoded_a;
  if (lhs_a.size() != rhs_a.size() || lhs_a.parts() != rhs_a.parts()) {
    return false;
  }
  for (uint32_t u = 0; u < lhs_a.size(); ++u) {
    if (lhs_a.encoded_min(u) != rhs_a.encoded_min(u) ||
        lhs_a.encoded_max(u) != rhs_a.encoded_max(u) ||
        lhs_a.real_id(u) != rhs_a.real_id(u)) {
      return false;
    }
  }
  if (!SameValues(lhs_a.part_lo(0), rhs_a.part_lo(0),
                  2 * static_cast<size_t>(lhs_a.size()) * lhs_a.parts())) {
    return false;
  }
  return WindowsIdentical(lhs_a.window(), rhs_a.window());
}

}  // namespace

bool EntriesIdentical(const CatalogEntry& a, const CatalogEntry& b) {
  if (a.id != b.id || a.version != b.version ||
      a.digest.fingerprint != b.digest.fingerprint ||
      a.digest.max_counter != b.digest.max_counter) {
    return false;
  }
  if (a.community->d() != b.community->d() ||
      a.community->size() != b.community->size()) {
    return false;
  }
  const auto a_flat = a.community->flat();
  const auto b_flat = b.community->flat();
  if (!std::equal(a_flat.begin(), a_flat.end(), b_flat.begin(),
                  b_flat.end())) {
    return false;
  }
  if ((a.encodings == nullptr) != (b.encodings == nullptr)) return false;
  if (a.encodings != nullptr &&
      !ArtifactsIdentical(*a.encodings, *b.encodings)) {
    return false;
  }
  return true;
}

bool CatalogsIdentical(const CommunityCatalog& lhs,
                       const CommunityCatalog& rhs, Epsilon eps,
                       double threshold) {
  const std::vector<CatalogEntry> lhs_snapshot = lhs.Snapshot();
  const std::vector<CatalogEntry> rhs_snapshot = rhs.Snapshot();
  if (lhs_snapshot.size() != rhs_snapshot.size()) return false;
  for (size_t i = 0; i < lhs_snapshot.size(); ++i) {
    const CatalogEntry& entry = lhs_snapshot[i];
    if (!EntriesIdentical(entry, rhs_snapshot[i]) ||
        lhs.SketchAt(entry.id, entry.version) !=
            rhs.SketchAt(entry.id, entry.version)) {
      return false;
    }
  }
  const SignatureOptions* lhs_options = lhs.signature_options();
  if ((lhs_options == nullptr) != (rhs.signature_options() == nullptr)) {
    return false;
  }
  if (lhs.options().shards != rhs.options().shards) return false;
  if (lhs_options == nullptr || lhs_snapshot.empty()) return true;
  for (uint32_t q = 0; q < 3; ++q) {
    const CatalogEntry& query_entry =
        lhs_snapshot[(static_cast<size_t>(q) * lhs_snapshot.size()) / 3];
    const CommunitySignature query_sig(*query_entry.community, *lhs_options);
    const std::vector<Dim> order = SignatureProbeOrder(query_sig);
    for (const double tau : {0.0, threshold}) {
      const CommunityCatalog::ProbeResult lhs_probe =
          lhs.ProbeCandidates(query_sig, order, eps, tau);
      const CommunityCatalog::ProbeResult rhs_probe =
          rhs.ProbeCandidates(query_sig, order, eps, tau);
      const std::vector<CatalogEntry>& lhs_out = lhs_probe.candidates;
      const std::vector<CatalogEntry>& rhs_out = rhs_probe.candidates;
      if (lhs_out.size() != rhs_out.size()) return false;
      // Every resident entry owns exactly one index slot, so every probe
      // examines the whole catalog.
      if (lhs_probe.stats.examined != lhs_snapshot.size()) return false;
      for (size_t i = 0; i < lhs_out.size(); ++i) {
        if (lhs_out[i].id != rhs_out[i].id ||
            lhs_out[i].version != rhs_out[i].version) {
          return false;
        }
      }
      // Per-entry verdict counts are layout-invariant and must agree
      // exactly. packs_skipped is NOT compared: it is a pack-grouping
      // artifact of insertion history — a catalog restored from a sealed
      // segment groups canonically (ascending id) while the live one
      // groups by mutation order, so whole-pack skips can split
      // differently even though every per-entry outcome is identical.
      const PrescreenStats& lhs_stats = lhs_probe.stats;
      const PrescreenStats& rhs_stats = rhs_probe.stats;
      if (lhs_stats.examined != rhs_stats.examined ||
          lhs_stats.passed != rhs_stats.passed ||
          lhs_stats.skipped_cap != rhs_stats.skipped_cap ||
          lhs_stats.skipped_inadmissible != rhs_stats.skipped_inadmissible ||
          lhs_stats.skipped_dim != rhs_stats.skipped_dim) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace csj::service
