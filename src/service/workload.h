#ifndef CSJ_SERVICE_WORKLOAD_H_
#define CSJ_SERVICE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/community.h"
#include "core/types.h"
#include "service/server.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace csj::service {

/// Recipe for a seeded serving workload: a catalog of VK-like brand
/// communities clustered so top-k queries have genuine winners, plus a
/// request mix (reads with uniform or zipf-skewed query popularity,
/// upsert/remove churn) replayed deterministically from one seed.
struct WorkloadOptions {
  uint32_t catalog_size = 24;     ///< seeded catalog entries (ids 1..N)
  uint32_t community_size = 150;  ///< mean users per community
  /// Entry sizes are drawn uniformly in community_size * [1-jitter,
  /// 1+jitter] so the size-admissibility rule and the cost-aware
  /// scheduler both see real variety.
  double size_jitter = 0.25;
  /// Every `cluster_size`-th entry anchors a cluster; the rest are
  /// planted against their cluster's anchor in the [plant_lo, plant_hi]
  /// similarity band (defaults: the paper's 15-35% "similar enough"
  /// band), so a query drawn from the pool has a non-trivial exact
  /// top-k. Large-catalog prescreen scenarios raise both: wide clusters
  /// planted at 50-80% keep every member's top-k filled well above the
  /// prescreen threshold, so candidate generation is the thing measured,
  /// not fallback churn.
  uint32_t cluster_size = 3;
  double plant_lo = 0.15;
  double plant_hi = 0.35;
  Epsilon eps = 1;
  /// Request mix: fractions of upserts (install a fresh community over a
  /// random id) and removes; the rest are top-k reads.
  double upsert_fraction = 0.05;
  double remove_fraction = 0.0;
  /// Query popularity: 0 = uniform over the pool; > 0 = zipf-skewed
  /// (rank 0 hottest), modeling the few brands everyone compares against.
  double zipf_s = 0.0;
  /// Deadline copied onto every generated request (0 = none).
  double deadline_seconds = 0.0;
  uint64_t seed = 42;
};

/// Builds the seeded communities once, then mints requests on demand.
///
/// Construction is parallel (anchors, then members, on the global pool)
/// and bit-reproducible at any thread count: each community's generator
/// is forked from the workload seed by index, so community i is the same
/// bytes whether 1 or 64 threads built the catalog.
///
/// Thread-safety: the workload is immutable after construction;
/// NextRequest touches only the caller's Rng and local state, so N
/// closed-loop client threads each fork a child Rng and mint requests
/// concurrently (same seed => same multiset of requests, regardless of
/// client interleaving).
class ServeWorkload {
 public:
  explicit ServeWorkload(const WorkloadOptions& options);

  /// The seeded catalog entries, in id order (ids 1..catalog_size).
  const std::vector<std::shared_ptr<const Community>>& communities() const {
    return communities_;
  }

  /// Indices (0-based, into communities()) of the cluster anchors.
  const std::vector<uint32_t>& anchors() const { return anchors_; }

  /// Mints a fresh community planted against a seeded cluster anchor —
  /// the same recipe the upsert mix installs, exposed so the evolution
  /// subsystem can seed community BIRTHS from the identical
  /// distribution. When `anchor_id` is non-null it receives the chosen
  /// anchor's catalog id (anchor index + 1), which the drift model uses
  /// to attach the newborn's live anchor session.
  std::shared_ptr<const Community> MintAgainstAnchor(
      util::Rng& rng, uint64_t* anchor_id = nullptr) const;

  /// Per-phase populate accounting (the BulkLoad phases plus wall time).
  struct PopulateStats {
    uint32_t entries = 0;
    double total_seconds = 0.0;
    /// BulkLoadStats::encode_seconds: the digest wave (no artifact is
    /// built at populate).
    double encode_seconds = 0.0;
    double sketch_seconds = 0.0;
    double install_seconds = 0.0;
    double entries_per_sec = 0.0;
  };

  /// Installs the seeded entries into `server` (id i+1 <- communities()[i])
  /// through CommunityCatalog::BulkLoad — byte-identical end state to one
  /// Upsert per entry in ascending-id order (BulkLoadTest pins this), at
  /// a fraction of the per-entry cost.
  void Populate(CsjServer* server, PopulateStats* stats = nullptr) const;

  /// Mints the next request of the mix. `topk_template` supplies the
  /// read-side parameters (k, method, join options — point join.cache at
  /// the serving cache); the workload fills kind, id, community and
  /// deadline.
  ServeRequest NextRequest(util::Rng& rng,
                           const TopKOptions& topk_template) const;

 private:
  /// A fresh churn community planted against a random anchor (what an
  /// upsert installs).
  std::shared_ptr<const Community> MintCommunity(util::Rng& rng) const;

  WorkloadOptions options_;
  std::vector<std::shared_ptr<const Community>> communities_;
  std::vector<uint32_t> anchors_;  ///< indices of the cluster anchors
  util::ZipfDistribution popularity_;
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_WORKLOAD_H_
