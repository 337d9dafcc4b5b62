#ifndef CSJ_EVOLVE_DRIFT_H_
#define CSJ_EVOLVE_DRIFT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/community.h"
#include "core/join_options.h"
#include "core/types.h"
#include "service/catalog.h"
#include "service/workload.h"
#include "util/rng.h"

namespace csj::evolve {

/// One step of the continuous-evolution stream. Every event is fully
/// materialized at generation time (payload vectors, newborn buffers),
/// so a trace replays without consuming any randomness — the same trace
/// applied twice, in any process, on any thread count, produces the
/// same catalog bytes.
enum class DriftEventKind : uint8_t {
  kUserJoin,   ///< one user joins community_id (payload: user_key, user)
  kUserLeave,  ///< the user under user_key leaves community_id
  kDecay,      ///< every counter of community_id scaled by decay_factor
  kBirth,      ///< a new community appears (payload: born, anchor_id)
  kDeath,      ///< community_id disappears from the catalog
};

struct DriftEvent {
  DriftEventKind kind = DriftEventKind::kUserJoin;
  uint64_t community_id = 0;
  /// Stable per-community user identity. Every community's initial
  /// users are keys 0..size-1; each join mints the next unused key;
  /// keys are never reused. Because membership is keyed (not
  /// positional), join/leave events touching DISTINCT keys commute
  /// within one community — the property the metamorphic suite pins.
  uint64_t user_key = 0;
  std::vector<Count> user;                 ///< kUserJoin payload
  double decay_factor = 1.0;               ///< kDecay payload
  std::shared_ptr<const Community> born;   ///< kBirth payload
  uint64_t anchor_id = 0;                  ///< kBirth: cluster anchor id
};

struct DriftOptions {
  /// The seeded starting catalog (ids 1..catalog_size) and the planted
  /// cluster structure births are minted from.
  service::WorkloadOptions base;
  /// Total events in the trace, grouped into epochs of `quiesce_every`
  /// (the last epoch may be short).
  uint32_t events = 400;
  uint32_t quiesce_every = 40;
  /// Event-mix weights (normalized over their sum). When a drawn kind
  /// is impossible in the current simulated state (nothing may leave,
  /// nothing may die), the event degrades to a join — the stream never
  /// stalls.
  double join_weight = 0.45;
  double leave_weight = 0.25;
  double decay_weight = 0.12;
  double birth_weight = 0.10;
  double death_weight = 0.08;
  /// Counter decay multiplier (counts scale as floor(c * factor)).
  double decay_factor = 0.9;
  /// Leaves never shrink a community below this many users (the catalog
  /// rejects empty communities, and the CSJ size rule makes very small
  /// ones uninteresting).
  uint32_t min_community_size = 8;
  /// Deaths never shrink the catalog below this many resident
  /// communities; anchors never die (they seed births and sessions).
  uint32_t min_catalog_size = 4;
  /// Seed of the drift stream itself (independent of base.seed, so one
  /// catalog can be driven by many distinct streams).
  uint64_t seed = 99;
};

/// Deterministic drift-trace generator over a `ServeWorkload` catalog.
///
/// Construction builds the seeded workload, then rolls the WHOLE event
/// trace serially from one Rng while simulating per-community
/// membership (so leaves always name a live key, deaths a live
/// community, and size floors hold). All randomness is spent here;
/// replaying is pure. Immutable after construction.
class DriftModel {
 public:
  explicit DriftModel(DriftOptions options);

  const DriftOptions& options() const { return options_; }
  const service::ServeWorkload& workload() const { return workload_; }
  const std::vector<DriftEvent>& trace() const { return trace_; }

  uint32_t epochs() const;
  std::span<const DriftEvent> epoch(uint32_t e) const;

  /// Cluster anchor id for a BASE community id (1-based), from the
  /// workload's cluster layout. Born communities carry their anchor in
  /// the birth event instead.
  uint64_t AnchorOf(uint64_t base_id) const;

 private:
  DriftOptions options_;
  service::ServeWorkload workload_;
  std::vector<DriftEvent> trace_;
};

/// Per-epoch accounting of one DriftReplayer quiesce cycle.
struct EpochStats {
  uint32_t events = 0;
  uint32_t joins = 0;
  uint32_t leaves = 0;
  uint32_t decays = 0;
  uint32_t noop_decays = 0;  ///< decays that changed no counter (no install)
  uint32_t births = 0;
  uint32_t deaths = 0;
  uint32_t installs = 0;  ///< dirty communities bulk-installed at quiesce
  uint32_t removes = 0;
  uint32_t session_rebuilds = 0;
  double apply_seconds = 0.0;
};

/// Replays drift events against a live `CommunityCatalog`.
///
/// Membership state lives OUTSIDE the catalog (per-community ordered
/// key -> counters maps); the catalog only ever sees frozen snapshots.
/// `Apply` mutates the state and drives the per-community anchor
/// sessions (`LiveCoupleSession` over `IncrementalCsj`) incrementally;
/// `Quiesce` freezes every dirty community (users in ascending key
/// order), installs them through one ascending-id BulkLoad, applies
/// deaths through ascending-id Removes, and re-attaches any session the
/// epoch invalidated (decay rewrites B wholesale; an anchor upsert
/// makes the pinned A stale — both take the documented A-churn REBUILD
/// path). Snapshot freezing fans out on the pool slot-per-index, so the
/// post-quiesce catalog — entries, versions, mutation log — is
/// byte-identical at any thread count.
///
/// Externally synchronized: one owner drives Apply/Quiesce. Readers of
/// the CATALOG (queries, the maintainer) are free to race; accessors on
/// the replayer itself are owner-only.
class DriftReplayer {
 public:
  struct Options {
    /// Join parameters for the anchor sessions (eps, parts, matcher).
    /// `session_join.pool` (null = ThreadPool::Global()) also runs the
    /// snapshot freeze.
    JoinOptions session_join;
    /// Maintain a live anchor-similarity session per DRIFTING non-anchor
    /// community (attached lazily on its first event).
    bool anchor_sessions = true;
    uint32_t freeze_threads = 0;       ///< 0 = the pool's thread count
  };

  /// Bulk-loads the model's base catalog (ids 1..N, zero-copy) into
  /// `catalog` and mirrors it into the membership state. Neither pointer
  /// is owned; both must outlive the replayer.
  DriftReplayer(const DriftModel* model, service::CommunityCatalog* catalog,
                Options options);

  /// Applies one slice of events to the membership state (no catalog
  /// writes except through sessions' pinned snapshots, which are
  /// read-only). Partial accounting accumulates into the next Quiesce's
  /// EpochStats.
  void Apply(std::span<const DriftEvent> events);

  /// Flushes the epoch to the catalog (see class comment) and returns
  /// the accumulated stats. The catalog is a quiesce point afterwards:
  /// its state is the deterministic function of (model seed, epochs
  /// applied).
  EpochStats Quiesce();

  /// Apply(model->epoch(e)) + Quiesce().
  EpochStats ApplyEpoch(uint32_t e);

  uint64_t events_applied() const { return events_applied_; }

  /// Frozen snapshot of `id`'s current membership (the exact bytes the
  /// next Quiesce would install), or null when not alive. Owner-only.
  std::shared_ptr<const Community> LiveSnapshot(uint64_t id) const;

  /// The live anchor session of `id` (null when none / detached).
  const service::LiveCoupleSession* session(uint64_t id) const;

  /// Alive community ids, ascending. Owner-only.
  std::vector<uint64_t> live_ids() const;

 private:
  struct CommunityState {
    /// key -> counters. Lazily materialized from `frozen` on the first
    /// membership-mutating event (a 10k-community catalog where only a
    /// few hundred communities drift never copies the rest).
    std::map<uint64_t, std::vector<Count>> users;
    bool materialized = false;
    uint64_t anchor_id = 0;  ///< 0 = none (anchors themselves)
    bool dirty = false;
    /// Last frozen snapshot (== installed bytes once quiesced).
    std::shared_ptr<const Community> frozen;
    std::unique_ptr<service::LiveCoupleSession> session;
    /// user_key -> live session handle, for every key the session has
    /// absorbed incrementally.
    std::map<uint64_t, service::LiveCoupleSession::Handle> handles;
    /// Set once the community has drifted; from then on Quiesce keeps a
    /// session attached (rebuilding when invalidated).
    bool wants_session = false;
  };

  void AttachSession(CommunityState& state);
  std::shared_ptr<const Community> Freeze(uint64_t id,
                                          const CommunityState& state) const;

  const DriftModel* model_;
  service::CommunityCatalog* catalog_;
  Options options_;
  std::map<uint64_t, CommunityState> states_;  ///< ordered: deterministic
  std::vector<uint64_t> pending_removes_;
  EpochStats pending_;
  uint64_t events_applied_ = 0;
};

}  // namespace csj::evolve

#endif  // CSJ_EVOLVE_DRIFT_H_
