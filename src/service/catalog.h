#ifndef CSJ_SERVICE_CATALOG_H_
#define CSJ_SERVICE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/join_options.h"
#include "core/signature.h"
#include "core/types.h"
#include "incremental/incremental_csj.h"

namespace csj::service {

/// The MinMax artifacts of one catalog entry under the catalog's warm
/// parameters (Options::warm_eps, clamped Options::warm_parts): the B-
/// and A-side encodings, the A side carrying its verify window.
/// Immutable.
///
/// Cache-line aligned: blocks built one after another can sit back to
/// back, and every snapshot or Get copy of an entry bumps the block's
/// refcount, so readers on two cores copying neighbouring entries would
/// otherwise bounce one line (measured on churn_durable, when a restore
/// allocated every block in id order: ~10% of read throughput). Probe heads carry no encodings and touch no block.
struct alignas(64) EntryEncodings {
  std::shared_ptr<const EncodedB> encoded_b;
  std::shared_ptr<const EncodedA> encoded_a;
};

/// Builds `community`'s MinMax artifacts for (`warm_eps`, `warm_parts`):
/// the one builder behind a first refine and the deep identity oracle.
/// The encoder is memoized per thread on (d, eps, parts).
std::shared_ptr<const EntryEncodings> BuildEntryEncodings(
    const Community& community, Epsilon warm_eps, uint32_t warm_parts);

/// One resident catalog community, as handed out by Get()/Snapshot().
/// Its sketch lives only in its shard's SignatureIndex (see SketchAt()).
///
/// Entries are COPY-ON-WRITE: the Community behind `community` is frozen
/// at Upsert time and never mutated afterwards — an upsert of the same id
/// installs a NEW shared buffer under a NEW version and simply drops the
/// shard's reference to the old one. Any reader (a snapshot, a running
/// top-k query, a live session) that still holds the shared_ptr keeps the
/// old buffers alive and consistent; there is no in-place mutation to
/// race with, which is what makes long joins against a churning catalog
/// safe.
struct CatalogEntry {
  uint64_t id = 0;
  /// Catalog-wide monotonic version, unique per successful Upsert. A
  /// larger version was issued later (across ALL ids, not just this
  /// one), so "did this entry change since I looked?" is one compare.
  /// Per id the resident version only grows: a write that loses a race
  /// to a later-issued write of its id is dropped at install, as if it
  /// had been overwritten at once.
  uint64_t version = 0;
  std::shared_ptr<const Community> community;
  /// Content fingerprint + max counter, computed once at ingest (or
  /// carried by a restored entry: a segment stores it). It seeds the
  /// sketch builder's radix width and pre-screens the same-id content
  /// check of the ingest path. Queries never digest an entry.
  CommunityDigest digest;
  /// MinMax artifacts under the catalog's warm parameters, or null until
  /// an entry needs them: a cache. Ingest builds none; an entry whose
  /// content equals the resident entry's under the same id shares
  /// whatever the resident entry holds. The first warm refine of the
  /// entry builds them and publishes them here
  /// (CommunityCatalog::EncodingsAt). A checkpoint does not seal them.
  std::shared_ptr<const EntryEncodings> encodings;
};

/// One record of the catalog's optional MUTATION LOG (see
/// Options::mutation_log_capacity): which id changed, in what way, in
/// which order. Consumers such as the evolution subsystem's
/// `TopKMaintainer` replay the suffix of the log since their last
/// cursor to learn exactly which entries moved, instead of re-scanning
/// the whole catalog.
struct MutationRecord {
  /// Dense 1-based append ordinal — record seq is issued exactly once
  /// and never skipped, so a consumer holding cursor c has seen the
  /// complete mutation history iff it reads every record with seq > c.
  uint64_t seq = 0;
  uint64_t id = 0;
  /// The installed entry version for upserts; 0 for removes (a Remove
  /// consumes no catalog version, matching the un-logged behavior).
  uint64_t version = 0;
  bool remove = false;
};

/// One mutation as observed by a MUTATION SINK (the durable-log seam,
/// see CommunityCatalog::SetMutationSink). Unlike the in-RAM
/// MutationRecord — which only names WHAT changed — a sink event carries
/// the installed payload itself, so a persistence layer can write a
/// self-contained log record without re-reading the catalog.
struct MutationEvent {
  uint64_t id = 0;
  /// Issued entry version for upserts; 0 for removes.
  uint64_t version = 0;
  bool remove = false;
  /// The frozen installed buffer (null for removes). The sink may retain
  /// the shared_ptr; the buffer is immutable for its lifetime.
  std::shared_ptr<const Community> community;
};

/// A live, incrementally maintained exact similarity between ONE query
/// community (the churn side, B) and ONE pinned catalog entry (A).
///
/// Attaching pins the entry's snapshot: the session stays valid and
/// exact against the PINNED version even while the catalog replaces or
/// removes the entry. `Stale()` reports when the catalog has moved on;
/// the owner re-attaches to follow (rebuilds are the documented A-churn
/// policy of IncrementalCsj).
///
/// A session is externally synchronized: one owner drives it (the
/// subscriber-churn stream of one query), concurrency across sessions
/// and against the catalog is free.
class LiveCoupleSession {
 public:
  using Handle = incremental::IncrementalCsj::Handle;

  /// Subscriber churn on the query side; exact matching maintained after
  /// every call (see incremental/incremental_csj.h).
  Handle AddSubscriber(std::span<const Count> vec) {
    return live_.AddUser(vec);
  }
  bool RemoveSubscriber(Handle handle) { return live_.RemoveUser(handle); }

  double Similarity() const { return live_.Similarity(); }
  uint32_t live_subscribers() const { return live_.live_users(); }
  uint32_t matched_pairs() const { return live_.matched_pairs(); }
  bool SizesAdmissible() const { return live_.SizesAdmissible(); }

  /// The catalog entry this session is pinned to (its frozen snapshot).
  const CatalogEntry& entry() const { return entry_; }

  /// True when the catalog no longer holds exactly the pinned version of
  /// the entry (it was upserted again or removed). The session itself
  /// remains valid and exact against the pinned snapshot.
  bool Stale() const;

 private:
  friend class CommunityCatalog;
  LiveCoupleSession(const class CommunityCatalog* catalog, CatalogEntry entry,
                    const JoinOptions& join);

  const class CommunityCatalog* catalog_;
  CatalogEntry entry_;
  incremental::IncrementalCsj live_;
};

/// Sharded, versioned community catalog — the stateful half of the
/// serving subsystem. Holds the platform's brand communities behind
/// per-shard shared_mutexes so concurrent Upsert/Remove/Snapshot/Get
/// from many server workers never serialize on one lock.
///
/// Snapshot semantics: a snapshot is PER-SHARD atomic — each shard's
/// entries are read under one shared lock, so a snapshot never observes a
/// torn entry or a half-applied upsert. Across shards it is NOT a global
/// point in time: an upsert racing the snapshot may appear in a later
/// shard but not an earlier one. Queries accept this (a request racing an
/// upsert may legitimately see either state); anything needing stronger
/// ordering keys off entry versions, which are catalog-wide monotonic.
///
/// Ingest: Upsert, BulkLoad and RestoreBatch share ONE path, and
/// CatalogEntry is its one record. Its build waves run OUTSIDE any shard
/// lock and make whatever the entry does not carry: the digest (a
/// restored entry carries it) and the prescreen sketch table (when
/// `signatures` is set), staged one chunk of
/// the batch at a time. MinMax artifacts are not built here: a query
/// refines a few of the entries it probes, so EncodingsAt builds an
/// entry's artifacts on its first warm refine. An entry whose content
/// equals the resident entry under its id inherits that entry's
/// artifacts (if any) and sketch row instead. Each chunk's install then runs
/// one pool task per touched shard: the task takes that shard's exclusive
/// lock once, between one mutation-clock tick pair, and copies the tables
/// into the shard's index. Upsert is the one-entry case of that path (one
/// shard, so one task, run inline), which is why an Upsert loop, a
/// BulkLoad and a RestoreBatch of the same entries leave byte-identical
/// state. No code calls the pool while it holds a shard lock: an install
/// task waiting for one could otherwise deadlock against the pool's
/// submit lock.
class CommunityCatalog {
 public:
  struct Options {
    /// Lock shards; clamped to >= 1. 8 is plenty below ~10^2 workers.
    uint32_t shards = 8;
    /// Ignored: the catalog never reads it, and entries carry their
    /// artifacts without it. Ad-hoc joins take a cache through
    /// JoinOptions::cache.
    EncodingCache* cache = nullptr;
    /// Parameters every entry's MinMax artifacts are built for. A top-k
    /// query whose JoinOptions eps and clamped part count match them
    /// refines MinMax couples from the entry artifacts; any other query
    /// joins the old way, through JoinOptions::cache or local encodings.
    Epsilon warm_eps = 1;
    uint32_t warm_parts = 4;
    /// When set, every shard keeps a SignatureIndex beside its entry map:
    /// the ingest path builds each entry's sketch in its build waves
    /// (outside any lock) and installs it under the SAME exclusive shard
    /// lock as the entry, so index and entries can never disagree.
    /// Queries use ProbeCandidates() for sub-linear candidate generation.
    /// The catalog keeps these options with quantiles clamped as the
    /// sketch builders clamp them.
    std::optional<SignatureOptions> signatures;
    /// When nonzero, every successful mutation (Upsert, BulkLoad member,
    /// Remove of a resident id) appends a MutationRecord to a bounded
    /// in-memory log holding the most recent `mutation_log_capacity`
    /// records. Appends happen inside the same exclusive shard section
    /// as the install itself, so for any single id the log order equals
    /// the install order. 0 (the default) disables the log entirely —
    /// no behavior or cost change for existing deployments.
    size_t mutation_log_capacity = 0;
  };

  // Two overloads rather than `Options options = {}`: a nested struct's
  // default member initializers are not usable in a default argument
  // until the enclosing class is complete.
  CommunityCatalog();
  explicit CommunityCatalog(Options options);

  /// Installs (or replaces) the community under `id` and returns the new
  /// catalog-wide version: the one-entry case of the ingest path (see the
  /// class comment). The community must be non-empty; it is frozen
  /// (moved into a shared immutable buffer), then digested and sketched
  /// outside any lock.
  uint64_t Upsert(uint64_t id, Community community);

  /// Per-phase accounting of one BulkLoad call.
  struct BulkLoadStats {
    uint64_t entries = 0;
    /// The digest wave: each entry's digest and the same-id content
    /// check that inherits a resident entry's artifacts and sketch row.
    /// It builds no artifact (EncodingsAt does, on first refine); the
    /// name is kept for the readers of these stats.
    double encode_seconds = 0.0;
    double sketch_seconds = 0.0;   ///< signature build wave
    double install_seconds = 0.0;  ///< per-shard locked install phase
  };

  /// Batched ingestion: installs every (id, community) of `batch` and
  /// returns the LAST version issued (0 for an empty batch). The catalog
  /// installs the caller's frozen buffers as-is; every pointer must be
  /// non-null and non-empty. The final catalog and signature-index
  /// state is byte-identical to calling Upsert once per element in batch
  /// order: each chunk's contiguous version block is issued right before
  /// its install, so element i gets the version the sequential loop would
  /// have issued, and each shard's elements are installed in batch order
  /// (duplicate ids: last wins, exactly like repeated Upserts). What
  /// makes it fast is fewer operations, not threads: the build waves run
  /// in cache-sized chunks and each shard takes ONE exclusive lock per
  /// chunk; the waves and the per-shard installs additionally scale on
  /// multi-core hosts. Safe under concurrent Query/Upsert/Remove
  /// traffic: each shard install ticks the mutation clock, so tagged
  /// readers see each shard flip atomically.
  uint64_t BulkLoad(
      std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch,
      BulkLoadStats* stats = nullptr);

  /// Removes `id`. Returns false when absent. Readers holding the entry
  /// keep its buffers alive; the catalog just forgets it.
  bool Remove(uint64_t id);

  /// Recovery path: installs every entry of `batch` under its EXPLICIT
  /// version (BulkLoad cannot do this — it issues a fresh contiguous
  /// block, and a store recovering `{v3, v17}` after removes holds a
  /// non-contiguous version set) and advances the catalog's version
  /// counter to exactly `next_version`, so post-restore upserts issue
  /// the same versions the pre-crash catalog would have.
  ///
  /// Each entry needs a non-empty `community`, a version >= 1 and
  /// < `next_version`, and its `digest`: the caller vouches that it is
  /// DigestCommunity of the content (a segment stores it; a log replay
  /// computes it beside the community), so restore digests nothing. Any
  /// `encodings` an entry carries are kept as this content's artifacts
  /// under the catalog's warm parameters. So are the non-null sketch rows
  /// of `sketches` (empty or parallel to `batch`), copied into the index.
  /// Everything else is built as Upsert builds it. Batch order
  /// is the install order within each shard, and an id may repeat: the
  /// last occurrence wins, exactly as in BulkLoad. A store replays a log
  /// tail's final state, so its batches hold each id once; what it
  /// restores equals the writer's catalog entry for entry and probe for
  /// probe, while the index packs may group slots differently (see
  /// CatalogsIdentical). The mutation SINK is deliberately not
  /// invoked — a restore replays the durable log, it must not re-append
  /// to it — and the in-RAM journal stays empty: it is bounded history,
  /// not state, and consumers resynchronize via mutation_seq() cursors.
  uint64_t RestoreBatch(std::vector<CatalogEntry> batch,
                        uint64_t next_version,
                        std::span<const Count* const> sketches = {});

  /// Installs the DURABLE-LOG SEAM: `sink` is invoked once per effective
  /// mutation (every Upsert, every BulkLoad member, every Remove that
  /// erased a resident id) INSIDE the same exclusive shard section as
  /// the install itself — the same spot the in-RAM journal appends — so
  /// the sink's observed order can never contradict the install order
  /// any reader observes, per shard and per id. The sink must be
  /// thread-safe (shards mutate concurrently) and fast: it runs under a
  /// shard lock, so it should buffer, not block on I/O. Set it while the
  /// catalog is quiescent (there is no synchronization against in-flight
  /// mutations); pass nullptr to detach.
  using MutationSink = std::function<void(const MutationEvent&)>;
  void SetMutationSink(MutationSink sink) { mutation_sink_ = std::move(sink); }

  /// The current entry for `id`, or an empty optional-like entry
  /// (community == nullptr) when absent.
  CatalogEntry Get(uint64_t id) const;

  /// The MinMax artifacts of the pinned `entry` (a snapshot entry, a
  /// probe head, or a synthetic entry the catalog does not hold) under
  /// the warm parameters; never null. It returns the entry's own
  /// artifacts, else the resident ones while `entry.id` still holds
  /// `entry.version` (one refcount bump under the shared lock).
  /// Otherwise it builds them from `entry.community` outside any lock,
  /// then takes the shard's exclusive lock and publishes them if the id
  /// still holds that version and no other thread published first; a
  /// thread that lost the race adopts the winner's pointer, and an entry
  /// replaced or removed meanwhile keeps its build private. Publishing
  /// fills a cache: it ticks no mutation clock and reaches neither sink
  /// nor journal, and the bytes are those any build of the content gives.
  std::shared_ptr<const EntryEncodings> EncodingsAt(
      const CatalogEntry& entry) const;

  /// A copy of `id`'s sketch table, read from its shard's index, while
  /// its entry still has `version`; empty when absent, replaced since, or
  /// prescreening is off.
  std::vector<Count> SketchAt(uint64_t id, uint64_t version) const;

  /// All resident entries, ascending id (deterministic for a quiesced
  /// catalog). See the class comment for cross-shard semantics.
  std::vector<CatalogEntry> Snapshot() const;

  /// Resident entry count (sum over shards; racy under churn, exact when
  /// quiesced).
  uint32_t size() const;

  /// Largest version issued so far (0 before the first upsert).
  uint64_t latest_version() const {
    return next_version_.load(std::memory_order_acquire) - 1;
  }

  /// The MUTATION CLOCK: two monotonic counters bumped around every
  /// state-changing operation (Upsert and Remove — including a Remove of
  /// an absent id, which spuriously ticks but never lies). `started` is
  /// incremented BEFORE the operation touches any shard; `finished` AFTER
  /// its effects are fully installed. Always finished <= started; they
  /// are equal exactly when the catalog is quiescent.
  ///
  /// The clock is what makes version-tagged read results (the server's
  /// hot-query result cache) provably safe:
  ///
  ///   f1 = mutations_finished();      // BEFORE the read
  ///   ... snapshot / compute ...
  ///   s2 = mutations_started();       // AFTER the read
  ///
  /// If f1 == s2, every mutation that ever started had fully finished
  /// before the read began (finished <= started is monotone), and none
  /// started while it ran — the read observed ONE stable state, uniquely
  /// named by the tag f1. A tagged artifact may be reused as long as
  /// mutations_started() still equals its tag: no mutation has begun
  /// since the stable state it captured, so the state is bit-identical.
  /// Any in-flight or later mutation bumps `started` first and the tag
  /// check fails — invalidation costs one relaxed load.
  uint64_t mutations_started() const {
    return mutations_started_.load(std::memory_order_acquire);
  }
  uint64_t mutations_finished() const {
    return mutations_finished_.load(std::memory_order_acquire);
  }

  /// Last mutation-log sequence number issued (0 before the first logged
  /// mutation, and always 0 when the log is disabled).
  uint64_t mutation_seq() const;

  /// Appends every retained log record with seq > `cursor` to `out`, in
  /// append order, and returns true. Returns false — appending nothing —
  /// when the log is disabled or when records after `cursor` have
  /// already been truncated away (the consumer fell more than
  /// `mutation_log_capacity` records behind); the caller must then
  /// resynchronize with a full recompute against the live catalog.
  /// Passing cursor = mutation_seq() read at resync time restarts clean:
  /// mutations racing the resync read land after that cursor and are
  /// replayed (possibly redundantly, never missed) on the next call.
  bool ReadMutationsSince(uint64_t cursor,
                          std::vector<MutationRecord>* out) const;

  /// Pins the current entry of `entry_id` and builds a live incremental
  /// session for (query, entry): the query community's users are seeded
  /// as the initial subscribers (handles 0..n-1 in user order), further
  /// churn goes through the session. Returns nullptr when the id is
  /// absent or the dimensionalities differ. `join` supplies eps and the
  /// encoding part count.
  std::unique_ptr<LiveCoupleSession> AttachLive(const Community& query,
                                                uint64_t entry_id,
                                                const JoinOptions& join) const;

  /// Sweeps every shard's signature index and returns the entries whose
  /// certified similarity cap reaches `threshold` (ascending id, like
  /// Snapshot()), plus the sweep accounting. Like a snapshot this is
  /// PER-SHARD atomic: within a shard the index verdicts and the returned
  /// entries observe one consistent state. Requires Options::signatures
  /// and a query signature built with signature_options().
  struct ProbeResult {
    /// Candidate HEADS: `id`, `version` and `community` are set, while
    /// `encodings` and `digest` stay unset. A walk bounds thousands of
    /// candidates and refines a handful, so the probe copies only what
    /// the bound reads; CoupleScorer::Refine gets a refined head's
    /// artifacts with EncodingsAt().
    std::vector<CatalogEntry> candidates;
    PrescreenStats stats;
  };
  ProbeResult ProbeCandidates(const CommunitySignature& query_signature,
                              std::span<const Dim> probe_order, Epsilon eps,
                              double threshold) const;

  /// The signature configuration (quantiles clamped), or nullptr when
  /// prescreening is off.
  const SignatureOptions* signature_options() const {
    return options_.signatures.has_value() ? &*options_.signatures : nullptr;
  }

  /// The construction options.
  const Options& options() const { return options_; }

  /// Monotonic operation counters (for the server's stats surface).
  struct Stats {
    uint64_t upserts = 0;
    uint64_t removes = 0;
    uint64_t snapshots = 0;
    uint64_t probes = 0;
    /// Whole index packs dismissed by the pack-level prefilter across
    /// all ProbeCandidates calls (the second filter level's win meter).
    uint64_t prescreen_packs_skipped = 0;
  };
  Stats GetStats() const;

 private:
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    /// Hashed: a probe looks up every passing candidate, and only
    /// Snapshot() iterates, sorting globally by id anyway.
    std::unordered_map<uint64_t, CatalogEntry> entries;
    /// The shard's sketch store, set iff Options::signatures is. It
    /// changes under the exclusive lock together with `entries` and is
    /// read under the shared one.
    std::optional<SignatureIndex> signatures;
  };

  /// The bounded mutation log (see Options::mutation_log_capacity). Its
  /// own mutex rather than a shard's: appends come from every shard, and
  /// readers must see one consistent (records, next_seq) pair without
  /// taking any shard lock. Records are dense: records[i].seq ==
  /// first_seq + i whenever the deque is non-empty.
  struct MutationLog {
    mutable std::mutex mu;
    std::deque<MutationRecord> records;
    uint64_t next_seq = 1;   ///< seq the NEXT append will take
    uint64_t first_seq = 1;  ///< seq of records.front() when non-empty
  };

  uint32_t ShardIndexOf(uint64_t id) const;
  const Shard& ShardOf(uint64_t id) const;
  Shard& ShardOf(uint64_t id);
  void AppendMutation(uint64_t id, uint64_t version, bool remove);
  /// The ingest path behind Upsert, BulkLoad and RestoreBatch (see the
  /// class comment). Without `restore` each chunk gets a fresh version
  /// block; with it the entries keep their versions and skip journal and
  /// sink. Returns the version of the batch's last entry (0 when empty).
  uint64_t Ingest(std::vector<CatalogEntry> entries,
                  std::span<const Count* const> sketches, bool restore,
                  BulkLoadStats* stats);
  /// Gives `entry` (digested, no artifacts yet) the artifacts (null when
  /// the resident entry has none yet), and a non-empty `sketch` the
  /// sketch row, of the resident entry under its id when both hold
  /// byte-equal content; returns whether it did.
  bool InheritResident(CatalogEntry* entry, std::span<Count> sketch) const;

  Options options_;
  std::vector<Shard> shards_;
  /// Null when Options::mutation_log_capacity == 0.
  std::unique_ptr<MutationLog> mutation_log_;
  /// The durable-log seam (see SetMutationSink); empty when detached.
  MutationSink mutation_sink_;
  /// Next version to issue; versions are catalog-wide and monotonic.
  std::atomic<uint64_t> next_version_{1};
  /// The mutation clock (see mutations_started()). Bumped around BOTH
  /// mutating entry points so tagged readers detect any concurrent churn.
  std::atomic<uint64_t> mutations_started_{0};
  std::atomic<uint64_t> mutations_finished_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> removes_{0};
  mutable std::atomic<uint64_t> snapshots_{0};
  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> prescreen_packs_skipped_{0};
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_CATALOG_H_
