#include "service/catalog.h"

#include <algorithm>
#include <utility>

#include "core/encoding.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::service {

LiveCoupleSession::LiveCoupleSession(const CommunityCatalog* catalog,
                                     CatalogEntry entry,
                                     const JoinOptions& join)
    : catalog_(catalog),
      entry_(std::move(entry)),
      live_(*entry_.community, join) {}

bool LiveCoupleSession::Stale() const {
  const CatalogEntry current = catalog_->Get(entry_.id);
  return current.community == nullptr || current.version != entry_.version;
}

std::shared_ptr<const EntryEncodings> BuildEntryEncodings(
    const Community& community, Epsilon warm_eps, uint32_t warm_parts) {
  // Builds come one entry at a time and near-always in one
  // dimensionality, so the encoder (whose constructor allocates its
  // part-boundary table) is memoized per thread instead of rebuilt per
  // entry. The memo keys on the raw construction parameters: callers
  // pass several catalogs' and segments' warm options.
  struct EncoderMemo {
    std::unique_ptr<Encoder> encoder;
    Dim d = 0;
    Epsilon eps = 0;
    uint32_t parts = 0;
  };
  thread_local EncoderMemo memo;
  const Dim d = community.d();
  if (memo.encoder == nullptr || memo.d != d || memo.eps != warm_eps ||
      memo.parts != warm_parts) {
    memo.encoder = std::make_unique<Encoder>(d, warm_eps, warm_parts);
    memo.d = d;
    memo.eps = warm_eps;
    memo.parts = warm_parts;
  }
  auto encodings = std::make_shared<EntryEncodings>();
  encodings->encoded_b =
      std::make_shared<const EncodedB>(community, *memo.encoder);
  encodings->encoded_a =
      std::make_shared<const EncodedA>(community, *memo.encoder);
  return encodings;
}

CommunityCatalog::CommunityCatalog() : CommunityCatalog(Options{}) {}

CommunityCatalog::CommunityCatalog(Options options) : options_(options) {
  options_.shards = std::max(options_.shards, 1u);
  shards_ = std::vector<Shard>(options_.shards);
  if (options_.signatures.has_value()) {
    for (Shard& shard : shards_) shard.signatures.emplace(*options_.signatures);
    options_.signatures = shards_.front().signatures->options();
  }
  if (options_.mutation_log_capacity > 0) {
    mutation_log_ = std::make_unique<MutationLog>();
  }
}

void CommunityCatalog::AppendMutation(uint64_t id, uint64_t version,
                                      bool remove) {
  MutationLog& log = *mutation_log_;
  std::lock_guard lock(log.mu);
  log.records.push_back({log.next_seq++, id, version, remove});
  while (log.records.size() > options_.mutation_log_capacity) {
    log.records.pop_front();
    ++log.first_seq;
  }
}

uint64_t CommunityCatalog::mutation_seq() const {
  if (mutation_log_ == nullptr) return 0;
  std::lock_guard lock(mutation_log_->mu);
  return mutation_log_->next_seq - 1;
}

bool CommunityCatalog::ReadMutationsSince(
    uint64_t cursor, std::vector<MutationRecord>* out) const {
  if (mutation_log_ == nullptr) return false;
  MutationLog& log = *mutation_log_;
  std::lock_guard lock(log.mu);
  // A consumer is in sync iff no record in (cursor, next_seq) has been
  // truncated. With a dense deque that means cursor >= first_seq - 1.
  if (cursor + 1 < log.first_seq) return false;
  const uint64_t last = log.next_seq - 1;
  if (cursor >= last) return true;  // nothing new
  // Dense seqs make the suffix a direct index: records[i].seq ==
  // first_seq + i.
  const auto begin = static_cast<std::ptrdiff_t>(cursor + 1 - log.first_seq);
  out->insert(out->end(), log.records.begin() + begin, log.records.end());
  return true;
}

uint32_t CommunityCatalog::ShardIndexOf(uint64_t id) const {
  // Mix before reducing so dense sequential ids (the common assignment
  // scheme) and strided ids both spread over the shards.
  uint64_t state = id;
  return static_cast<uint32_t>(util::SplitMix64(state) % shards_.size());
}

const CommunityCatalog::Shard& CommunityCatalog::ShardOf(uint64_t id) const {
  return shards_[ShardIndexOf(id)];
}

CommunityCatalog::Shard& CommunityCatalog::ShardOf(uint64_t id) {
  return const_cast<Shard&>(
      static_cast<const CommunityCatalog*>(this)->ShardOf(id));
}

uint64_t CommunityCatalog::Upsert(uint64_t id, Community community) {
  std::vector<CatalogEntry> batch(1);
  batch[0].id = id;
  batch[0].community = std::make_shared<const Community>(std::move(community));
  return Ingest(std::move(batch), {}, /*restore=*/false, nullptr);
}

uint64_t CommunityCatalog::BulkLoad(
    std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch,
    BulkLoadStats* stats) {
  std::vector<CatalogEntry> entries(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    entries[i].id = batch[i].first;
    entries[i].community = std::move(batch[i].second);
  }
  return Ingest(std::move(entries), {}, /*restore=*/false, stats);
}

uint64_t CommunityCatalog::RestoreBatch(
    std::vector<CatalogEntry> batch, uint64_t next_version,
    std::span<const Count* const> sketches) {
  CSJ_CHECK_GE(next_version, 1u);
  for (const CatalogEntry& entry : batch) {
    CSJ_CHECK_GE(entry.version, 1u);
    CSJ_CHECK_LT(entry.version, next_version)
        << "restored version outside the recovered version horizon";
  }
  const bool empty = batch.empty();
  Ingest(std::move(batch), sketches, /*restore=*/true, nullptr);
  // Resume the writer's version sequence. fetch_max semantics: restore
  // only ever runs on a fresh catalog, but stay monotone regardless.
  uint64_t current = next_version_.load(std::memory_order_acquire);
  while (current < next_version &&
         !next_version_.compare_exchange_weak(current, next_version,
                                              std::memory_order_acq_rel)) {
  }
  return empty ? 0 : next_version - 1;
}

bool CommunityCatalog::InheritResident(CatalogEntry* entry,
                                       std::span<Count> sketch) const {
  std::shared_ptr<const Community> community;
  std::shared_ptr<const EntryEncodings> encodings;
  {
    const Shard& shard = ShardOf(entry->id);
    std::shared_lock lock(shard.mu);
    const auto it = shard.entries.find(entry->id);
    if (it == shard.entries.end()) return false;
    const CatalogEntry& resident = it->second;
    if (resident.digest.fingerprint != entry->digest.fingerprint ||
        resident.digest.max_counter != entry->digest.max_counter ||
        resident.community->d() != entry->community->d()) {
      return false;
    }
    community = resident.community;
    encodings = resident.encodings;
    // The row is valid only under this lock: copy it before the compare
    // (on a mismatch the sketch wave overwrites the staged bytes).
    if (!sketch.empty()) {
      std::ranges::copy(shard.signatures->Row(entry->id), sketch.begin());
    }
  }
  // The byte compare runs outside the lock; the pointers pin the
  // resident copy even if a racing ingest replaces it meanwhile. That
  // race only changes which equal copy is shared (or whether artifacts
  // come along at all): the artifacts depend on nothing but the content,
  // the warm parameters and the sketch options.
  const auto mine = entry->community->flat();
  const auto theirs = community->flat();
  if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end())) {
    return false;
  }
  entry->encodings = std::move(encodings);
  return true;
}

uint64_t CommunityCatalog::Ingest(std::vector<CatalogEntry> entries,
                                  std::span<const Count* const> sketches,
                                  bool restore, BulkLoadStats* stats) {
  if (stats != nullptr) *stats = BulkLoadStats{};
  const auto n = static_cast<uint32_t>(entries.size());
  if (n == 0) return 0;
  if (stats != nullptr) stats->entries = n;
  for (const CatalogEntry& entry : entries) {
    CSJ_CHECK(entry.community != nullptr && !entry.community->empty())
        << "catalog entries must be non-empty";
  }
  CSJ_CHECK(sketches.empty() || sketches.size() == n);

  // Build OUTSIDE any lock: digesting is O(n*d), and sketch building
  // sorts whole counter columns — holding a shard lock across either
  // would stall every reader of the shard. Only what the entry does not
  // carry is built.
  util::ThreadPool& pool = util::ThreadPool::Global();
  // Each wave runs over the entries that need it, listed before the wave
  // starts. A task streams the next listed entry's counters toward the
  // cache while it works: the entries' buffers are scattered over the
  // heap, and without it the first walk over each one is latency-bound.
  // The list, not the entries, says what the next task will work on, so
  // no task reads a field another task writes.
  std::vector<uint32_t> todo;
  const auto run_wave = [&](uint32_t chunk, uint32_t count,
                            const auto& needs, const auto& work) {
    todo.clear();
    for (uint32_t i = chunk; i < chunk + count; ++i) {
      if (needs(i)) todo.push_back(i);
    }
    pool.Run(static_cast<uint32_t>(todo.size()), [&](uint32_t t) {
      if (t + 1 < todo.size()) {
        const auto next = entries[todo[t + 1]].community->flat();
        for (size_t b = 0; b < next.size(); b += 16) {
          __builtin_prefetch(&next[b]);
        }
      }
      work(todo[t]);
    });
  };

  // One cache-sized chunk at a time: the sketch wave then finds the
  // counters the digest wave read still LLC-resident, and a staged sketch
  // table (the packs hold the only resident copy) lives only from its
  // build to its chunk's install. Phase timers accumulate across chunks.
  constexpr uint32_t kWaveChunk = 2048;
  const bool sketching = options_.signatures.has_value();
  const size_t row_len = sketching ? options_.signatures->quantiles + 1 : 0;
  // Per chunk slot: the staged table (empty for a supplied one).
  std::vector<std::vector<Count>> staged(std::min(n, kWaveChunk));
  std::vector<uint8_t> needs_sketch(staged.size());
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  std::vector<uint32_t> touched;
  uint64_t last_version = 0;
  util::Timer phase_timer;
  for (uint32_t chunk = 0; chunk < n; chunk += kWaveChunk) {
    const uint32_t count = std::min(kWaveChunk, n - chunk);
    for (uint32_t j = 0; j < count; ++j) {
      const CatalogEntry& entry = entries[chunk + j];
      needs_sketch[j] = sketching &&
                        (sketches.empty() || sketches[chunk + j] == nullptr);
      staged[j].resize(needs_sketch[j] ? entry.community->d() * row_len : 0);
    }
    const auto staged_row = [&](uint32_t i) {
      return std::span<Count>(staged[i - chunk]);
    };

    // Wave 1 — the digest, then the same-id content check: an entry whose
    // content equals the resident entry's shares that entry's artifacts
    // and sketch row. A restored entry arrives with its digest, so it
    // takes the check only when that can spare a sketch build. No
    // artifact is built: EncodingsAt does on first refine.
    phase_timer.Reset();
    run_wave(
        chunk, count,
        [&](uint32_t i) { return !restore || needs_sketch[i - chunk] != 0; },
        [&](uint32_t i) {
          CatalogEntry& entry = entries[i];
          if (!restore) entry.digest = DigestCommunity(*entry.community);
          if (InheritResident(&entry, staged_row(i))) {
            needs_sketch[i - chunk] = 0;
          }
        });
    if (stats != nullptr) stats->encode_seconds += phase_timer.Seconds();

    // Wave 2 — the staged sketch tables, with the digest's exact max
    // counter as the builder's radix width (no max-scan pass).
    phase_timer.Reset();
    run_wave(
        chunk, count, [&](uint32_t i) { return needs_sketch[i - chunk] != 0; },
        [&](uint32_t i) {
          thread_local SketchScratch scratch;
          BuildSketchTable(*entries[i].community, *options_.signatures,
                           &scratch, entries[i].digest.max_counter,
                           staged_row(i));
        });
    if (stats != nullptr) stats->sketch_seconds += phase_timer.Seconds();

    // Fresh versions are issued as one block right before the chunk's
    // install: element i gets base + i, exactly the version a sequential
    // Upsert loop would have issued (concurrent Upserts slot before or
    // after the block, never inside it).
    if (!restore) {
      const uint64_t base =
          next_version_.fetch_add(count, std::memory_order_acq_rel);
      for (uint32_t j = 0; j < count; ++j) {
        entries[chunk + j].version = base + j;
      }
    }
    last_version = entries[chunk + count - 1].version;
    const size_t chunks_left = (n - chunk + kWaveChunk - 1) / kWaveChunk;

    // Install — group the chunk by shard (batch order kept, so duplicate
    // ids replay last-wins), then one pool task per touched shard: one
    // exclusive lock + one batched index install, bracketed by its own
    // mutation-clock tick pair: `started` ticks BEFORE the shard flip is
    // visible to any reader, `finished` after it is complete, so every
    // completed flip is a stable state for tagged readers. The lock-free
    // build stays outside. No code calls the pool while it holds a shard
    // lock, so a task waiting here for one never blocks a submitter.
    phase_timer.Reset();
    for (std::vector<uint32_t>& members : by_shard) members.clear();
    for (uint32_t i = chunk; i < chunk + count; ++i) {
      by_shard[ShardIndexOf(entries[i].id)].push_back(i);
    }
    touched.clear();
    for (uint32_t s = 0; s < by_shard.size(); ++s) {
      if (!by_shard[s].empty()) touched.push_back(s);
    }
    pool.Run(static_cast<uint32_t>(touched.size()), [&](uint32_t t) {
      std::vector<uint32_t>& members = by_shard[touched[t]];
      Shard& shard = shards_[touched[t]];
      std::vector<SignatureIndex::SlotInstall> installs;
      if (sketching) {
        installs.reserve(members.size());
        for (const uint32_t i : members) {
          const CatalogEntry& entry = entries[i];
          const std::span<const Count> table =
              staged[i - chunk].empty()
                  ? std::span(sketches[i], entry.community->d() * row_len)
                  : staged_row(i);
          installs.push_back(
              {entry.id, entry.version, entry.community->size(), table});
        }
      }
      mutations_started_.fetch_add(1, std::memory_order_acq_rel);
      {
        std::unique_lock lock(shard.mu);
        // A write issued earlier never replaces one issued later. Only a
        // racing writer of the same id can hold a newer resident version
        // here; this member then counts as installed and overwritten at
        // once, so neither sink nor journal sees it. A restore keeps its
        // recorded versions and batch order instead.
        if (!restore) {
          size_t kept = 0;
          for (size_t m = 0; m < members.size(); ++m) {
            const auto it = shard.entries.find(entries[members[m]].id);
            if (it != shard.entries.end() &&
                it->second.version > entries[members[m]].version) {
              continue;
            }
            members[kept] = members[m];
            if (sketching) installs[kept] = installs[m];
            ++kept;
          }
          members.resize(kept);
          if (sketching) installs.resize(kept);
        }
        // The durable-log seam and the journal observe the install inside
        // its critical section, in member (= batch) order, so neither can
        // contradict the install order readers observe, per shard and per
        // id. A restore replays durable history and creates none. The
        // sink runs first, while the entries still hold their community
        // pointers — the move loop below strips them.
        if (!restore && mutation_sink_) {
          for (const uint32_t i : members) {
            mutation_sink_({entries[i].id, entries[i].version,
                            /*remove=*/false, entries[i].community});
          }
        }
        if (!restore && mutation_log_ != nullptr) {
          for (const uint32_t i : members) {
            AppendMutation(entries[i].id, entries[i].version,
                           /*remove=*/false);
          }
        }
        // Entry map and sketch store commit in one critical section, so
        // a probe (under the shared lock) always sees them in agreement.
        // Packs grow once for all chunks still to come, at this rate.
        if (sketching) shard.signatures->InstallBatch(installs, chunks_left);
        for (const uint32_t i : members) {
          // Entries are single-use here: moving skips the shared_ptr
          // refcount round-trips per element.
          const uint64_t id = entries[i].id;
          shard.entries.insert_or_assign(id, std::move(entries[i]));
        }
      }
      mutations_finished_.fetch_add(1, std::memory_order_acq_rel);
    });
    if (stats != nullptr) stats->install_seconds += phase_timer.Seconds();
  }
  upserts_.fetch_add(n, std::memory_order_relaxed);
  return last_version;
}

bool CommunityCatalog::Remove(uint64_t id) {
  Shard& shard = ShardOf(id);
  bool removed = false;
  // The clock must tick before we can know whether the id is resident, so
  // a Remove of an absent id ticks too: a spurious invalidation for
  // tagged readers, never a missed one.
  mutations_started_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock lock(shard.mu);
    removed = shard.entries.erase(id) > 0;
    if (removed && shard.signatures.has_value()) shard.signatures->Remove(id);
    // Only a remove that actually erased something is logged: a Remove
    // of an absent id changes no observable state for log consumers.
    if (removed && mutation_log_ != nullptr) {
      AppendMutation(id, /*version=*/0, /*remove=*/true);
    }
    if (removed && mutation_sink_) {
      mutation_sink_({id, /*version=*/0, /*remove=*/true, nullptr});
    }
  }
  mutations_finished_.fetch_add(1, std::memory_order_acq_rel);
  if (removed) removes_.fetch_add(1, std::memory_order_relaxed);
  return removed;
}

CatalogEntry CommunityCatalog::Get(uint64_t id) const {
  const Shard& shard = ShardOf(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.entries.find(id);
  return it == shard.entries.end() ? CatalogEntry{} : it->second;
}

std::shared_ptr<const EntryEncodings> CommunityCatalog::EncodingsAt(
    const CatalogEntry& entry) const {
  if (entry.encodings != nullptr) return entry.encodings;
  // Publishing fills a cache slot of a const catalog: the slot changes
  // under the exclusive lock and is read under the shared one, and every
  // value it can take holds the same bytes.
  Shard& shard = const_cast<Shard&>(ShardOf(entry.id));
  {
    std::shared_lock lock(shard.mu);
    const auto it = shard.entries.find(entry.id);
    if (it != shard.entries.end() && it->second.version == entry.version &&
        it->second.encodings != nullptr) {
      return it->second.encodings;
    }
  }
  std::shared_ptr<const EntryEncodings> built = BuildEntryEncodings(
      *entry.community, options_.warm_eps, options_.warm_parts);
  std::unique_lock lock(shard.mu);
  const auto it = shard.entries.find(entry.id);
  if (it == shard.entries.end() || it->second.version != entry.version) {
    return built;  // replaced or removed since the pin: keep it private
  }
  if (it->second.encodings == nullptr) it->second.encodings = built;
  return it->second.encodings;
}

std::vector<Count> CommunityCatalog::SketchAt(uint64_t id,
                                              uint64_t version) const {
  const Shard& shard = ShardOf(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.entries.find(id);
  if (!shard.signatures.has_value() || it == shard.entries.end() ||
      it->second.version != version) {
    return {};
  }
  const std::span<const Count> row = shard.signatures->Row(id);
  return {row.begin(), row.end()};
}

std::vector<CatalogEntry> CommunityCatalog::Snapshot() const {
  std::vector<CatalogEntry> snapshot;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, entry] : shard.entries) snapshot.push_back(entry);
  }
  // Shards hold hashed maps, so the concatenation is in no particular
  // order; one sort restores the deterministic ascending-id order every
  // consumer (and the top-k tie-break) assumes.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const CatalogEntry& x, const CatalogEntry& y) {
              return x.id < y.id;
            });
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return snapshot;
}

CommunityCatalog::ProbeResult CommunityCatalog::ProbeCandidates(
    const CommunitySignature& query_signature,
    std::span<const Dim> probe_order, Epsilon eps, double threshold) const {
  CSJ_CHECK(options_.signatures.has_value())
      << "ProbeCandidates requires Options::signatures";
  ProbeResult result;
  SignatureIndex::ProbeQuery probe;
  probe.signature = &query_signature;
  probe.eps = eps;
  probe.threshold = threshold;
  probe.probe_order = probe_order;
  std::vector<PrescreenCandidate> passing;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    passing.clear();
    shard.signatures->Probe(probe, &passing, &result.stats);
    for (const PrescreenCandidate& candidate : passing) {
      const auto it = shard.entries.find(candidate.id);
      // Index rows and entries commit under one exclusive lock, so a
      // passing id is always resident at exactly the probed version.
      CSJ_CHECK(it != shard.entries.end());
      CSJ_CHECK(it->second.version == candidate.version);
      CatalogEntry& head = result.candidates.emplace_back();
      head.id = candidate.id;
      head.version = candidate.version;
      head.community = it->second.community;
    }
  }
  // Same deterministic ascending-id order as Snapshot(): the top-k walk's
  // tie-break and the differential tests both assume it.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const CatalogEntry& x, const CatalogEntry& y) {
              return x.id < y.id;
            });
  probes_.fetch_add(1, std::memory_order_relaxed);
  prescreen_packs_skipped_.fetch_add(result.stats.packs_skipped,
                                     std::memory_order_relaxed);
  return result;
}

uint32_t CommunityCatalog::size() const {
  uint32_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    total += static_cast<uint32_t>(shard.entries.size());
  }
  return total;
}

std::unique_ptr<LiveCoupleSession> CommunityCatalog::AttachLive(
    const Community& query, uint64_t entry_id, const JoinOptions& join) const {
  CatalogEntry entry = Get(entry_id);
  if (entry.community == nullptr) return nullptr;
  if (entry.community->d() != query.d()) return nullptr;
  auto session = std::unique_ptr<LiveCoupleSession>(
      new LiveCoupleSession(this, std::move(entry), join));
  for (UserId u = 0; u < query.size(); ++u) {
    session->AddSubscriber(query.User(u));
  }
  return session;
}

CommunityCatalog::Stats CommunityCatalog::GetStats() const {
  Stats stats;
  stats.upserts = upserts_.load(std::memory_order_relaxed);
  stats.removes = removes_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.prescreen_packs_skipped =
      prescreen_packs_skipped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace csj::service
