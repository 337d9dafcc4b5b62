#include "evolve/drift.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::evolve {

namespace {

/// Generation-time membership simulation of one live community: just
/// enough state to mint valid events (live keys, next fresh key, the
/// frozen source buffer join payloads are drawn from).
struct SimCommunity {
  std::shared_ptr<const Community> source;
  std::vector<uint64_t> live_keys;
  uint64_t next_key = 0;
  bool is_anchor = false;
};

}  // namespace

DriftModel::DriftModel(DriftOptions options)
    : options_(std::move(options)), workload_(options_.base) {
  options_.quiesce_every = std::max(options_.quiesce_every, 1u);
  options_.min_community_size = std::max(options_.min_community_size, 1u);
  options_.min_catalog_size = std::max(options_.min_catalog_size, 1u);

  std::map<uint64_t, SimCommunity> sims;
  std::vector<uint64_t> live;  // ids eligible for event targeting
  const auto& communities = workload_.communities();
  const uint32_t cluster = std::max(options_.base.cluster_size, 1u);
  for (uint32_t i = 0; i < communities.size(); ++i) {
    const uint64_t id = i + 1;
    SimCommunity sim;
    sim.source = communities[i];
    sim.live_keys.resize(sim.source->size());
    for (uint64_t key = 0; key < sim.live_keys.size(); ++key) {
      sim.live_keys[key] = key;
    }
    sim.next_key = sim.live_keys.size();
    sim.is_anchor = (i % cluster) == 0;
    sims.emplace(id, std::move(sim));
    live.push_back(id);
  }
  uint64_t next_birth_id = communities.size() + 1;

  util::Rng rng(options_.seed);
  const Epsilon eps = options_.base.eps;

  // Picks a random live id satisfying `pred`, scanning from a random
  // start so the choice stays uniform-ish without ever failing while a
  // valid target exists. Returns the index into `live`, or -1.
  const auto pick_where = [&](auto&& pred) -> int64_t {
    if (live.empty()) return -1;
    const size_t start = static_cast<size_t>(rng.Below(live.size()));
    for (size_t off = 0; off < live.size(); ++off) {
      const size_t idx = (start + off) % live.size();
      if (pred(live[idx])) return static_cast<int64_t>(idx);
    }
    return -1;
  };

  const auto make_join = [&]() -> DriftEvent {
    const int64_t idx = pick_where([](uint64_t) { return true; });
    CSJ_CHECK(idx >= 0);
    const uint64_t id = live[static_cast<size_t>(idx)];
    SimCommunity& sim = sims.at(id);
    DriftEvent event;
    event.kind = DriftEventKind::kUserJoin;
    event.community_id = id;
    event.user_key = sim.next_key++;
    // Payload: a copy of a random existing profile, nudged on two random
    // dimensions by up to eps+1 — close enough to keep eps-matching
    // interesting, far enough to move similarities.
    const Community& src = *sim.source;
    const auto row = src.User(static_cast<UserId>(rng.Below(src.size())));
    event.user.assign(row.begin(), row.end());
    for (int j = 0; j < 2; ++j) {
      const Dim dim = static_cast<Dim>(rng.Below(src.d()));
      const int64_t delta =
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(eps) + 2)) *
          (rng.Bernoulli(0.5) ? 1 : -1);
      const int64_t value = static_cast<int64_t>(event.user[dim]) + delta;
      event.user[dim] = static_cast<Count>(std::max<int64_t>(0, value));
    }
    sim.live_keys.push_back(event.user_key);
    return event;
  };

  const double weights[5] = {options_.join_weight, options_.leave_weight,
                             options_.decay_weight, options_.birth_weight,
                             options_.death_weight};
  double total_weight = 0.0;
  for (const double w : weights) total_weight += std::max(w, 0.0);
  CSJ_CHECK(total_weight > 0.0) << "drift event mix has no mass";

  trace_.reserve(options_.events);
  for (uint32_t e = 0; e < options_.events; ++e) {
    const double roll = rng.NextDouble() * total_weight;
    double cut = std::max(weights[0], 0.0);
    int kind = 0;
    while (kind < 4 && roll >= cut) {
      ++kind;
      cut += std::max(weights[kind], 0.0);
    }
    switch (kind) {
      case 1: {  // leave
        const int64_t idx = pick_where([&](uint64_t id) {
          return sims.at(id).live_keys.size() > options_.min_community_size;
        });
        if (idx < 0) {
          trace_.push_back(make_join());
          break;
        }
        const uint64_t id = live[static_cast<size_t>(idx)];
        SimCommunity& sim = sims.at(id);
        const size_t slot = static_cast<size_t>(rng.Below(sim.live_keys.size()));
        DriftEvent event;
        event.kind = DriftEventKind::kUserLeave;
        event.community_id = id;
        event.user_key = sim.live_keys[slot];
        sim.live_keys[slot] = sim.live_keys.back();
        sim.live_keys.pop_back();
        trace_.push_back(std::move(event));
        break;
      }
      case 2: {  // decay
        const int64_t idx = pick_where([](uint64_t) { return true; });
        CSJ_CHECK(idx >= 0);
        DriftEvent event;
        event.kind = DriftEventKind::kDecay;
        event.community_id = live[static_cast<size_t>(idx)];
        event.decay_factor = options_.decay_factor;
        trace_.push_back(std::move(event));
        break;
      }
      case 3: {  // birth
        DriftEvent event;
        event.kind = DriftEventKind::kBirth;
        event.community_id = next_birth_id++;
        event.born = workload_.MintAgainstAnchor(rng, &event.anchor_id);
        SimCommunity sim;
        sim.source = event.born;
        sim.live_keys.resize(sim.source->size());
        for (uint64_t key = 0; key < sim.live_keys.size(); ++key) {
          sim.live_keys[key] = key;
        }
        sim.next_key = sim.live_keys.size();
        sims.emplace(event.community_id, std::move(sim));
        live.push_back(event.community_id);
        trace_.push_back(std::move(event));
        break;
      }
      case 4: {  // death
        if (live.size() <= options_.min_catalog_size) {
          trace_.push_back(make_join());
          break;
        }
        const int64_t idx = pick_where(
            [&](uint64_t id) { return !sims.at(id).is_anchor; });
        if (idx < 0) {
          trace_.push_back(make_join());
          break;
        }
        const uint64_t id = live[static_cast<size_t>(idx)];
        DriftEvent event;
        event.kind = DriftEventKind::kDeath;
        event.community_id = id;
        sims.erase(id);
        live[static_cast<size_t>(idx)] = live.back();
        live.pop_back();
        trace_.push_back(std::move(event));
        break;
      }
      default:
        trace_.push_back(make_join());
        break;
    }
  }
}

uint32_t DriftModel::epochs() const {
  return static_cast<uint32_t>(
      (trace_.size() + options_.quiesce_every - 1) / options_.quiesce_every);
}

std::span<const DriftEvent> DriftModel::epoch(uint32_t e) const {
  const size_t begin = static_cast<size_t>(e) * options_.quiesce_every;
  CSJ_CHECK(begin < trace_.size()) << "epoch out of range";
  const size_t end = std::min(begin + options_.quiesce_every, trace_.size());
  return std::span<const DriftEvent>(trace_.data() + begin, end - begin);
}

uint64_t DriftModel::AnchorOf(uint64_t base_id) const {
  CSJ_CHECK(base_id >= 1 && base_id <= workload_.communities().size());
  const uint64_t index = base_id - 1;
  const uint32_t cluster = std::max(options_.base.cluster_size, 1u);
  const uint64_t anchor_index = index - index % cluster;
  return anchor_index == index ? 0 : anchor_index + 1;
}

DriftReplayer::DriftReplayer(const DriftModel* model,
                             service::CommunityCatalog* catalog,
                             Options options)
    : model_(model), catalog_(catalog), options_(options) {
  CSJ_CHECK(model_ != nullptr && catalog_ != nullptr);
  const auto& communities = model_->workload().communities();
  std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch;
  batch.reserve(communities.size());
  for (uint32_t i = 0; i < communities.size(); ++i) {
    batch.emplace_back(i + 1, communities[i]);
  }
  catalog_->BulkLoad(std::move(batch));
  for (uint32_t i = 0; i < communities.size(); ++i) {
    const uint64_t id = i + 1;
    CommunityState state;
    state.frozen = communities[i];
    state.anchor_id = model_->AnchorOf(id);
    states_.emplace(id, std::move(state));
  }
}

void DriftReplayer::AttachSession(CommunityState& state) {
  state.session =
      catalog_->AttachLive(*state.frozen, state.anchor_id,
                           options_.session_join);
  state.handles.clear();
  if (state.session == nullptr) return;  // anchor gone: stay detached
  // AttachLive seeds subscribers from `frozen`'s rows in order, and
  // frozen is built in ascending key order, so handle h belongs to the
  // h-th smallest live key.
  service::LiveCoupleSession::Handle handle = 0;
  if (state.materialized) {
    for (const auto& [key, vec] : state.users) state.handles[key] = handle++;
  } else {
    for (uint64_t key = 0; key < state.frozen->size(); ++key) {
      state.handles[key] = handle++;
    }
  }
}

namespace {

void Materialize(const Community& frozen,
                 std::map<uint64_t, std::vector<Count>>* users) {
  for (UserId u = 0; u < frozen.size(); ++u) {
    const auto row = frozen.User(u);
    (*users)[u] = std::vector<Count>(row.begin(), row.end());
  }
}

}  // namespace

void DriftReplayer::Apply(std::span<const DriftEvent> events) {
  util::Timer timer;
  for (const DriftEvent& event : events) {
    ++events_applied_;
    ++pending_.events;
    switch (event.kind) {
      case DriftEventKind::kBirth: {
        CommunityState state;
        state.frozen = event.born;
        state.anchor_id = event.anchor_id;
        state.dirty = true;  // not yet installed
        auto [it, inserted] =
            states_.emplace(event.community_id, std::move(state));
        CSJ_CHECK(inserted) << "birth of a resident id";
        if (options_.anchor_sessions && it->second.anchor_id != 0) {
          it->second.wants_session = true;
          AttachSession(it->second);
        }
        ++pending_.births;
        break;
      }
      case DriftEventKind::kDeath: {
        const auto it = states_.find(event.community_id);
        CSJ_CHECK(it != states_.end()) << "death of an absent id";
        states_.erase(it);  // session and handles die with the state
        pending_removes_.push_back(event.community_id);
        ++pending_.deaths;
        break;
      }
      case DriftEventKind::kUserJoin:
      case DriftEventKind::kUserLeave:
      case DriftEventKind::kDecay: {
        const auto it = states_.find(event.community_id);
        CSJ_CHECK(it != states_.end()) << "event on an absent id";
        CommunityState& state = it->second;
        if (options_.anchor_sessions && !state.wants_session &&
            state.anchor_id != 0) {
          state.wants_session = true;
          // Lazy first attach is only sound while frozen == live state;
          // a dirty state waits for the quiesce rebuild instead.
          if (!state.dirty) AttachSession(state);
        }
        if (!state.materialized) {
          Materialize(*state.frozen, &state.users);
          state.materialized = true;
        }
        if (event.kind == DriftEventKind::kUserJoin) {
          state.users[event.user_key] = event.user;
          state.dirty = true;
          if (state.session != nullptr) {
            state.handles[event.user_key] =
                state.session->AddSubscriber(event.user);
          }
          ++pending_.joins;
        } else if (event.kind == DriftEventKind::kUserLeave) {
          const size_t erased = state.users.erase(event.user_key);
          CSJ_CHECK(erased == 1) << "leave of an absent user key";
          state.dirty = true;
          if (state.session != nullptr) {
            const auto handle_it = state.handles.find(event.user_key);
            if (handle_it != state.handles.end()) {
              state.session->RemoveSubscriber(handle_it->second);
              state.handles.erase(handle_it);
            }
          }
          ++pending_.leaves;
        } else {  // kDecay
          bool changed = false;
          for (auto& [key, vec] : state.users) {
            for (Count& c : vec) {
              const Count scaled = static_cast<Count>(
                  static_cast<double>(c) * event.decay_factor);
              if (scaled != c) {
                c = scaled;
                changed = true;
              }
            }
          }
          ++pending_.decays;
          if (!changed) {
            // A decay that moved no counter is a true no-op: nothing is
            // installed, no trigger can fire, the session stays exact.
            ++pending_.noop_decays;
          } else {
            state.dirty = true;
            // Wholesale B rewrite — the documented IncrementalCsj policy
            // for this is REBUILD, which the quiesce pass performs.
            state.session.reset();
            state.handles.clear();
          }
        }
        break;
      }
    }
  }
  pending_.apply_seconds += timer.Seconds();
}

std::shared_ptr<const Community> DriftReplayer::Freeze(
    uint64_t id, const CommunityState& state) const {
  if (!state.materialized) return state.frozen;
  Community community(state.frozen->d(), "drift_" + std::to_string(id));
  for (const auto& [key, vec] : state.users) {
    community.AddUser(vec);
  }
  return std::make_shared<const Community>(std::move(community));
}

EpochStats DriftReplayer::Quiesce() {
  util::Timer timer;
  util::ThreadPool& pool = options_.session_join.pool != nullptr
                               ? *options_.session_join.pool
                               : util::ThreadPool::Global();
  const uint32_t threads = options_.freeze_threads > 0
                               ? options_.freeze_threads
                               : pool.threads();

  // 1. Freeze every dirty community, ascending id, slot-per-index.
  std::vector<uint64_t> dirty_ids;
  std::vector<CommunityState*> dirty_states;
  for (auto& [id, state] : states_) {
    if (state.dirty) {
      dirty_ids.push_back(id);
      dirty_states.push_back(&state);
    }
  }
  const uint32_t n = static_cast<uint32_t>(dirty_ids.size());
  std::vector<std::shared_ptr<const Community>> frozen(n);
  const auto freeze_one = [&](uint32_t i) {
    frozen[i] = Freeze(dirty_ids[i], *dirty_states[i]);
  };
  if (threads > 1 && n > 1) {
    pool.Run(n, freeze_one, threads);
  } else {
    for (uint32_t i = 0; i < n; ++i) freeze_one(i);
  }

  // 2. Install the batch in ascending-id order: versions and the
  // mutation log come out identical at any thread count.
  if (n > 0) {
    std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch;
    batch.reserve(n);
    for (uint32_t i = 0; i < n; ++i) batch.emplace_back(dirty_ids[i], frozen[i]);
    catalog_->BulkLoad(std::move(batch));
    for (uint32_t i = 0; i < n; ++i) {
      dirty_states[i]->frozen = std::move(frozen[i]);
      dirty_states[i]->dirty = false;
    }
    pending_.installs += n;
  }

  // 3. Deaths, ascending id after the installs (same order every run).
  std::sort(pending_removes_.begin(), pending_removes_.end());
  for (const uint64_t id : pending_removes_) {
    if (catalog_->Remove(id)) ++pending_.removes;
  }
  pending_removes_.clear();

  // 4. Re-attach invalidated sessions: a decay dropped the session (B
  // rewritten wholesale), or the pinned anchor entry moved on (the
  // anchor itself drifted — Stale()). Both take the rebuild path.
  if (options_.anchor_sessions) {
    for (auto& [id, state] : states_) {
      if (!state.wants_session) continue;
      if (state.session != nullptr && !state.session->Stale()) continue;
      AttachSession(state);
      if (state.session != nullptr) ++pending_.session_rebuilds;
    }
  }

  pending_.apply_seconds += timer.Seconds();
  EpochStats stats = pending_;
  pending_ = EpochStats{};
  return stats;
}

EpochStats DriftReplayer::ApplyEpoch(uint32_t e) {
  Apply(model_->epoch(e));
  return Quiesce();
}

std::shared_ptr<const Community> DriftReplayer::LiveSnapshot(
    uint64_t id) const {
  const auto it = states_.find(id);
  if (it == states_.end()) return nullptr;
  return it->second.dirty ? Freeze(id, it->second) : it->second.frozen;
}

const service::LiveCoupleSession* DriftReplayer::session(uint64_t id) const {
  const auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second.session.get();
}

std::vector<uint64_t> DriftReplayer::live_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(states_.size());
  for (const auto& [id, state] : states_) ids.push_back(id);
  return ids;
}

}  // namespace csj::evolve
