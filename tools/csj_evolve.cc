// csj_evolve — long-horizon continuous community evolution driver.
//
// Builds a seeded drift scenario (per-community user join/leave streams,
// counter decay, community birth/death) over a ServeWorkload catalog,
// registers standing top-k queries with the TopKMaintainer, and replays
// the trace epoch by epoch. At every refresh point the maintained
// ranking is compared BYTE-FOR-BYTE against a fresh
// TopKSimilarService::Query recompute, and the maintainer's triggers are
// cross-checked against the observed fresh-ranking diffs (no missed, no
// spurious). The run measures staleness-vs-recompute cost: events
// applied, triggers fired, maintained vs fresh wall time, and the
// maximum ranking staleness window (drift events a changed ranking had
// accumulated before its refresh observed the change).
//
//   ./csj_evolve --catalog_size=400 --size=30 --events=300
//                --quiesce_every=50 --queries=4 --k=5
//                --json=BENCH_evolve.json
//
// Identity or trigger-exactness failures exit nonzero — this driver is a
// correctness gate first and a benchmark second.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "evolve/drift.h"
#include "evolve/maintainer.h"
#include "persist/store.h"
#include "service/deep_compare.h"
#include "service/result_cache.h"
#include "service/topk.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

/// Trigger semantics projection: ranked (id, similarity) pairs only.
bool SameRankingMeaning(const std::vector<csj::service::TopKEntry>& x,
                        const std::vector<csj::service::TopKEntry>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id != y[i].id || x[i].similarity != y[i].similarity) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  csj::util::Flags flags;
  flags.Define("catalog", "400", "seeded catalog entries");
  flags.Define("catalog_size", "0", "alias of --catalog (wins when > 0)");
  flags.Define("size", "30", "mean users per community");
  flags.Define("cluster", "4", "communities per topical cluster");
  flags.Define("plant_lo", "0.15", "cluster-member plant band, low edge");
  flags.Define("plant_hi", "0.35", "cluster-member plant band, high edge");
  flags.Define("eps", "1", "per-dimension epsilon");
  flags.Define("method", "Ex-MinMax", "exact refine method");
  flags.Define("k", "5", "top-k result size per standing query");
  flags.Define("queries", "4", "standing queries registered");
  flags.Define("events", "300", "drift events in the trace");
  flags.Define("quiesce_every", "50", "events per epoch (quiesce cadence)");
  flags.Define("refresh_every", "1",
               "epochs between maintainer refreshes (larger = staler "
               "rankings, fewer refreshes)");
  flags.Define("decay_factor", "0.9", "counter decay multiplier");
  flags.Define("sessions", "true",
               "maintain live IncrementalCsj anchor sessions for drifting "
               "communities");
  flags.Define("prescreen", "false",
               "serve fallback/fresh recomputes through the signature "
               "prescreen index");
  flags.Define("prescreen_threshold", "0.1",
               "prescreen admission threshold tau");
  flags.Define("log_capacity", "1048576",
               "catalog mutation-log retention (records)");
  flags.Define("result_cache", "false",
               "publish stable maintained rankings into a versioned "
               "result cache");
  flags.Define("store_dir", "",
               "persistent store directory (empty = RAM only); every "
               "quiesced mutation appends to the durable log");
  flags.Define("checkpoint_every", "0",
               "epochs between mid-run checkpoints at quiesce points "
               "(the catalog is quiescent there by construction; 0 = "
               "seal only the base catalog and the final state)");
  flags.Define("warm_restart", "true",
               "after the run: re-open the sealed store cold, restore "
               "into a scratch catalog and deep-verify the drifted "
               "catalog comes back byte-identical (only meaningful with "
               "--store_dir)");
  flags.Define("seed", "42", "workload (catalog) seed");
  flags.Define("drift_seed", "99", "drift stream seed");
  flags.Define("json", "", "write the results as JSON to this path");
  flags.Define("git_sha", "", "source revision stamped into the JSON");
  flags.Define("build_type", "", "CMake build type stamped into the JSON");
  if (!flags.Parse(argc, argv)) return 1;

  const auto method = csj::ParseMethod(flags.GetString("method"));
  if (!method.has_value() || !csj::IsExact(*method)) {
    std::fprintf(stderr, "--method must name an exact (Ex-*) method\n");
    return 1;
  }
  const bool prescreen = flags.GetBool("prescreen");
  const bool use_result_cache = flags.GetBool("result_cache");
  const auto query_count =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("queries")));
  const auto refresh_every = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt("refresh_every")));

  csj::evolve::DriftOptions drift;
  drift.base.catalog_size = std::max<uint32_t>(
      4, static_cast<uint32_t>(flags.GetInt("catalog_size") > 0
                                   ? flags.GetInt("catalog_size")
                                   : flags.GetInt("catalog")));
  drift.base.community_size =
      std::max<uint32_t>(16, static_cast<uint32_t>(flags.GetInt("size")));
  drift.base.cluster_size =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("cluster")));
  drift.base.plant_lo = flags.GetDouble("plant_lo");
  drift.base.plant_hi = flags.GetDouble("plant_hi");
  drift.base.eps = static_cast<csj::Epsilon>(flags.GetInt("eps"));
  drift.base.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  drift.events =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("events")));
  drift.quiesce_every = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt("quiesce_every")));
  drift.decay_factor = flags.GetDouble("decay_factor");
  drift.seed = static_cast<uint64_t>(flags.GetInt("drift_seed"));

  std::printf("building drift model: %u communities, %u events...\n",
              drift.base.catalog_size, drift.events);
  csj::util::Timer build_timer;
  csj::evolve::DriftModel model(drift);
  const double model_seconds = build_timer.Seconds();

  csj::EncodingCache cache;
  csj::service::CommunityCatalog::Options catalog_options;
  catalog_options.warm_eps = drift.base.eps;
  catalog_options.mutation_log_capacity = std::max<size_t>(
      1, static_cast<size_t>(flags.GetInt("log_capacity")));
  if (prescreen) catalog_options.signatures = csj::SignatureOptions{};
  csj::service::CommunityCatalog catalog(catalog_options);
  csj::service::TopKSimilarService service(&catalog);
  csj::service::TopKResultCache result_cache;

  build_timer.Reset();
  csj::evolve::DriftReplayer::Options replay_options;
  replay_options.session_join.eps = drift.base.eps;
  replay_options.session_join.cache = &cache;
  replay_options.anchor_sessions = flags.GetBool("sessions");
  csj::evolve::DriftReplayer replayer(&model, &catalog, replay_options);
  const double populate_seconds = build_timer.Seconds();
  std::printf("model %.2fs, populate %.2fs, %u epochs\n", model_seconds,
              populate_seconds, model.epochs());

  // Persistence: seal the base catalog, then log every quiesced
  // mutation. DriftReplayer only writes the catalog inside Quiesce, so
  // epoch boundaries are quiesce points — exactly where Checkpoint is
  // allowed to fold the log into a new sealed generation.
  const std::string store_dir = flags.GetString("store_dir");
  const auto checkpoint_every =
      static_cast<uint32_t>(std::max<int64_t>(0,
                                              flags.GetInt("checkpoint_every")));
  const bool warm_restart = flags.GetBool("warm_restart");
  std::unique_ptr<csj::persist::Store> store;
  uint64_t checkpoints = 0;
  double save_seconds = 0.0;
  if (!store_dir.empty()) {
    csj::persist::StoreOptions store_options;
    store_options.dir = store_dir;
    std::string store_error;
    store = csj::persist::Store::Open(store_options, &store_error);
    if (store == nullptr) {
      std::fprintf(stderr, "store open failed: %s\n", store_error.c_str());
      return 1;
    }
    csj::persist::CheckpointStats base_stats;
    if (!store->Checkpoint(catalog, &store_error, &base_stats)) {
      std::fprintf(stderr, "base checkpoint failed: %s\n",
                   store_error.c_str());
      return 1;
    }
    ++checkpoints;
    save_seconds += base_stats.snapshot_seconds + base_stats.write_seconds +
                    base_stats.commit_seconds;
    if (!store->StartLogging(&catalog, &store_error)) {
      std::fprintf(stderr, "log attach failed: %s\n", store_error.c_str());
      return 1;
    }
  }

  csj::service::TopKOptions topk;
  topk.k = std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("k")));
  topk.method = *method;
  topk.join.eps = drift.base.eps;
  topk.join.cache = &cache;
  topk.prescreen = prescreen;
  topk.prescreen_threshold = flags.GetDouble("prescreen_threshold");

  csj::evolve::TopKMaintainer::Options maintainer_options;
  maintainer_options.service = &service;
  maintainer_options.result_cache = use_result_cache ? &result_cache : nullptr;
  csj::evolve::TopKMaintainer maintainer(&catalog, maintainer_options);

  std::atomic<uint64_t> subscriber_triggers{0};
  maintainer.Subscribe([&](const csj::evolve::TriggerEvent&) {
    subscriber_triggers.fetch_add(1, std::memory_order_relaxed);
  });

  // Standing query pivots, spread across the base pool. The pivot buffers
  // are the ORIGINAL seeded bytes — the catalog drifts away underneath
  // them, which is exactly the "brand tracking its audience" framing.
  const auto& communities = model.workload().communities();
  std::vector<std::shared_ptr<const csj::Community>> pivots;
  for (uint32_t q = 0; q < query_count; ++q) {
    const size_t index =
        (static_cast<size_t>(q) * communities.size()) / query_count;
    pivots.push_back(communities[index]);
    maintainer.Register(communities[index], topk);
  }

  // Baselines (full recomputes by definition; excluded from the
  // maintained-vs-fresh cost comparison, which measures steady state).
  maintainer.RefreshAll();
  std::vector<std::vector<csj::service::TopKEntry>> fresh_prev(query_count);
  bool identity = true;
  for (uint32_t q = 0; q < query_count; ++q) {
    fresh_prev[q] = service.Query(*pivots[q], topk).entries;
    identity = identity && (maintainer.Ranking(q) == fresh_prev[q]);
  }
  if (!identity) std::fprintf(stderr, "BASELINE IDENTITY MISMATCH\n");

  // Epoch loop.
  bool trigger_exact = true;
  uint64_t triggers_fired = 0;
  uint64_t refresh_points = 0;
  double maintained_seconds = 0.0;
  double fresh_seconds = 0.0;
  double drift_seconds = 0.0;
  uint64_t max_staleness_events = 0;
  uint64_t installs = 0, removes = 0, births = 0, deaths = 0;
  uint64_t joins = 0, leaves = 0, decays = 0, noop_decays = 0;
  uint64_t session_rebuilds = 0;
  std::vector<uint64_t> events_since_refresh(query_count, 0);
  csj::util::Timer run_timer;

  for (uint32_t e = 0; e < model.epochs(); ++e) {
    const csj::evolve::EpochStats epoch = replayer.ApplyEpoch(e);
    drift_seconds += epoch.apply_seconds;
    installs += epoch.installs;
    removes += epoch.removes;
    births += epoch.births;
    deaths += epoch.deaths;
    joins += epoch.joins;
    leaves += epoch.leaves;
    decays += epoch.decays;
    noop_decays += epoch.noop_decays;
    session_rebuilds += epoch.session_rebuilds;
    for (auto& pending : events_since_refresh) pending += epoch.events;

    // Quiesce points double as checkpoint sites: Quiesce() just
    // returned, so no mutation is in flight and the log can roll.
    if (store != nullptr && checkpoint_every > 0 &&
        (e + 1) % checkpoint_every == 0 && e + 1 != model.epochs()) {
      std::string store_error;
      csj::persist::CheckpointStats epoch_checkpoint;
      if (!store->Checkpoint(catalog, &store_error, &epoch_checkpoint)) {
        std::fprintf(stderr, "checkpoint failed at epoch %u: %s\n", e,
                     store_error.c_str());
        return 1;
      }
      ++checkpoints;
      save_seconds += epoch_checkpoint.snapshot_seconds +
                      epoch_checkpoint.write_seconds +
                      epoch_checkpoint.commit_seconds;
    }

    const bool refresh_now =
        ((e + 1) % refresh_every == 0) || (e + 1 == model.epochs());
    if (!refresh_now) continue;
    ++refresh_points;

    for (uint32_t q = 0; q < query_count; ++q) {
      csj::util::Timer timer;
      const auto outcome = maintainer.Refresh(q);
      maintained_seconds += timer.Seconds();
      if (outcome.changed) {
        ++triggers_fired;
        max_staleness_events =
            std::max(max_staleness_events, events_since_refresh[q]);
      }
      events_since_refresh[q] = 0;

      timer.Reset();
      const auto fresh = service.Query(*pivots[q], topk);
      fresh_seconds += timer.Seconds();

      // Byte-for-byte identity: ids, versions, and similarity bits.
      if (!(maintainer.Ranking(q) == fresh.entries)) {
        identity = false;
        std::fprintf(stderr, "IDENTITY MISMATCH epoch %u query %u\n", e, q);
      }
      // Trigger exactness: fired iff the fresh (id, similarity) ranking
      // moved since this query's previous refresh point.
      const bool fresh_changed = !SameRankingMeaning(fresh_prev[q],
                                                     fresh.entries);
      if (fresh_changed != outcome.changed) {
        trigger_exact = false;
        std::fprintf(stderr,
                     "TRIGGER MISMATCH epoch %u query %u (fired=%d, "
                     "ranking_moved=%d)\n",
                     e, q, outcome.changed ? 1 : 0, fresh_changed ? 1 : 0);
      }
      fresh_prev[q] = fresh.entries;
    }
    if (model.epochs() <= 30 || (e + 1) % 10 == 0 ||
        e + 1 == model.epochs()) {
      std::printf("epoch %u/%u: %u installs, %u removes, triggers so far "
                  "%llu\n",
                  e + 1, model.epochs(), epoch.installs, epoch.removes,
                  static_cast<unsigned long long>(triggers_fired));
    }
  }
  const double run_seconds = run_timer.Seconds();

  const auto stats = maintainer.GetStats();
  const bool triggers_consistent =
      stats.triggers == triggers_fired &&
      subscriber_triggers.load(std::memory_order_relaxed) == triggers_fired;
  const bool maintained_faster = maintained_seconds < fresh_seconds;
  const double speedup =
      maintained_seconds > 0 ? fresh_seconds / maintained_seconds : 0.0;

  // Seal the drifted end state, then prove a cold open restores it
  // byte-identically (the populate-vs-load wall time is what a restart
  // of this driver would skip: model build + base populate + replay).
  bool persist_identical = true;
  double persist_load_seconds = 0.0;
  long persist_minflt = 0;
  long persist_majflt = 0;
  csj::persist::OpenStats reopen_stats;
  if (store != nullptr) {
    std::string store_error;
    store->StopLogging(&catalog);
    csj::persist::CheckpointStats final_checkpoint;
    if (!store->Checkpoint(catalog, &store_error, &final_checkpoint)) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   store_error.c_str());
      return 1;
    }
    ++checkpoints;
    save_seconds += final_checkpoint.snapshot_seconds +
                    final_checkpoint.write_seconds +
                    final_checkpoint.commit_seconds;
    if (warm_restart) {
      auto reopened = csj::persist::Store::Open(
          csj::persist::StoreOptions{.dir = store_dir}, &store_error,
          &reopen_stats);
      if (reopened == nullptr) {
        std::fprintf(stderr, "store re-open failed: %s\n",
                     store_error.c_str());
        return 1;
      }
      csj::service::CommunityCatalog scratch(catalog_options);
      rusage faults_before{};
      rusage faults_after{};
      getrusage(RUSAGE_SELF, &faults_before);
      csj::util::Timer restore_timer;
      if (!reopened->RestoreInto(&scratch, &store_error, &reopen_stats)) {
        std::fprintf(stderr, "restore failed: %s\n", store_error.c_str());
        return 1;
      }
      persist_load_seconds = restore_timer.Seconds();
      getrusage(RUSAGE_SELF, &faults_after);
      persist_minflt = faults_after.ru_minflt - faults_before.ru_minflt;
      persist_majflt = faults_after.ru_majflt - faults_before.ru_majflt;
      persist_identical = csj::service::CatalogsIdentical(
          catalog, scratch, drift.base.eps,
          flags.GetDouble("prescreen_threshold"));
      std::printf(
          "persist: %llu checkpoints (%.2f s saved), warm load %.3f s vs "
          "populate+replay %.2f s, state %s; load faults %ld minor / %ld "
          "major\n",
          static_cast<unsigned long long>(checkpoints), save_seconds,
          persist_load_seconds, populate_seconds + drift_seconds,
          persist_identical ? "identical" : "MISMATCH", persist_minflt,
          persist_majflt);
    }
  }

  const bool evolve_ok =
      identity && trigger_exact && triggers_consistent && persist_identical;

  std::printf(
      "done in %.2fs: %llu events, %llu installs, %llu removes, "
      "%llu triggers (exact=%s), maintained %.3fs vs fresh %.3fs "
      "(%.1fx), identity=%s\n",
      run_seconds,
      static_cast<unsigned long long>(replayer.events_applied()),
      static_cast<unsigned long long>(installs),
      static_cast<unsigned long long>(removes),
      static_cast<unsigned long long>(triggers_fired),
      trigger_exact ? "yes" : "NO",
      maintained_seconds, fresh_seconds, speedup,
      identity ? "yes" : "NO");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    csj::util::JsonWriter json;
    json.BeginObject();
    json.Key("benchmark"); json.String("evolve");
    json.Key("git_sha"); json.String(flags.GetString("git_sha"));
    json.Key("build_type"); json.String(flags.GetString("build_type"));
    json.Key("host_cores");
    json.Uint(std::thread::hardware_concurrency());
    json.Key("host_nproc_online");
    json.Int(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.Key("catalog"); json.Uint(drift.base.catalog_size);
    json.Key("community_size"); json.Uint(drift.base.community_size);
    json.Key("cluster"); json.Uint(drift.base.cluster_size);
    json.Key("k"); json.Uint(topk.k);
    json.Key("eps"); json.Uint(drift.base.eps);
    json.Key("method"); json.String(csj::MethodName(topk.method));
    json.Key("prescreen"); json.Bool(prescreen);
    json.Key("queries"); json.Uint(query_count);
    json.Key("events"); json.Uint(drift.events);
    json.Key("quiesce_every"); json.Uint(drift.quiesce_every);
    json.Key("refresh_every"); json.Uint(refresh_every);
    json.Key("epochs"); json.Uint(model.epochs());
    json.Key("refresh_points"); json.Uint(refresh_points);
    json.Key("seed"); json.Uint(drift.base.seed);
    json.Key("drift_seed"); json.Uint(drift.seed);
    json.Key("sessions"); json.Bool(replay_options.anchor_sessions);
    json.Key("model_seconds"); json.Double(model_seconds);
    json.Key("populate_seconds"); json.Double(populate_seconds);
    json.Key("drift");
    json.BeginObject();
    json.Key("events_applied"); json.Uint(replayer.events_applied());
    json.Key("joins"); json.Uint(joins);
    json.Key("leaves"); json.Uint(leaves);
    json.Key("decays"); json.Uint(decays);
    json.Key("noop_decays"); json.Uint(noop_decays);
    json.Key("births"); json.Uint(births);
    json.Key("deaths"); json.Uint(deaths);
    json.Key("installs"); json.Uint(installs);
    json.Key("removes"); json.Uint(removes);
    json.Key("session_rebuilds"); json.Uint(session_rebuilds);
    json.Key("apply_seconds"); json.Double(drift_seconds);
    json.EndObject();
    json.Key("maintainer");
    json.BeginObject();
    json.Key("refreshes"); json.Uint(stats.refreshes);
    json.Key("fast_paths"); json.Uint(stats.fast_paths);
    json.Key("fallbacks"); json.Uint(stats.fallbacks);
    json.Key("log_truncations"); json.Uint(stats.log_truncations);
    json.Key("reprobed_joins"); json.Uint(stats.reprobed_joins);
    json.Key("reprobe_skipped"); json.Uint(stats.reprobe_skipped);
    json.Key("cache_publishes"); json.Uint(stats.cache_publishes);
    json.EndObject();
    json.Key("triggers_fired"); json.Uint(triggers_fired);
    json.Key("trigger_exact"); json.Bool(trigger_exact);
    json.Key("max_staleness_events"); json.Uint(max_staleness_events);
    json.Key("maintained_seconds"); json.Double(maintained_seconds);
    json.Key("fresh_seconds"); json.Double(fresh_seconds);
    json.Key("maintained_speedup"); json.Double(speedup);
    json.Key("maintained_faster"); json.Bool(maintained_faster);
    json.Key("persist");
    json.BeginObject();
    json.Key("enabled"); json.Bool(store != nullptr);
    json.Key("store_dir"); json.String(store_dir);
    json.Key("checkpoint_every"); json.Uint(checkpoint_every);
    json.Key("checkpoints"); json.Uint(checkpoints);
    json.Key("generation");
    json.Uint(store != nullptr ? store->generation() : 0);
    json.Key("save_seconds"); json.Double(save_seconds);
    // Populate-vs-load: a restart restoring the sealed state skips the
    // model build + base populate + full drift replay.
    json.Key("populate_seconds");
    json.Double(populate_seconds + drift_seconds);
    json.Key("load_seconds"); json.Double(persist_load_seconds);
    json.Key("identical"); json.Bool(persist_identical);
    json.Key("segment_entries"); json.Uint(reopen_stats.segment_entries);
    json.Key("segment_bytes"); json.Uint(reopen_stats.segment_bytes);
    json.Key("map_seconds"); json.Double(reopen_stats.map_seconds);
    json.Key("restore_seconds"); json.Double(reopen_stats.restore_seconds);
    json.Key("replay_seconds"); json.Double(reopen_stats.replay_seconds);
    json.Key("load_minflt"); json.Int(persist_minflt);
    json.Key("load_majflt"); json.Int(persist_majflt);
    json.EndObject();
    json.Key("evolve_identical"); json.Bool(identity);
    json.Key("evolve_ok"); json.Bool(evolve_ok);
    json.EndObject();
    std::ofstream out(json_path);
    out << json.Take() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  // Identity and trigger exactness are correctness gates; wall-time
  // comparisons are reported but never fail the run by themselves.
  return evolve_ok ? 0 : 1;
}
