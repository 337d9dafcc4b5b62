// csj_evolve — long-horizon continuous community evolution driver.
//
// Builds a seeded drift scenario (per-community user join/leave streams,
// counter decay, community birth/death) over a ServeWorkload catalog,
// registers standing top-k queries with the TopKMaintainer, and replays
// the trace epoch by epoch. The run measures the refresh cost of
// maintained rankings against recomputing them: at every refresh point
// each maintained ranking is timed against a fresh
// TopKSimilarService::Query, the maintained path's cost baseline. It
// also reports events applied, triggers fired and the maximum ranking
// staleness window (drift events a changed ranking had accumulated
// before its refresh observed the change).
//
//   ./csj_evolve --catalog_size=400 --size=30 --events=300
//                --quiesce_every=50 --queries=4 --k=5
//
// Since the fresh recompute runs anyway, the driver also compares the
// two rankings byte for byte and cross-checks each trigger against the
// fresh-ranking diff (no missed, no spurious), and exits nonzero on a
// mismatch; EvolveDifferentialTest proves the same over 300+ traces.

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

  build_timer.Reset();
  csj::evolve::DriftReplayer::Options replay_options;
  replay_options.session_join.eps = drift.base.eps;
  replay_options.session_join.cache = &cache;
  replay_options.anchor_sessions = flags.GetBool("sessions");
  csj::evolve::DriftReplayer replayer(&model, &catalog, replay_options);
  const double populate_seconds = build_timer.Seconds();
  std::printf("model %.2fs, populate %.2fs, %u epochs\n", model_seconds,
              populate_seconds, model.epochs());

  csj::service::TopKOptions topk;
  topk.k = std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("k")));
  topk.method = *method;
  topk.join.eps = drift.base.eps;
  topk.join.cache = &cache;
  topk.prescreen = prescreen;
  topk.prescreen_threshold = flags.GetDouble("prescreen_threshold");

  csj::evolve::TopKMaintainer::Options maintainer_options;
  maintainer_options.service = &service;
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

  const bool evolve_ok = identity && trigger_exact && triggers_consistent;

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
    json.EndObject();
    json.Key("triggers_fired"); json.Uint(triggers_fired);
    json.Key("trigger_exact"); json.Bool(trigger_exact);
    json.Key("max_staleness_events"); json.Uint(max_staleness_events);
    json.Key("maintained_seconds"); json.Double(maintained_seconds);
    json.Key("fresh_seconds"); json.Double(fresh_seconds);
    json.Key("maintained_speedup"); json.Double(speedup);
    json.Key("maintained_faster"); json.Bool(maintained_faster);
    json.Key("evolve_identical"); json.Bool(identity);
    json.Key("evolve_ok"); json.Bool(evolve_ok);
    json.EndObject();
    std::ofstream out(json_path);
    out << json.Take() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  // Wall-time comparisons are reported but never fail the run.
  return evolve_ok ? 0 : 1;
}
