// csj_serve — closed-loop load driver for the serving subsystem.
//
// Boots a CsjServer (sharded catalog whose entries carry their MinMax
// artifacts + bounded request queue + worker crew), populates it with a
// seeded brand catalog or warm-restarts it from a store, then replays a
// deterministic request mix (top-k reads with uniform or zipf-skewed
// query popularity, plus upsert/remove churn) from N closed-loop client
// threads. Reports throughput and p50/p95/p99 latency (util::Histogram)
// and optionally writes them as JSON. Exits nonzero unless every request
// completed without a reject, an expired deadline or a transport error.
//
//   ./csj_serve --catalog=24 --size=150 --requests=200 --clients=4
//               --workers=2 --zipf=1.1 --upsert_fraction=0.05
//
// --prescreen serves reads through the signature prescreen index (the
// catalog then keeps every entry's sketch resident); --catalog_size is an
// alias of --catalog for large-catalog scenarios:
//
//   ./csj_serve --catalog_size=100000 --size=40 --cluster=12
//               --plant_lo=0.5 --plant_hi=0.8 --k=5 --requests=150
//               --clients=2 --workers=2 --zipf=1.1 --upsert_fraction=0
//               --prescreen
//
// --net boots a loopback NetServer (binary wire protocol, epoll reactor)
// in front of the same CsjServer and drives every client through a
// NetClient connection instead of in-process Submit. --result_cache
// enables the versioned hot-query result cache; ok top-k latencies are
// then split into cache-hit and compute (miss) populations.
//
// --store_dir attaches the durable store: a fresh populate is sealed into
// a checkpoint and the loop's churn appends to the mutation log. With
// --warm_restart the next run restores that store (segment map + log
// replay) instead of populating, and reports the load wall time.
//
// Correctness of every path driven here (prescreen == scan, bulk ==
// sequential, cached == direct, net == direct, restored == written) is
// proven by the ctest suites and perfbench's per-response check, not by
// this driver.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "persist/store.h"
#include "service/server.h"
#include "service/workload.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

/// Per-client tallies, merged after the run (client order, deterministic).
struct ClientResult {
  std::vector<double> latencies_ms;  ///< completed requests only
  // ok top-k latencies split by result-cache outcome (both empty when the
  // result cache is off): the hit population is what the cache buys, the
  // miss population is the compute baseline it is measured against.
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t deadline_expired = 0;
  uint64_t not_found = 0;
  uint64_t transport_errors = 0;  ///< net mode: dead connection mid-loop
  // Prescreen accounting summed over completed top-k responses.
  uint64_t prescreen_probed = 0;
  uint64_t prescreen_skipped = 0;
  uint64_t fallbacks = 0;
};

/// The wire view of a workload request (the net closed loop's encoder
/// input). Per-request knobs cross the wire; server policy (cache
/// pointers, pools) stays in the NetServer's template.
csj::net::WireRequest ToWireRequest(const csj::service::ServeRequest& request) {
  csj::net::WireRequest wire;
  wire.kind = request.kind;
  wire.id = request.id;
  wire.community = request.community;
  wire.k = request.topk.k;
  wire.eps = request.topk.join.eps;
  wire.method = request.topk.method;
  wire.prescreen = request.topk.prescreen;
  wire.use_bound_cutoff = request.topk.use_bound_cutoff;
  wire.prescreen_threshold = request.topk.prescreen_threshold;
  wire.deadline_seconds = request.deadline_seconds;
  return wire;
}

/// One latency population's percentiles, via util::Histogram sized from
/// the observed maximum: 2048 buckets keep the p99 resolution under 0.05%
/// of the range.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

LatencySummary Summarize(const std::vector<double>& latencies_ms) {
  LatencySummary summary;
  if (latencies_ms.empty()) return summary;
  double sum_ms = 0.0;
  for (const double ms : latencies_ms) {
    summary.max_ms = std::max(summary.max_ms, ms);
    sum_ms += ms;
  }
  csj::util::Histogram histogram(0.0, std::max(summary.max_ms, 1e-6), 2048);
  for (const double ms : latencies_ms) histogram.Add(ms);
  summary.p50_ms = histogram.Quantile(0.50);
  summary.p95_ms = histogram.Quantile(0.95);
  summary.p99_ms = histogram.Quantile(0.99);
  summary.mean_ms = sum_ms / static_cast<double>(latencies_ms.size());
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  csj::util::Flags flags;
  flags.Define("catalog", "24", "seeded catalog entries");
  flags.Define("catalog_size", "0",
               "alias of --catalog for large-catalog scenarios (wins when "
               "> 0)");
  flags.Define("size", "150", "mean users per community");
  flags.Define("cluster", "3", "communities per topical cluster");
  flags.Define("plant_lo", "0.15", "cluster-member plant band, low edge");
  flags.Define("plant_hi", "0.35", "cluster-member plant band, high edge");
  flags.Define("k", "5", "top-k result size per query");
  flags.Define("requests", "200", "total requests across all clients");
  flags.Define("clients", "4", "closed-loop client threads");
  flags.Define("workers", "2", "server worker threads");
  flags.Define("queue_capacity", "64", "admission-control queue bound");
  flags.Define("upsert_fraction", "0.05", "share of requests that upsert");
  flags.Define("remove_fraction", "0.0", "share of requests that remove");
  flags.Define("zipf", "0.0",
               "query-popularity skew (0 = uniform, ~1.1 = web-like)");
  flags.Define("eps", "1", "per-dimension epsilon");
  flags.Define("method", "Ex-MinMax", "exact refine method");
  flags.Define("deadline_ms", "0", "per-request deadline (0 = none)");
  flags.Define("query_threads", "1", "threads per query (bound+refine)");
  flags.Define("no_cutoff", "false",
               "disable the best-bound-first cutoff (exhaustive walk)");
  flags.Define("prescreen", "false",
               "serve reads through the signature prescreen index");
  flags.Define("prescreen_threshold", "0.1",
               "prescreen admission threshold tau");
  flags.Define("net", "false",
               "serve the closed loop over loopback TCP (binary wire "
               "protocol + epoll reactor) instead of in-process Submit");
  flags.Define("result_cache", "false",
               "enable the versioned hot-query result cache");
  flags.Define("result_cache_capacity", "4096",
               "total result-cache rankings across shards");
  flags.Define("store_dir", "",
               "persistent store directory (empty = RAM only); mutations "
               "append to the durable log while the loop runs");
  flags.Define("warm_restart", "false",
               "restore the catalog from --store_dir (segment map + "
               "log replay) instead of populating; exits 1 when the "
               "store holds no data");
  flags.Define("seed", "42", "workload seed");
  flags.Define("json", "", "write the results as JSON to this path");
  flags.Define("git_sha", "", "source revision stamped into the JSON");
  flags.Define("build_type", "", "CMake build type stamped into the JSON");
  if (!flags.Parse(argc, argv)) return 1;

  const auto requests = static_cast<uint64_t>(flags.GetInt("requests"));
  const auto clients =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("clients")));
  const bool prescreen = flags.GetBool("prescreen");
  const bool use_net = flags.GetBool("net");
  const bool use_result_cache = flags.GetBool("result_cache");
  const auto method = csj::ParseMethod(flags.GetString("method"));
  if (!method.has_value() || !csj::IsExact(*method)) {
    std::fprintf(stderr, "--method must name an exact (Ex-*) method\n");
    return 1;
  }

  // The ad-hoc join cache: couples the entries' own artifacts do not
  // serve (another eps or method) build their encodings here.
  csj::EncodingCache cache;

  csj::service::CsjServer::Options server_options;
  server_options.workers =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("workers")));
  server_options.queue_capacity = std::max<size_t>(
      1, static_cast<size_t>(flags.GetInt("queue_capacity")));
  server_options.catalog.warm_eps =
      static_cast<csj::Epsilon>(flags.GetInt("eps"));
  server_options.result_cache = use_result_cache;
  server_options.result_cache_options.capacity = std::max<size_t>(
      1, static_cast<size_t>(flags.GetInt("result_cache_capacity")));
  if (prescreen) server_options.catalog.signatures = csj::SignatureOptions{};

  csj::service::WorkloadOptions workload_options;
  workload_options.catalog_size = std::max<uint32_t>(
      2, static_cast<uint32_t>(flags.GetInt("catalog_size") > 0
                                   ? flags.GetInt("catalog_size")
                                   : flags.GetInt("catalog")));
  workload_options.community_size =
      std::max<uint32_t>(16, static_cast<uint32_t>(flags.GetInt("size")));
  workload_options.cluster_size =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("cluster")));
  workload_options.plant_lo = flags.GetDouble("plant_lo");
  workload_options.plant_hi = flags.GetDouble("plant_hi");
  workload_options.eps = static_cast<csj::Epsilon>(flags.GetInt("eps"));
  workload_options.upsert_fraction = flags.GetDouble("upsert_fraction");
  workload_options.remove_fraction = flags.GetDouble("remove_fraction");
  workload_options.zipf_s = flags.GetDouble("zipf");
  workload_options.deadline_seconds = flags.GetDouble("deadline_ms") / 1e3;
  workload_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  csj::service::TopKOptions topk;
  topk.k = std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("k")));
  topk.method = *method;
  topk.join.eps = workload_options.eps;
  topk.join.cache = &cache;
  topk.use_bound_cutoff = !flags.GetBool("no_cutoff");
  topk.prescreen = prescreen;
  topk.prescreen_threshold = flags.GetDouble("prescreen_threshold");
  topk.query_threads = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt("query_threads")));

  // Persistence: the store opens BEFORE populate so a warm restart can
  // skip the build entirely — that skipped wall time is the subsystem's
  // whole value proposition. It also opens before the workload build,
  // and a warm restart never creates a store, so one with nothing to
  // restore fails before it spends the build or writes a superblock.
  const std::string store_dir = flags.GetString("store_dir");
  const bool warm_loaded = flags.GetBool("warm_restart");
  if (warm_loaded && store_dir.empty()) {
    std::fprintf(stderr, "warm restart: needs --store_dir\n");
    return 1;
  }
  // A warm restart's load is Store::Open (superblock, segment map, log
  // read) plus RestoreInto, each with its page faults; the workload
  // build between the two is not part of it.
  double load_seconds = 0.0;
  long load_minflt = 0;
  long load_majflt = 0;
  const auto load_step = [&](const auto& step) {
    rusage before{};
    rusage after{};
    getrusage(RUSAGE_SELF, &before);
    csj::util::Timer timer;
    const bool ok = step();
    if (warm_loaded) {
      load_seconds += timer.Seconds();
      getrusage(RUSAGE_SELF, &after);
      load_minflt += after.ru_minflt - before.ru_minflt;
      load_majflt += after.ru_majflt - before.ru_majflt;
    }
    return ok;
  };
  std::unique_ptr<csj::persist::Store> store;
  csj::persist::OpenStats open_stats;
  if (!store_dir.empty()) {
    csj::persist::StoreOptions store_options;
    store_options.dir = store_dir;
    store_options.create_if_missing = !warm_loaded;
    std::string store_error;
    load_step([&] {
      store = csj::persist::Store::Open(store_options, &store_error,
                                        &open_stats);
      return store != nullptr;
    });
    if (store == nullptr) {
      std::fprintf(stderr, "%s: %s\n",
                   warm_loaded ? "warm restart" : "store open failed",
                   store_error.c_str());
      return 1;
    }
    if (warm_loaded && !store->has_data()) {
      std::fprintf(stderr, "warm restart: store holds no data\n");
      return 1;
    }
  }

  std::printf("building workload: %u communities of ~%u users...\n",
              workload_options.catalog_size, workload_options.community_size);
  const csj::service::ServeWorkload workload(workload_options);

  csj::service::CsjServer server(server_options);

  csj::service::ServeWorkload::PopulateStats populate_stats;
  if (warm_loaded) {
    std::string store_error;
    if (!load_step([&] {
          return store->RestoreInto(&server.catalog(), &store_error,
                                    &open_stats);
        })) {
      std::fprintf(stderr, "warm restart failed: %s\n", store_error.c_str());
      return 1;
    }
    std::printf(
        "warm restart: %llu segment entries + %llu log records in %.3f s "
        "(map %.3f s, log read %.3f s, restore %.3f s, replay %.3f s); "
        "faults %ld minor / %ld major\n",
        static_cast<unsigned long long>(open_stats.segment_entries),
        static_cast<unsigned long long>(open_stats.log_records_replayed),
        load_seconds, open_stats.map_seconds, open_stats.log_read_seconds,
        open_stats.restore_seconds, open_stats.replay_seconds, load_minflt,
        load_majflt);
  } else {
    workload.Populate(&server, &populate_stats);
    std::printf(
        "populate: %.2f s, %.0f entries/s (encode %.2f s, sketch %.2f s, "
        "install %.2f s)\n",
        populate_stats.total_seconds, populate_stats.entries_per_sec,
        populate_stats.encode_seconds, populate_stats.sketch_seconds,
        populate_stats.install_seconds);
  }
  const double populate_seconds = populate_stats.total_seconds;

  // A fresh populate seals its state before serving; either way the
  // durable log attaches so the closed loop's churn survives a crash.
  csj::persist::CheckpointStats save_stats;
  if (store != nullptr) {
    std::string store_error;
    if (!warm_loaded) {
      if (!store->Checkpoint(server.catalog(), &store_error, &save_stats)) {
        std::fprintf(stderr, "checkpoint failed: %s\n", store_error.c_str());
        return 1;
      }
      std::printf(
          "checkpoint: sealed generation %llu, %llu entries, %.1f MiB in "
          "%.2f s (snapshot %.2f s, write %.2f s, commit %.2f s)\n",
          static_cast<unsigned long long>(save_stats.generation),
          static_cast<unsigned long long>(save_stats.entries),
          static_cast<double>(save_stats.bytes) / (1024.0 * 1024.0),
          save_stats.snapshot_seconds + save_stats.write_seconds +
              save_stats.commit_seconds,
          save_stats.snapshot_seconds, save_stats.write_seconds,
          save_stats.commit_seconds);
    }
    if (!store->StartLogging(&server.catalog(), &store_error)) {
      std::fprintf(stderr, "log attach failed: %s\n", store_error.c_str());
      return 1;
    }
  }

  // The networked front door (loopback, ephemeral port). The template
  // carries server policy; per-request knobs travel on the wire.
  std::unique_ptr<csj::net::NetServer> net_server;
  if (use_net) {
    csj::net::NetServer::Options net_options;
    net_options.topk_template = topk;
    net_server = std::make_unique<csj::net::NetServer>(&server, net_options);
    std::printf("net: listening on 127.0.0.1:%u\n", net_server->port());
  }

  // The closed loop: each client forks an independent Rng stream and
  // drives one request at a time until the shared budget is spent — in
  // process through SubmitAndWait, or through its own loopback connection
  // in net mode (same request stream either way).
  std::vector<ClientResult> results(clients);
  std::atomic<uint64_t> issued{0};
  csj::util::Timer wall;
  std::vector<std::thread> crew;
  crew.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      csj::util::Rng rng(workload_options.seed ^
                         (0x9E3779B97F4A7C15ULL * (c + 1)));
      ClientResult& mine = results[c];
      std::unique_ptr<csj::net::NetClient> net_client;
      if (use_net) {
        net_client =
            csj::net::NetClient::Connect("127.0.0.1", net_server->port());
        CSJ_CHECK(net_client != nullptr) << "client " << c
                                         << " cannot reach loopback server";
      }
      while (issued.fetch_add(1, std::memory_order_relaxed) < requests) {
        csj::service::ServeRequest request = workload.NextRequest(rng, topk);
        const bool is_topk =
            request.kind == csj::service::RequestKind::kTopK;
        csj::service::ServeStatus status;
        bool cache_hit = false;
        uint32_t probed = 0;
        uint32_t skipped = 0;
        uint32_t fallback = 0;
        csj::util::Timer latency;
        if (use_net) {
          csj::net::WireResponse response;
          if (!net_client->Call(ToWireRequest(request), &response)) {
            ++mine.transport_errors;
            break;  // dead connection: no resync, the client is done
          }
          status = response.status;
          cache_hit = response.cache_hit;
          probed = response.prescreen_probed;
          skipped = response.prescreen_skipped;
          fallback = response.fallback;
        } else {
          const csj::service::ServeResponse response =
              server.SubmitAndWait(std::move(request));
          status = response.status;
          cache_hit = response.cache_hit;
          probed = response.topk.stats.prescreen_probed;
          skipped = response.topk.stats.prescreen_skipped;
          fallback = response.topk.stats.fallback;
        }
        const double ms = latency.Millis();
        switch (status) {
          case csj::service::ServeStatus::kOk:
            ++mine.ok;
            mine.latencies_ms.push_back(ms);
            mine.prescreen_probed += probed;
            mine.prescreen_skipped += skipped;
            mine.fallbacks += fallback;
            if (use_result_cache && is_topk) {
              (cache_hit ? mine.hit_ms : mine.miss_ms).push_back(ms);
            }
            break;
          case csj::service::ServeStatus::kRejected:
            ++mine.rejected;
            break;
          case csj::service::ServeStatus::kDeadlineExpired:
            ++mine.deadline_expired;
            mine.latencies_ms.push_back(ms);
            break;
          case csj::service::ServeStatus::kNotFound:
            ++mine.not_found;
            mine.latencies_ms.push_back(ms);
            break;
        }
      }
    });
  }
  for (std::thread& client : crew) client.join();
  const double seconds = wall.Seconds();
  // Pack-prefilter effectiveness over the closed loop, read from the
  // catalog's own counter (the wire protocol does not carry it).
  const uint64_t loop_packs_skipped =
      server.catalog().GetStats().prescreen_packs_skipped;

  csj::net::NetServer::Stats net_stats;
  if (net_server != nullptr) {
    net_server->Shutdown();
    net_stats = net_server->GetStats();
  }
  server.Shutdown();
  // Seal the log tail: the next --warm_restart replays it.
  if (store != nullptr) store->StopLogging(&server.catalog());

  // Merge in client order; totals are deterministic for a fixed seed and
  // request budget (which client issued which request is not).
  ClientResult total;
  for (const ClientResult& r : results) {
    total.ok += r.ok;
    total.rejected += r.rejected;
    total.deadline_expired += r.deadline_expired;
    total.not_found += r.not_found;
    total.transport_errors += r.transport_errors;
    total.prescreen_probed += r.prescreen_probed;
    total.prescreen_skipped += r.prescreen_skipped;
    total.fallbacks += r.fallbacks;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              r.latencies_ms.begin(), r.latencies_ms.end());
    total.hit_ms.insert(total.hit_ms.end(), r.hit_ms.begin(),
                        r.hit_ms.end());
    total.miss_ms.insert(total.miss_ms.end(), r.miss_ms.begin(),
                         r.miss_ms.end());
  }
  const LatencySummary latency = Summarize(total.latencies_ms);
  const LatencySummary hit_summary = Summarize(total.hit_ms);
  const LatencySummary miss_summary = Summarize(total.miss_ms);
  // The closed-loop hit rate over ok top-k reads.
  const uint64_t cacheable = total.hit_ms.size() + total.miss_ms.size();
  const double loop_hit_rate =
      cacheable > 0 ? static_cast<double>(total.hit_ms.size()) /
                          static_cast<double>(cacheable)
                    : 0.0;
  const uint64_t completed = total.latencies_ms.size();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;

  const csj::EncodingCache::Stats cache_stats = cache.GetStats();
  const csj::service::CsjServer::Stats server_stats = server.GetStats();
  const csj::service::CsjServer::StatusLatency ok_latency =
      server.LatencyOf(csj::service::ServeStatus::kOk);
  const csj::service::CsjServer::StatusLatency expired_latency =
      server.LatencyOf(csj::service::ServeStatus::kDeadlineExpired);
  const bool serve_ok =
      total.rejected == 0 && total.deadline_expired == 0 &&
      total.transport_errors == 0 &&
      completed + total.rejected == requests && completed > 0;

  std::printf(
      "\n%llu requests in %s (%.1f req/s): %llu ok, %llu rejected, %llu "
      "deadline-expired, %llu not-found\n",
      static_cast<unsigned long long>(requests),
      csj::util::SecondsCell(seconds).c_str(), throughput,
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(total.deadline_expired),
      static_cast<unsigned long long>(total.not_found));
  std::printf("latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms, "
              "mean %.2f ms\n",
              latency.p50_ms, latency.p95_ms, latency.p99_ms, latency.max_ms,
              latency.mean_ms);
  std::printf("cache: %llu hits / %llu misses (%.0f%% hit rate), catalog "
              "populate %s\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              cache_stats.HitRate() * 100.0,
              csj::util::SecondsCell(populate_seconds).c_str());
  if (use_result_cache) {
    std::printf(
        "result cache: %llu hits / %llu misses (%.0f%% loop hit rate), "
        "hit p99 %.3f ms vs compute p99 %.3f ms, %llu invalidations, "
        "%llu bypasses\n",
        static_cast<unsigned long long>(server_stats.result_cache.hits),
        static_cast<unsigned long long>(server_stats.result_cache.misses),
        loop_hit_rate * 100.0, hit_summary.p99_ms, miss_summary.p99_ms,
        static_cast<unsigned long long>(
            server_stats.result_cache.invalidations),
        static_cast<unsigned long long>(server_stats.cache_bypasses));
  }
  if (use_net) {
    std::printf(
        "net: %llu frames in / %llu out, %.1f MiB in / %.1f MiB out, "
        "%llu connections, %llu decode errors, %llu transport errors\n",
        static_cast<unsigned long long>(net_stats.frames_decoded),
        static_cast<unsigned long long>(net_stats.frames_sent),
        static_cast<double>(net_stats.bytes_in) / (1024.0 * 1024.0),
        static_cast<double>(net_stats.bytes_out) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(net_stats.connections_accepted),
        static_cast<unsigned long long>(net_stats.decode_errors),
        static_cast<unsigned long long>(total.transport_errors));
  }
  if (prescreen) {
    const uint64_t swept = total.prescreen_probed + total.prescreen_skipped;
    std::printf("prescreen: probed %llu / %llu swept (%.2f%%), %llu "
                "fallbacks, %llu packs skipped\n",
                static_cast<unsigned long long>(total.prescreen_probed),
                static_cast<unsigned long long>(swept),
                swept > 0 ? 100.0 * static_cast<double>(
                                        total.prescreen_probed) /
                                static_cast<double>(swept)
                          : 0.0,
                static_cast<unsigned long long>(total.fallbacks),
                static_cast<unsigned long long>(loop_packs_skipped));
  }
  std::printf("serve_ok: %s\n", serve_ok ? "true" : "false");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    csj::util::JsonWriter json;
    json.BeginObject();
    json.Key("benchmark"); json.String("serve");
    json.Key("git_sha"); json.String(flags.GetString("git_sha"));
    json.Key("build_type"); json.String(flags.GetString("build_type"));
    json.Key("host_cores");
    json.Uint(std::thread::hardware_concurrency());
    json.Key("host_nproc_online");
    json.Int(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.Key("catalog"); json.Uint(workload_options.catalog_size);
    json.Key("community_size"); json.Uint(workload_options.community_size);
    json.Key("cluster"); json.Uint(workload_options.cluster_size);
    json.Key("plant_lo"); json.Double(workload_options.plant_lo);
    json.Key("plant_hi"); json.Double(workload_options.plant_hi);
    json.Key("k"); json.Uint(topk.k);
    json.Key("eps"); json.Uint(workload_options.eps);
    json.Key("method"); json.String(csj::MethodName(topk.method));
    json.Key("bound_cutoff"); json.Bool(topk.use_bound_cutoff);
    json.Key("requests"); json.Uint(requests);
    json.Key("clients"); json.Uint(clients);
    json.Key("workers"); json.Uint(server_options.workers);
    json.Key("queue_capacity");
    json.Uint(static_cast<uint64_t>(server_options.queue_capacity));
    json.Key("upsert_fraction");
    json.Double(workload_options.upsert_fraction);
    json.Key("remove_fraction");
    json.Double(workload_options.remove_fraction);
    json.Key("zipf_s"); json.Double(workload_options.zipf_s);
    json.Key("deadline_ms"); json.Double(flags.GetDouble("deadline_ms"));
    json.Key("seed"); json.Uint(workload_options.seed);
    json.Key("populate_seconds"); json.Double(populate_seconds);
    json.Key("populate");
    json.BeginObject();
    json.Key("entries"); json.Uint(populate_stats.entries);
    json.Key("encode_seconds"); json.Double(populate_stats.encode_seconds);
    json.Key("sketch_seconds"); json.Double(populate_stats.sketch_seconds);
    json.Key("install_seconds");
    json.Double(populate_stats.install_seconds);
    json.Key("entries_per_sec");
    json.Double(populate_stats.entries_per_sec);
    json.EndObject();
    json.Key("seconds"); json.Double(seconds);
    json.Key("throughput_rps"); json.Double(throughput);
    json.Key("completed"); json.Uint(completed);
    json.Key("ok"); json.Uint(total.ok);
    json.Key("rejected"); json.Uint(total.rejected);
    json.Key("deadline_expired"); json.Uint(total.deadline_expired);
    json.Key("not_found"); json.Uint(total.not_found);
    json.Key("latency_ms");
    json.BeginObject();
    json.Key("p50"); json.Double(latency.p50_ms);
    json.Key("p95"); json.Double(latency.p95_ms);
    json.Key("p99"); json.Double(latency.p99_ms);
    json.Key("max"); json.Double(latency.max_ms);
    json.Key("mean"); json.Double(latency.mean_ms);
    json.EndObject();
    json.Key("cache");
    json.BeginObject();
    json.Key("hits"); json.Uint(cache_stats.hits);
    json.Key("misses"); json.Uint(cache_stats.misses);
    json.Key("hit_rate"); json.Double(cache_stats.HitRate());
    json.EndObject();
    json.Key("server_accepted"); json.Uint(server_stats.accepted);
    json.Key("queue");
    json.BeginObject();
    json.Key("capacity");
    json.Uint(static_cast<uint64_t>(server_options.queue_capacity));
    json.Key("high_water"); json.Uint(server_stats.queue_high_water);
    json.Key("ok_latency_ms");
    json.BeginObject();
    json.Key("count"); json.Uint(ok_latency.count);
    json.Key("p50"); json.Double(ok_latency.p50_ms);
    json.Key("p95"); json.Double(ok_latency.p95_ms);
    json.Key("p99"); json.Double(ok_latency.p99_ms);
    json.Key("max"); json.Double(ok_latency.max_ms);
    json.EndObject();
    json.Key("deadline_expired_latency_ms");
    json.BeginObject();
    json.Key("count"); json.Uint(expired_latency.count);
    json.Key("p50"); json.Double(expired_latency.p50_ms);
    json.Key("p99"); json.Double(expired_latency.p99_ms);
    json.EndObject();
    json.EndObject();
    json.Key("result_cache");
    json.BeginObject();
    json.Key("enabled"); json.Bool(use_result_cache);
    json.Key("hits"); json.Uint(server_stats.result_cache.hits);
    json.Key("misses"); json.Uint(server_stats.result_cache.misses);
    json.Key("hit_rate");
    json.Double(server_stats.result_cache.HitRate());
    json.Key("loop_hit_rate"); json.Double(loop_hit_rate);
    json.Key("insertions");
    json.Uint(server_stats.result_cache.insertions);
    json.Key("invalidations");
    json.Uint(server_stats.result_cache.invalidations);
    json.Key("evictions"); json.Uint(server_stats.result_cache.evictions);
    json.Key("entries"); json.Uint(server_stats.result_cache.entries);
    json.Key("bypasses"); json.Uint(server_stats.cache_bypasses);
    json.Key("hit_p50_ms"); json.Double(hit_summary.p50_ms);
    json.Key("hit_p99_ms"); json.Double(hit_summary.p99_ms);
    json.Key("compute_p50_ms"); json.Double(miss_summary.p50_ms);
    json.Key("compute_p99_ms"); json.Double(miss_summary.p99_ms);
    json.EndObject();
    json.Key("net");
    json.BeginObject();
    json.Key("enabled"); json.Bool(use_net);
    json.Key("frames_decoded"); json.Uint(net_stats.frames_decoded);
    json.Key("frames_sent"); json.Uint(net_stats.frames_sent);
    json.Key("bytes_in"); json.Uint(net_stats.bytes_in);
    json.Key("bytes_out"); json.Uint(net_stats.bytes_out);
    json.Key("connections"); json.Uint(net_stats.connections_accepted);
    json.Key("decode_errors"); json.Uint(net_stats.decode_errors);
    json.Key("transport_errors"); json.Uint(total.transport_errors);
    json.EndObject();
    json.Key("persist");
    json.BeginObject();
    json.Key("enabled"); json.Bool(store != nullptr);
    json.Key("store_dir"); json.String(store_dir);
    json.Key("warm_restart"); json.Bool(warm_loaded);
    json.Key("generation");
    json.Uint(store != nullptr ? store->generation() : 0);
    // The wall time a warm restart took, Store::Open included; a
    // populate run reports 0 here and its build time in the top-level
    // populate_seconds.
    json.Key("load_seconds"); json.Double(load_seconds);
    json.Key("save_seconds");
    json.Double(save_stats.snapshot_seconds + save_stats.write_seconds +
                save_stats.commit_seconds);
    json.Key("segment_entries"); json.Uint(open_stats.segment_entries);
    json.Key("segment_bytes"); json.Uint(open_stats.segment_bytes);
    json.Key("map_seconds"); json.Double(open_stats.map_seconds);
    json.Key("log_read_seconds"); json.Double(open_stats.log_read_seconds);
    json.Key("restore_seconds"); json.Double(open_stats.restore_seconds);
    json.Key("replay_seconds"); json.Double(open_stats.replay_seconds);
    json.Key("log_records_replayed");
    json.Uint(open_stats.log_records_replayed);
    // First-touch page-fault accounting for the load (getrusage deltas).
    json.Key("load_minflt"); json.Int(load_minflt);
    json.Key("load_majflt"); json.Int(load_majflt);
    json.EndObject();
    json.Key("prescreen");
    json.BeginObject();
    json.Key("enabled"); json.Bool(prescreen);
    json.Key("threshold"); json.Double(topk.prescreen_threshold);
    json.Key("probed"); json.Uint(total.prescreen_probed);
    json.Key("skipped"); json.Uint(total.prescreen_skipped);
    json.Key("fallbacks"); json.Uint(total.fallbacks);
    json.Key("packs_skipped"); json.Uint(loop_packs_skipped);
    json.EndObject();
    json.Key("serve_ok"); json.Bool(serve_ok);
    json.EndObject();
    std::ofstream out(json_path);
    out << json.Take() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return serve_ok ? 0 : 1;
}
