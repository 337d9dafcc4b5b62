// csj_serve — closed-loop load driver for the serving subsystem.
//
// Boots a CsjServer (sharded catalog whose entries carry their MinMax
// artifacts + bounded request queue + worker crew), populates it with a seeded brand catalog,
// then replays a deterministic request mix (top-k reads with uniform or
// zipf-skewed query popularity, plus upsert/remove churn) from N
// closed-loop client threads. Reports throughput and p50/p95/p99 latency
// (util::Histogram) and writes the BENCH_*.json schema.
//
//   ./csj_serve --catalog=24 --size=150 --requests=200 --clients=4
//               --workers=2 --zipf=1.1 --upsert_fraction=0.05
//               --json=BENCH_serve.json
//
// Large-catalog prescreen scenario (sub-linear candidate generation;
// --catalog_size is the ISSUE-style alias of --catalog):
//
//   ./csj_serve --catalog_size=100000 --size=40 --cluster=12
//               --plant_lo=0.5 --plant_hi=0.8 --k=5 --requests=150
//               --clients=2 --workers=2 --zipf=1.1 --upsert_fraction=0
//               --prescreen --compare=6 --json=BENCH_serve_large.json
//
// --prescreen drives the closed loop through the signature index;
// --compare=N additionally runs N queries through BOTH arms on the
// quiesced catalog, verifies byte-identical results, and reports per-arm
// rps/p50/p99 plus the probed fraction.
//
// Networked serving and the versioned result cache:
//
//   ./csj_serve --net --result_cache --zipf=1.1 --compare=8
//
// --net boots a loopback NetServer (binary wire protocol, epoll reactor)
// in front of the same CsjServer and drives every client through a
// NetClient connection instead of in-process Submit. --result_cache
// enables the versioned hot-query result cache; ok top-k latencies are
// split into cache-hit and compute (miss) populations. With --compare=N
// the quiesced catalog additionally gets per-query identity gates: the
// cached path and the networked path must both return rankings
// byte-identical to a direct cache-off in-process query.

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
#include "service/deep_compare.h"
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
  uint64_t cache_hits = 0;
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

/// One compare arm's latencies, p50/p99 via util::Histogram.
struct ArmSummary {
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

ArmSummary SummarizeArm(const std::vector<double>& latencies_ms) {
  ArmSummary arm;
  double max_ms = 0.0;
  for (const double ms : latencies_ms) {
    arm.seconds += ms / 1e3;
    max_ms = std::max(max_ms, ms);
  }
  if (latencies_ms.empty()) return arm;
  csj::util::Histogram histogram(0.0, std::max(max_ms, 1e-6), 2048);
  for (const double ms : latencies_ms) histogram.Add(ms);
  arm.p50_ms = histogram.Quantile(0.50);
  arm.p99_ms = histogram.Quantile(0.99);
  arm.qps = arm.seconds > 0.0
                ? static_cast<double>(latencies_ms.size()) / arm.seconds
                : 0.0;
  return arm;
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
               "disable the best-bound-first cutoff (exhaustive oracle arm)");
  flags.Define("prescreen", "false",
               "serve reads through the signature prescreen index");
  flags.Define("prescreen_threshold", "0.1",
               "prescreen admission threshold tau");
  flags.Define("bulk_load", "true",
               "populate the catalog through the batched BulkLoad fast "
               "path (false: per-entry Upsert reference arm)");
  flags.Define("populate_compare", "false",
               "also populate a scratch server through the OTHER arm "
               "(own catalog), deep-verify byte-identical catalog + "
               "index state, and record the bulk-vs-sequential speedup");
  flags.Define("compare", "0",
               "after the closed loop, run N queries through BOTH arms "
               "(scan + prescreen) and verify identical results; with "
               "--result_cache / --net also gates cached and networked "
               "rankings against a direct cache-off query");
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
               "logplay) instead of populating; falls back to populate "
               "when the store is empty");
  flags.Define("persist_compare", "false",
               "after the loop: checkpoint, re-open the store cold, "
               "restore into a scratch catalog and deep-verify byte "
               "identity; gates warm-load speedup >= 5x over populate");
  flags.Define("persist_madvise", "true",
               "MADV_WILLNEED on mapped segments");
  flags.Define("persist_hugepages", "true",
               "MADV_HUGEPAGE on mapped segments");
  flags.Define("seed", "42", "workload seed");
  flags.Define("json", "", "write the results as JSON to this path");
  flags.Define("git_sha", "", "source revision stamped into the JSON");
  flags.Define("build_type", "", "CMake build type stamped into the JSON");
  if (!flags.Parse(argc, argv)) return 1;

  const auto requests = static_cast<uint64_t>(flags.GetInt("requests"));
  const auto clients =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("clients")));
  const bool prescreen = flags.GetBool("prescreen");
  const double prescreen_threshold = flags.GetDouble("prescreen_threshold");
  const auto compare_queries =
      static_cast<uint32_t>(std::max<int64_t>(0, flags.GetInt("compare")));
  const bool use_net = flags.GetBool("net");
  const bool use_result_cache = flags.GetBool("result_cache");
  const bool bulk_load = flags.GetBool("bulk_load");
  const bool populate_compare = flags.GetBool("populate_compare");
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
  if (prescreen || compare_queries > 0) {
    // Either arm needs sketches resident; scan-mode queries ignore them.
    server_options.catalog.signatures = csj::SignatureOptions{};
  }

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
  topk.prescreen_threshold = prescreen_threshold;
  topk.query_threads = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt("query_threads")));

  std::printf("building workload: %u communities of ~%u users...\n",
              workload_options.catalog_size, workload_options.community_size);
  const csj::service::ServeWorkload workload(workload_options);

  csj::service::CsjServer server(server_options);

  // Persistence: the store opens BEFORE populate so a warm restart can
  // skip the build entirely — that skipped wall time is the subsystem's
  // whole value proposition.
  const std::string store_dir = flags.GetString("store_dir");
  const bool warm_restart = flags.GetBool("warm_restart");
  const bool persist_compare = flags.GetBool("persist_compare");
  std::unique_ptr<csj::persist::Store> store;
  csj::persist::OpenStats open_stats;
  if (!store_dir.empty()) {
    csj::persist::StoreOptions store_options;
    store_options.dir = store_dir;
    store_options.use_madvise = flags.GetBool("persist_madvise");
    store_options.use_hugepages = flags.GetBool("persist_hugepages");
    std::string store_error;
    store = csj::persist::Store::Open(store_options, &store_error,
                                      &open_stats);
    if (store == nullptr) {
      std::fprintf(stderr, "store open failed: %s\n", store_error.c_str());
      return 1;
    }
  }

  csj::service::ServeWorkload::PopulateStats populate_stats;
  const bool warm_loaded =
      store != nullptr && warm_restart && store->has_data();
  double populate_seconds = 0.0;
  double load_seconds = 0.0;
  long load_minflt = 0;
  long load_majflt = 0;
  if (warm_loaded) {
    rusage faults_before{};
    rusage faults_after{};
    getrusage(RUSAGE_SELF, &faults_before);
    csj::util::Timer load_timer;
    std::string store_error;
    if (!store->RestoreInto(&server.catalog(), &store_error, &open_stats)) {
      std::fprintf(stderr, "warm restart failed: %s\n", store_error.c_str());
      return 1;
    }
    load_seconds = load_timer.Seconds();
    getrusage(RUSAGE_SELF, &faults_after);
    load_minflt = faults_after.ru_minflt - faults_before.ru_minflt;
    load_majflt = faults_after.ru_majflt - faults_before.ru_majflt;
    std::printf(
        "warm restart: %llu segment entries + %llu log records in %.3f s "
        "(map %.3f s, restore %.3f s, replay %.3f s); faults %ld minor "
        "/ %ld major\n",
        static_cast<unsigned long long>(open_stats.segment_entries),
        static_cast<unsigned long long>(open_stats.log_records_replayed),
        load_seconds, open_stats.map_seconds, open_stats.restore_seconds,
        open_stats.replay_seconds, load_minflt, load_majflt);
  } else {
    if (bulk_load) {
      workload.Populate(&server, &populate_stats);
    } else {
      workload.PopulateSequential(&server, &populate_stats);
    }
    populate_seconds = populate_stats.total_seconds;
    std::printf(
        "populate (%s): %.2f s, %.0f entries/s (encode %.2f s, sketch "
        "%.2f s, install %.2f s)\n",
        populate_stats.bulk ? "bulk" : "sequential",
        populate_stats.total_seconds, populate_stats.entries_per_sec,
        populate_stats.encode_seconds, populate_stats.sketch_seconds,
        populate_stats.install_seconds);
  }

  // A fresh populate seals its state before serving; either way the
  // durable log attaches so the closed loop's churn survives a crash.
  csj::persist::CheckpointStats save_stats;
  if (store != nullptr) {
    std::string store_error;
    if (!warm_loaded &&
        !store->Checkpoint(server.catalog(), &store_error, &save_stats)) {
      std::fprintf(stderr, "checkpoint failed: %s\n", store_error.c_str());
      return 1;
    }
    if (!warm_loaded) {
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

  // The bulk-vs-sequential gate: a scratch server runs the other arm
  // (both arms build every entry's artifacts, for an honest speedup),
  // then both catalog + index states are deep-compared.
  csj::service::ServeWorkload::PopulateStats other_stats;
  bool populate_identical = true;
  double populate_speedup = 0.0;
  bool populate_speedup_ok = false;
  if (populate_compare) {
    csj::service::CsjServer scratch(server_options);
    if (bulk_load) {
      workload.PopulateSequential(&scratch, &other_stats);
    } else {
      workload.Populate(&scratch, &other_stats);
    }
    populate_identical =
        csj::service::CatalogsIdentical(server.catalog(), scratch.catalog(),
                          workload_options.eps, prescreen_threshold);
    const double bulk_seconds = bulk_load ? populate_stats.total_seconds
                                          : other_stats.total_seconds;
    const double sequential_seconds = bulk_load
                                          ? other_stats.total_seconds
                                          : populate_stats.total_seconds;
    populate_speedup =
        bulk_seconds > 0.0 ? sequential_seconds / bulk_seconds : 0.0;
    populate_speedup_ok = populate_speedup >= 2.0;
    scratch.Shutdown();
    std::printf(
        "populate compare: sequential %.2f s vs bulk %.2f s -> %.2fx "
        "speedup (>=2x %s), state %s\n",
        sequential_seconds, bulk_seconds, populate_speedup,
        populate_speedup_ok ? "ok" : "FAIL",
        populate_identical ? "identical" : "MISMATCH");
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
            if (cache_hit) ++mine.cache_hits;
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
  // catalog's own counter (the wire protocol does not carry it), before
  // the identity gates and compare arms add their probes.
  const uint64_t loop_packs_skipped =
      server.catalog().GetStats().prescreen_packs_skipped;

  // Identity gates on the quiesced catalog (before shutdown: the cached
  // arm needs live workers). Reference arm: a DIRECT in-process query,
  // result cache not consulted. The cached arm (twice: miss then hit) and
  // the networked arm must return byte-identical rankings.
  bool cache_identity = true;
  bool net_identity = true;
  uint64_t identity_cache_hits = 0;
  if (compare_queries > 0 && (use_result_cache || use_net)) {
    csj::util::Rng identity_rng(workload_options.seed ^ 0x1DE47171ULL);
    std::unique_ptr<csj::net::NetClient> identity_client;
    if (use_net) {
      identity_client =
          csj::net::NetClient::Connect("127.0.0.1", net_server->port());
      CSJ_CHECK(identity_client != nullptr);
    }
    for (uint32_t q = 0; q < compare_queries; ++q) {
      csj::service::ServeRequest request;
      do {
        request = workload.NextRequest(identity_rng, topk);
      } while (request.kind != csj::service::RequestKind::kTopK);
      request.deadline_seconds = 0.0;  // identity runs never go partial
      const csj::service::TopKResult reference =
          server.topk().Query(*request.community, topk);
      if (use_result_cache) {
        for (int round = 0; round < 2; ++round) {
          csj::service::ServeRequest cached = request;
          const csj::service::ServeResponse response =
              server.SubmitAndWait(std::move(cached));
          cache_identity = cache_identity &&
                           response.status == csj::service::ServeStatus::kOk &&
                           response.topk.entries == reference.entries;
          if (response.cache_hit) ++identity_cache_hits;
        }
      }
      if (use_net) {
        csj::net::WireResponse response;
        if (!identity_client->Call(ToWireRequest(request), &response)) {
          net_identity = false;
        } else {
          net_identity = net_identity &&
                         response.status == csj::service::ServeStatus::kOk &&
                         response.entries == reference.entries;
        }
      }
    }
  }

  csj::net::NetServer::Stats net_stats;
  if (net_server != nullptr) {
    net_server->Shutdown();
    net_stats = net_server->GetStats();
  }
  server.Shutdown();

  // The compare arms: on the now-quiesced catalog, run the same queries
  // through exhaustive scan and through prescreen, byte-compare the
  // rankings, and time each arm. This is the exactness + probed-fraction
  // + wall-time evidence the prescreen_smoke gate checks.
  bool compare_identical = true;
  uint64_t compare_probed = 0;
  uint64_t compare_examined = 0;
  uint64_t compare_fallbacks = 0;
  uint64_t compare_packs_skipped = 0;
  std::vector<double> scan_ms;
  std::vector<double> prescreen_ms;
  if (compare_queries > 0) {
    csj::util::Rng compare_rng(workload_options.seed ^
                               0xC04BA9E5ULL);
    csj::service::TopKOptions scan_arm = topk;
    scan_arm.prescreen = false;
    csj::service::TopKOptions prescreen_arm = topk;
    prescreen_arm.prescreen = true;
    for (uint32_t q = 0; q < compare_queries; ++q) {
      csj::service::ServeRequest request;
      // Draw from the same popularity distribution; churn rolls are
      // re-rolled, not applied, so both arms see one frozen catalog.
      do {
        request = workload.NextRequest(compare_rng, topk);
      } while (request.kind != csj::service::RequestKind::kTopK);
      csj::util::Timer scan_timer;
      const csj::service::TopKResult scan =
          server.topk().Query(*request.community, scan_arm);
      scan_ms.push_back(scan_timer.Millis());
      csj::util::Timer prescreen_timer;
      const csj::service::TopKResult screened =
          server.topk().Query(*request.community, prescreen_arm);
      prescreen_ms.push_back(prescreen_timer.Millis());
      compare_identical =
          compare_identical && scan.entries == screened.entries;
      compare_probed += screened.stats.prescreen_probed;
      compare_examined += screened.stats.prescreen_probed +
                          screened.stats.prescreen_skipped;
      compare_fallbacks += screened.stats.fallback;
      compare_packs_skipped += screened.stats.prescreen_packs_skipped;
    }
  }
  const ArmSummary scan_summary = SummarizeArm(scan_ms);
  const ArmSummary prescreen_summary = SummarizeArm(prescreen_ms);
  const double compare_probed_fraction =
      compare_examined > 0 ? static_cast<double>(compare_probed) /
                                 static_cast<double>(compare_examined)
                           : 0.0;
  const bool prescreen_faster =
      compare_queries > 0 && prescreen_summary.seconds < scan_summary.seconds;
  const bool probed_fraction_ok =
      compare_queries > 0 && compare_probed_fraction < 0.10;

  // The persistence gate: quiesce the log, fold the loop's churn into a
  // fresh sealed generation, then open the SAME directory through a cold
  // store handle and prove the restored catalog is byte-identical to the
  // live one (snapshots, versions, MinMax artifacts, index layout) — and
  // that the warm load beats the fresh populate by >= 5x.
  bool persist_identical = true;
  bool persist_speedup_ok = true;
  double persist_load_seconds = load_seconds;
  double persist_speedup = 0.0;
  long persist_minflt = load_minflt;
  long persist_majflt = load_majflt;
  csj::persist::CheckpointStats fold_stats;
  csj::persist::OpenStats reopen_stats;
  if (store != nullptr && persist_compare) {
    std::string store_error;
    store->StopLogging(&server.catalog());
    if (!store->Checkpoint(server.catalog(), &store_error, &fold_stats)) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   store_error.c_str());
      return 1;
    }
    csj::persist::StoreOptions reopen_options;
    reopen_options.dir = store_dir;
    reopen_options.use_madvise = flags.GetBool("persist_madvise");
    reopen_options.use_hugepages = flags.GetBool("persist_hugepages");
    auto reopened = csj::persist::Store::Open(reopen_options, &store_error,
                                              &reopen_stats);
    if (reopened == nullptr) {
      std::fprintf(stderr, "store re-open failed: %s\n", store_error.c_str());
      return 1;
    }
    // A fresh scratch catalog: its entries' artifacts must come from the
    // segment's mapped columns, not from the live server's entries.
    csj::service::CommunityCatalog scratch(server_options.catalog);
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
        server.catalog(), scratch, workload_options.eps,
        prescreen_threshold);
    // The speedup gate needs a fresh-populate baseline from THIS run;
    // a warm-restarted run reports the load time without gating.
    persist_speedup = persist_load_seconds > 0.0
                          ? populate_seconds / persist_load_seconds
                          : 0.0;
    persist_speedup_ok = populate_seconds <= 0.0 || persist_speedup >= 5.0;
    std::printf(
        "persist compare: populate %.2f s vs warm load %.3f s -> %.1fx "
        "speedup (%s), state %s; load faults %ld minor / %ld major\n",
        populate_seconds, persist_load_seconds, persist_speedup,
        populate_seconds <= 0.0 ? "no fresh baseline"
        : persist_speedup_ok    ? ">=5x ok"
                                : ">=5x FAIL",
        persist_identical ? "identical" : "MISMATCH", persist_minflt,
        persist_majflt);
  }

  // Merge in client order; totals are deterministic for a fixed seed and
  // request budget (which client issued which request is not).
  ClientResult total;
  for (const ClientResult& r : results) {
    total.ok += r.ok;
    total.rejected += r.rejected;
    total.deadline_expired += r.deadline_expired;
    total.not_found += r.not_found;
    total.cache_hits += r.cache_hits;
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
  const ArmSummary hit_summary = SummarizeArm(total.hit_ms);
  const ArmSummary miss_summary = SummarizeArm(total.miss_ms);
  // The cache's perf claims, as data: the closed-loop hit rate over ok
  // top-k reads, and hit-p99 strictly under compute-p99.
  const uint64_t cacheable = total.hit_ms.size() + total.miss_ms.size();
  const double loop_hit_rate =
      cacheable > 0 ? static_cast<double>(total.hit_ms.size()) /
                          static_cast<double>(cacheable)
                    : 0.0;
  const bool cache_hit_rate_ok = use_result_cache && loop_hit_rate >= 0.5;
  const bool cache_hit_faster = use_result_cache &&
                                !total.hit_ms.empty() &&
                                !total.miss_ms.empty() &&
                                hit_summary.p99_ms < miss_summary.p99_ms;
  const uint64_t completed = total.latencies_ms.size();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;

  // Percentiles via util::Histogram sized from the observed extremes —
  // 2048 buckets keeps the p99 resolution under 0.05% of the range.
  double max_ms = 0.0;
  double sum_ms = 0.0;
  for (const double ms : total.latencies_ms) {
    max_ms = std::max(max_ms, ms);
    sum_ms += ms;
  }
  csj::util::Histogram latency_histogram(0.0, std::max(max_ms, 1e-6), 2048);
  for (const double ms : total.latencies_ms) latency_histogram.Add(ms);
  const double p50 = latency_histogram.Quantile(0.50);
  const double p95 = latency_histogram.Quantile(0.95);
  const double p99 = latency_histogram.Quantile(0.99);
  const double mean_ms =
      completed > 0 ? sum_ms / static_cast<double>(completed) : 0.0;

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
              p50, p95, p99, max_ms, mean_ms);
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
        "%llu bypasses, %llu snapshot reuses\n",
        static_cast<unsigned long long>(server_stats.result_cache.hits),
        static_cast<unsigned long long>(server_stats.result_cache.misses),
        loop_hit_rate * 100.0, hit_summary.p99_ms, miss_summary.p99_ms,
        static_cast<unsigned long long>(
            server_stats.result_cache.invalidations),
        static_cast<unsigned long long>(server_stats.cache_bypasses),
        static_cast<unsigned long long>(server_stats.snapshot_reuses));
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
  if (compare_queries > 0 && (use_result_cache || use_net)) {
    std::printf("identity: cache %s (%llu hits), net %s\n",
                !use_result_cache ? "n/a"
                : cache_identity  ? "identical"
                                  : "MISMATCH",
                static_cast<unsigned long long>(identity_cache_hits),
                !use_net       ? "n/a"
                : net_identity ? "identical"
                               : "MISMATCH");
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
  if (compare_queries > 0) {
    std::printf(
        "compare (%u queries): identical %s; scan p99 %.2f ms (%.2f q/s) "
        "vs prescreen p99 %.2f ms (%.2f q/s); probed %.2f%% of catalog, "
        "%llu fallbacks, %llu packs skipped\n",
        compare_queries, compare_identical ? "true" : "FALSE",
        scan_summary.p99_ms, scan_summary.qps, prescreen_summary.p99_ms,
        prescreen_summary.qps, 100.0 * compare_probed_fraction,
        static_cast<unsigned long long>(compare_fallbacks),
        static_cast<unsigned long long>(compare_packs_skipped));
  }
  std::printf("serve_ok: %s\n", serve_ok ? "true" : "false");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    csj::util::JsonWriter json;
    json.BeginObject();
    json.Key("benchmark"); json.String("serve");
    json.Key("git_sha"); json.String(flags.GetString("git_sha"));
    json.Key("build_type"); json.String(flags.GetString("build_type"));
    // Machine-readable host parallelism: the ROADMAP's "1-core container"
    // caveat as data instead of prose.
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
    json.Key("bulk_load"); json.Bool(populate_stats.bulk);
    json.Key("entries"); json.Uint(populate_stats.entries);
    json.Key("seconds"); json.Double(populate_stats.total_seconds);
    json.Key("encode_seconds"); json.Double(populate_stats.encode_seconds);
    json.Key("sketch_seconds"); json.Double(populate_stats.sketch_seconds);
    json.Key("install_seconds");
    json.Double(populate_stats.install_seconds);
    json.Key("entries_per_sec");
    json.Double(populate_stats.entries_per_sec);
    if (populate_compare) {
      const double bulk_seconds = bulk_load ? populate_stats.total_seconds
                                            : other_stats.total_seconds;
      const double sequential_seconds = bulk_load
                                            ? other_stats.total_seconds
                                            : populate_stats.total_seconds;
      json.Key("bulk_seconds"); json.Double(bulk_seconds);
      json.Key("sequential_seconds"); json.Double(sequential_seconds);
      json.Key("populate_speedup"); json.Double(populate_speedup);
      json.Key("populate_speedup_ok"); json.Bool(populate_speedup_ok);
      json.Key("populate_identical"); json.Bool(populate_identical);
    }
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
    json.Key("p50"); json.Double(p50);
    json.Key("p95"); json.Double(p95);
    json.Key("p99"); json.Double(p99);
    json.Key("max"); json.Double(max_ms);
    json.Key("mean"); json.Double(mean_ms);
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
    json.Key("snapshot_reuses"); json.Uint(server_stats.snapshot_reuses);
    json.Key("hit_p50_ms"); json.Double(hit_summary.p50_ms);
    json.Key("hit_p99_ms"); json.Double(hit_summary.p99_ms);
    json.Key("compute_p50_ms"); json.Double(miss_summary.p50_ms);
    json.Key("compute_p99_ms"); json.Double(miss_summary.p99_ms);
    json.Key("cache_hit_rate_ok"); json.Bool(cache_hit_rate_ok);
    json.Key("cache_hit_faster"); json.Bool(cache_hit_faster);
    json.Key("cache_identity"); json.Bool(cache_identity);
    json.Key("identity_cache_hits"); json.Uint(identity_cache_hits);
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
    json.Key("net_identity"); json.Bool(net_identity);
    json.EndObject();
    json.Key("persist");
    json.BeginObject();
    json.Key("enabled"); json.Bool(store != nullptr);
    json.Key("store_dir"); json.String(store_dir);
    json.Key("warm_restart"); json.Bool(warm_loaded);
    json.Key("generation");
    json.Uint(store != nullptr ? store->generation() : 0);
    json.Key("madvise"); json.Bool(flags.GetBool("persist_madvise"));
    json.Key("hugepages"); json.Bool(flags.GetBool("persist_hugepages"));
    // Populate-vs-load: the wall time a warm restart skips.
    json.Key("populate_seconds"); json.Double(populate_seconds);
    json.Key("load_seconds"); json.Double(persist_load_seconds);
    json.Key("speedup"); json.Double(persist_speedup);
    json.Key("speedup_ok"); json.Bool(persist_speedup_ok);
    json.Key("identical"); json.Bool(persist_identical);
    json.Key("save_seconds");
    json.Double(save_stats.snapshot_seconds + save_stats.write_seconds +
                save_stats.commit_seconds);
    json.Key("segment_entries");
    json.Uint(persist_compare ? reopen_stats.segment_entries
                              : open_stats.segment_entries);
    json.Key("segment_bytes");
    json.Uint(persist_compare ? reopen_stats.segment_bytes
                              : open_stats.segment_bytes);
    json.Key("map_seconds");
    json.Double(persist_compare ? reopen_stats.map_seconds
                                : open_stats.map_seconds);
    json.Key("restore_seconds");
    json.Double(persist_compare ? reopen_stats.restore_seconds
                                : open_stats.restore_seconds);
    json.Key("replay_seconds");
    json.Double(persist_compare ? reopen_stats.replay_seconds
                                : open_stats.replay_seconds);
    json.Key("log_records_replayed");
    json.Uint(persist_compare ? reopen_stats.log_records_replayed
                              : open_stats.log_records_replayed);
    // First-touch page-fault accounting for the load (getrusage deltas).
    json.Key("load_minflt"); json.Int(persist_minflt);
    json.Key("load_majflt"); json.Int(persist_majflt);
    json.EndObject();
    json.Key("prescreen");
    json.BeginObject();
    json.Key("enabled"); json.Bool(prescreen);
    json.Key("threshold"); json.Double(prescreen_threshold);
    json.Key("probed"); json.Uint(total.prescreen_probed);
    json.Key("skipped"); json.Uint(total.prescreen_skipped);
    json.Key("fallbacks"); json.Uint(total.fallbacks);
    json.Key("packs_skipped"); json.Uint(loop_packs_skipped);
    json.EndObject();
    if (compare_queries > 0) {
      json.Key("prescreen_compare");
      json.BeginObject();
      json.Key("queries"); json.Uint(compare_queries);
      json.Key("compare_identical"); json.Bool(compare_identical);
      // The acceptance evidence: entries the prescreen arm fed to the
      // exact path vs entries resident (the index sweeps them all).
      json.Key("prescreen_probed"); json.Uint(compare_probed);
      json.Key("catalog_entries"); json.Uint(compare_examined);
      json.Key("probed_fraction"); json.Double(compare_probed_fraction);
      json.Key("probed_fraction_ok"); json.Bool(probed_fraction_ok);
      json.Key("fallbacks"); json.Uint(compare_fallbacks);
      json.Key("packs_skipped"); json.Uint(compare_packs_skipped);
      json.Key("prescreen_faster"); json.Bool(prescreen_faster);
      json.Key("scan");
      json.BeginObject();
      json.Key("seconds"); json.Double(scan_summary.seconds);
      json.Key("qps"); json.Double(scan_summary.qps);
      json.Key("p50_ms"); json.Double(scan_summary.p50_ms);
      json.Key("p99_ms"); json.Double(scan_summary.p99_ms);
      json.EndObject();
      json.Key("prescreen");
      json.BeginObject();
      json.Key("seconds"); json.Double(prescreen_summary.seconds);
      json.Key("qps"); json.Double(prescreen_summary.qps);
      json.Key("p50_ms"); json.Double(prescreen_summary.p50_ms);
      json.Key("p99_ms"); json.Double(prescreen_summary.p99_ms);
      json.EndObject();
      json.EndObject();
    }
    json.Key("serve_ok"); json.Bool(serve_ok);
    json.EndObject();
    std::ofstream out(json_path);
    out << json.Take() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  // A compare mismatch is a correctness failure, not a perf blip — the
  // cached, networked, and bulk-populate arms are all held to the same
  // byte-identity bar as the prescreen arm.
  return (serve_ok && compare_identical && cache_identity && net_identity &&
          populate_identical && persist_identical && persist_speedup_ok)
             ? 0
             : 1;
}
