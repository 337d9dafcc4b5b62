// csj_perfbench — the repository benchmark: the real serving stack
// (CsjServer behind NetServer on 127.0.0.1, NetClient readers) driven by
// seeded ServeWorkload inputs, with a correctness gate on every run.
//
//   csj_perfbench --workload prescreen_100k --seed 1 --seconds 20 --trace 0
//
// Workloads (see perfbench/README.md for why each exists):
//   prescreen_100k  100k communities, prescreen top-k, zipf reads
//   dense_refine    200 dense communities, scan top-k, uniform reads
//   churn_durable   10k communities restored from a store, zipf reads with
//                   the result cache on, one open-loop durable writer
//
// Load shape: max(1, nproc/2) server workers and as many closed-loop
// reader connections. Warm-up is excluded from the measured window.
//
// stdout carries three JSON lines: provenance, the full report (every
// metric that applies, by name and unit) and the result
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
// window is split into an untraced quarter, a traced half and an untraced
// quarter, and the result holds the per-layer metrics; otherwise it holds
// the end-to-end ones.
// Progress goes to stderr.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/community.h"
#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "persist/log.h"
#include "persist/store.h"
#include "service/catalog.h"
#include "service/deep_compare.h"
#include "service/server.h"
#include "service/topk.h"
#include "service/workload.h"
#include "trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

#ifndef CSJ_PERFBENCH_BUILD_TYPE
#define CSJ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using csj::service::CsjServer;
using csj::service::RequestKind;
using csj::service::ServeStatus;
using csj::service::TopKEntry;
using csj::service::TopKOptions;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Reduced scale for the self-check: same code paths, seconds to run.
  bool small = false;
  /// Self-check of the gate: perturb one reference ranking, which must
  /// make the run fail.
  bool corrupt_reference = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

struct WorkloadSpec {
  std::string name;
  csj::service::WorkloadOptions gen;
  bool prescreen = false;
  double tau = 0.10;
  uint32_t k = 5;
  bool result_cache = false;
  bool durable = false;
  /// Set-ups per run; setup_s is their median and only the last serves.
  uint32_t setup_reps = 3;
  double warmup_seconds = 2.0;
  /// churn_durable: log records written behind the sealed segment.
  uint32_t prep_log_records = 0;
  /// churn_durable: durable upserts per second (open loop).
  double write_rate = 0.0;
  /// Distinct queries also checked against the exhaustive path.
  uint32_t exhaustive_sample = 3;
  /// Traced run: in-process queries, sampled couples, direct upserts.
  uint32_t topk_sample = 24;
  uint32_t join_sample = 48;
  uint32_t upsert_sample = 200;
};

std::optional<WorkloadSpec> MakeSpec(const Config& config) {
  WorkloadSpec spec;
  spec.name = config.workload;
  csj::service::WorkloadOptions& gen = spec.gen;
  gen.seed = config.seed;
  gen.upsert_fraction = 0.0;
  gen.remove_fraction = 0.0;
  gen.eps = 1;
  if (spec.name == "prescreen_100k") {
    gen.catalog_size = config.small ? 3000 : 100000;
    gen.community_size = 40;
    gen.cluster_size = 12;
    gen.plant_lo = 0.5;
    gen.plant_hi = 0.8;
    gen.zipf_s = 1.1;
    spec.prescreen = true;
    spec.setup_reps = 3;
    spec.exhaustive_sample = 2;
  } else if (spec.name == "dense_refine") {
    gen.catalog_size = config.small ? 40 : 200;
    gen.community_size = config.small ? 120 : 300;
    gen.cluster_size = 4;
    gen.plant_lo = 0.15;
    gen.plant_hi = 0.35;
    gen.zipf_s = 0.0;
    spec.setup_reps = 41;
  } else if (spec.name == "churn_durable") {
    gen.catalog_size = config.small ? 1000 : 10000;
    gen.community_size = 40;
    gen.cluster_size = 12;
    gen.plant_lo = 0.5;
    gen.plant_hi = 0.8;
    gen.zipf_s = 1.1;
    spec.prescreen = true;
    spec.result_cache = true;
    spec.durable = true;
    spec.setup_reps = 7;
    spec.prep_log_records = config.small ? 500 : 20000;
    // At least ~1000 writes land in a 20 s window, so write p99 has ten
    // samples beyond it; shorter windows keep the rate, which stays well
    // below what the two workers absorb.
    spec.write_rate = std::ceil(1100.0 / std::max(20.0, config.seconds));
  } else {
    return std::nullopt;
  }
  if (config.small) {
    spec.setup_reps = 2;
    spec.warmup_seconds = 0.3;
    spec.topk_sample = 6;
    spec.join_sample = 12;
    spec.upsert_sample = 20;
  }
  return spec;
}

uint32_t Workers() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return std::max<uint32_t>(1, static_cast<uint32_t>(cores > 0 ? cores : 1) / 2);
}

uint32_t Cores() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<uint32_t>(cores > 0 ? cores : 1);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (0x9E3779B97F4A7C15ULL * (b + 1));
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

void SleepUntil(double when) {
  const double wait = when - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[perfbench %8.3f] ", Now());
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

// ---------------------------------------------------------------------------
// Host drift and memory
// ---------------------------------------------------------------------------

volatile uint64_t ref_loop_sink = 0;

/// A fixed single-thread pointer chase through 64 MiB: unlike the ALU
/// loop below it tracks cache and memory-bandwidth contention from other
/// tenants of the host.
double RefMemMs() {
  std::vector<uint32_t> next(uint32_t{16} << 20);
  std::iota(next.begin(), next.end(), 0u);
  csj::util::Rng rng(0x4D454D);
  // Sattolo's shuffle: one cycle through every slot.
  for (auto i = static_cast<uint32_t>(next.size() - 1); i > 0; --i) {
    std::swap(next[i], next[rng.Below(i)]);
  }
  const double start = Now();
  uint32_t at = 0;
  for (uint32_t i = 0; i < 1'000'000; ++i) at = next[at];
  const double ms = (Now() - start) * 1e3;
  ref_loop_sink = at;
  return ms;
}

/// A fixed single-thread computation (a dependent multiply-xorshift
/// chain) whose time tracks the host, not the program under test.
double RefLoopMs() {
  const double start = Now();
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (uint32_t i = 0; i < 40'000'000; ++i) {
    x ^= x >> 12;
    x *= 0x9E3779B97F4A7C15ULL;
    x += i;
  }
  const double ms = (Now() - start) * 1e3;
  ref_loop_sink = x;
  return ms;
}

/// Resets the kernel's peak-RSS mark so input generation and store
/// preparation are not counted (clear_refs "5"; Linux >= 4.0).
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// CPU ticks the hypervisor stole from this machine, and all ticks
/// (/proc/stat, summed over CPUs).
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The serving stack
// ---------------------------------------------------------------------------

struct Stack {
  std::unique_ptr<csj::EncodingCache> cache;
  std::unique_ptr<CsjServer> server;
  std::unique_ptr<csj::persist::Store> store;
  std::unique_ptr<csj::net::NetServer> net;
  TopKOptions topk;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    net.reset();
    if (server != nullptr) server->Shutdown();
  }
};

CsjServer::Options ServerOptions(const WorkloadSpec& spec,
                                 csj::EncodingCache* cache) {
  CsjServer::Options options;
  options.workers = Workers();
  options.catalog.cache = cache;
  options.catalog.warm_eps = spec.gen.eps;
  if (spec.prescreen) options.catalog.signatures = csj::SignatureOptions{};
  options.result_cache = spec.result_cache;
  return options;
}

TopKOptions TopKTemplate(const WorkloadSpec& spec, csj::EncodingCache* cache) {
  TopKOptions topk;
  topk.k = spec.k;
  topk.method = csj::Method::kExMinMax;
  topk.join.eps = spec.gen.eps;
  topk.join.cache = cache;
  topk.prescreen = spec.prescreen;
  topk.prescreen_threshold = spec.tau;
  topk.query_threads = 1;
  return topk;
}

csj::persist::StoreOptions StoreOptionsFor(const std::string& dir,
                                           size_t sync_every,
                                           csj::persist::FaultInjector* fi) {
  csj::persist::StoreOptions options;
  options.dir = dir;
  options.log_sync_every = sync_every;
  // A disarmed injector only counts fsyncs and bytes written.
  options.fault_injector = fi;
  return options;
}

/// What one set-up cost, with the phase splits the public calls return.
struct SetupSample {
  double seconds = 0.0;
  csj::service::CommunityCatalog::BulkLoadStats bulk;
  csj::persist::OpenStats open;
  double open_seconds = 0.0;     ///< Store::Open call
  double restore_seconds = 0.0;  ///< RestoreInto call
};

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  const csj::service::ServeWorkload& workload,
                                  const std::string& store_dir,
                                  csj::persist::FaultInjector* fi,
                                  SpanRecorder* spans, SetupSample* sample,
                                  std::string* error) {
  auto stack = std::make_unique<Stack>();
  ScopedSpan setup(spans, "setup");
  stack->cache = std::make_unique<csj::EncodingCache>();
  if (spec.durable) {
    ScopedSpan open(spans, "persist.open", setup.id());
    stack->store = csj::persist::Store::Open(StoreOptionsFor(store_dir, 1, fi),
                                             error, &sample->open);
    sample->open_seconds = open.End();
    if (stack->store == nullptr) return nullptr;
    spans->Record("persist.map", open.start(),
                  open.start() + sample->open.map_seconds, open.id());
  }
  stack->server = std::make_unique<CsjServer>(
      ServerOptions(spec, stack->cache.get()));
  if (spec.durable) {
    ScopedSpan restore(spans, "persist.restore_into", setup.id());
    if (!stack->store->RestoreInto(&stack->server->catalog(), error,
                                   &sample->open)) {
      return nullptr;
    }
    sample->restore_seconds = restore.End();
    const double t = restore.start();
    spans->Record("persist.restore", t, t + sample->open.restore_seconds,
                  restore.id());
    spans->Record("persist.replay", t + sample->open.restore_seconds,
                  t + sample->open.restore_seconds +
                      sample->open.replay_seconds,
                  restore.id());
  } else {
    ScopedSpan bulk(spans, "catalog.bulkload", setup.id());
    std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>
        batch;
    batch.reserve(workload.communities().size());
    for (size_t i = 0; i < workload.communities().size(); ++i) {
      batch.emplace_back(i + 1, workload.communities()[i]);
    }
    stack->server->catalog().BulkLoad(std::move(batch), &sample->bulk);
    bulk.End();
    double t = bulk.start();
    spans->Record("catalog.bulkload_encode", t, t + sample->bulk.encode_seconds,
                  bulk.id());
    t += sample->bulk.encode_seconds;
    spans->Record("catalog.bulkload_sketch", t, t + sample->bulk.sketch_seconds,
                  bulk.id());
    t += sample->bulk.sketch_seconds;
    spans->Record("catalog.bulkload_install", t,
                  t + sample->bulk.install_seconds, bulk.id());
  }
  stack->topk = TopKTemplate(spec, stack->cache.get());
  csj::net::NetServer::Options net_options;
  net_options.topk_template = stack->topk;
  stack->net = std::make_unique<csj::net::NetServer>(stack->server.get(),
                                                     net_options);
  sample->seconds = setup.End();
  return stack;
}

/// churn_durable's store, prepared outside every timed phase: the seeded
/// catalog sealed as generation 1, then `prep_log_records` upserts logged
/// behind it.
bool PrepareStore(const WorkloadSpec& spec,
                  const csj::service::ServeWorkload& workload,
                  const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  csj::EncodingCache cache;
  csj::service::CommunityCatalog catalog(ServerOptions(spec, &cache).catalog);
  std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>
      batch;
  for (size_t i = 0; i < workload.communities().size(); ++i) {
    batch.emplace_back(i + 1, workload.communities()[i]);
  }
  catalog.BulkLoad(std::move(batch));
  // Batched barriers keep preparation fast; the served store syncs every
  // record.
  auto store = csj::persist::Store::Open(StoreOptionsFor(dir, 4096, nullptr),
                                         error);
  if (store == nullptr) return false;
  if (!store->Checkpoint(catalog, error)) return false;
  if (!store->StartLogging(&catalog, error)) return false;
  // The tail refreshes seeded profiles in place: replay pays the full
  // Upsert cost per record, and the planted clusters the reads rely on
  // survive (minted replacements at this volume would dissolve them and
  // send most reads down the exhaustive fallback).
  csj::util::Rng rng(Mix(spec.gen.seed, 0x505245));
  for (uint32_t i = 0; i < spec.prep_log_records; ++i) {
    const uint64_t id = 1 + rng.Below(spec.gen.catalog_size);
    catalog.Upsert(id, *workload.communities()[id - 1]);
  }
  store->StopLogging(&catalog);
  return true;
}

// ---------------------------------------------------------------------------
// Load phase
// ---------------------------------------------------------------------------

csj::net::WireRequest ReadRequest(const TopKOptions& topk,
                                  std::shared_ptr<const csj::Community> query) {
  csj::net::WireRequest wire;
  wire.kind = RequestKind::kTopK;
  wire.community = std::move(query);
  wire.k = topk.k;
  wire.eps = topk.join.eps;
  wire.method = topk.method;
  wire.prescreen = topk.prescreen;
  wire.use_bound_cutoff = topk.use_bound_cutoff;
  wire.prescreen_threshold = topk.prescreen_threshold;
  return wire;
}

struct ReadRecord {
  uint32_t rank = 0;  ///< query = workload.communities()[rank]
  double send = 0.0;
  double done = 0.0;
  bool transport_ok = false;
  csj::net::WireResponse response;
};

struct WriteRecord {
  uint64_t id = 0;
  double scheduled = 0.0;
  double send = 0.0;
  double done = 0.0;
  bool ok = false;
  uint64_t version = 0;
};

struct LoadResult {
  double measure_start = 0.0;
  double measure_end = 0.0;
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  uint64_t connect_failures = 0;
  CsjServer::Stats before;
  CsjServer::Stats after;
  /// Share of the machine's CPU time the hypervisor stole in the window.
  double steal_share = 0.0;

  bool Measured(double send) const {
    return send >= measure_start && send < measure_end;
  }
};

/// Runs the closed-loop readers (and, on churn_durable, the open-loop
/// writer) for `warmup` + `measure` seconds. Only requests sent inside
/// the measure window count toward the end-to-end metrics.
LoadResult RunLoad(const WorkloadSpec& spec,
                   const csj::service::ServeWorkload& workload,
                   const std::unordered_map<const csj::Community*, uint32_t>&
                       rank_of,
                   Stack* stack, uint64_t phase, double warmup,
                   double measure, SpanRecorder* spans) {
  LoadResult result;
  result.before = stack->server->GetStats();
  const uint32_t readers = Workers();
  const uint16_t port = stack->net->port();
  const double start = Now();
  result.measure_start = start + warmup;
  result.measure_end = result.measure_start + measure;
  const double end = result.measure_end;

  std::vector<std::vector<ReadRecord>> per_reader(readers);
  std::vector<uint64_t> sent_bytes(readers, 0);
  std::vector<uint64_t> received_bytes(readers, 0);
  std::atomic<uint64_t> connect_failures{0};
  std::vector<std::thread> crew;
  for (uint32_t c = 0; c < readers; ++c) {
    crew.emplace_back([&, c] {
      auto client = csj::net::NetClient::Connect("127.0.0.1", port);
      if (client == nullptr) {
        connect_failures.fetch_add(1);
        return;
      }
      csj::util::Rng rng(Mix(Mix(spec.gen.seed, phase), c));
      std::vector<ReadRecord>& mine = per_reader[c];
      uint64_t seq = 0;
      while (Now() < end) {
        const csj::service::ServeRequest request =
            workload.NextRequest(rng, stack->topk);
        ReadRecord record;
        record.rank = rank_of.at(request.community.get());
        const csj::net::WireRequest wire =
            ReadRequest(stack->topk, request.community);
        record.send = Now();
        record.transport_ok = client->Call(wire, &record.response);
        record.done = Now();
        if (spans->enabled()) {
          // The server's total_seconds is placed in the middle of the
          // client call: the wire cost on either side is not split.
          const uint64_t request_id = (uint64_t{c + 1} << 40) | ++seq;
          const uint64_t call = spans->Record("net.call", record.send,
                                              record.done, 0, request_id);
          const csj::net::WireResponse& r = record.response;
          const double overhead = (record.done - record.send) - r.total_seconds;
          const double s0 = record.send + overhead / 2;
          const uint64_t total = spans->Record(
              "server.total", s0, s0 + r.total_seconds, call, request_id);
          spans->Record("server.queue", s0, s0 + r.queue_seconds, total,
                        request_id);
          spans->Record("server.exec", s0 + r.queue_seconds,
                        s0 + r.total_seconds, total, request_id);
        }
        const bool ok = record.transport_ok;
        mine.push_back(std::move(record));
        if (!ok) break;  // a dead connection cannot resync
      }
      sent_bytes[c] = client->bytes_sent();
      received_bytes[c] = client->bytes_received();
    });
  }

  std::vector<WriteRecord> writes;
  std::thread writer;
  if (spec.write_rate > 0.0) {
    // Planned up front so the schedule is not held up by generation. Each
    // write refreshes a seeded profile in place (same content, new
    // version), as the prepared log tail does: it pays the full durable
    // Upsert and invalidates the result cache, while the catalog stays the
    // one the reads were generated for. Minted replacements (planted at
    // 0.10-0.30 against an anchor) would thin the 0.5-0.8 clusters as the
    // window goes on, so read cost would climb through the run at a rate
    // set by which ids the seed hits.
    const auto planned = static_cast<size_t>(
        std::ceil(spec.write_rate * (warmup + measure))) + 1;
    std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>
        payloads;
    csj::util::Rng wrng(Mix(Mix(spec.gen.seed, phase), 0x57524954));
    for (size_t i = 0; i < planned; ++i) {
      const uint64_t id = 1 + wrng.Below(spec.gen.catalog_size);
      payloads.emplace_back(id, workload.communities()[id - 1]);
    }
    writer = std::thread([&, payloads = std::move(payloads)] {
      auto client = csj::net::NetClient::Connect("127.0.0.1", port);
      if (client == nullptr) {
        connect_failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < payloads.size(); ++i) {
        WriteRecord record;
        record.id = payloads[i].first;
        record.scheduled = start + static_cast<double>(i) / spec.write_rate;
        if (record.scheduled >= end) break;
        SleepUntil(record.scheduled);
        csj::net::WireRequest wire;
        wire.kind = RequestKind::kUpsert;
        wire.id = record.id;
        wire.community = payloads[i].second;
        csj::net::WireResponse response;
        record.send = Now();
        const bool transport_ok = client->Call(wire, &response);
        record.done = Now();
        record.ok = transport_ok && response.status == ServeStatus::kOk;
        record.version = response.version;
        if (spans->enabled()) {
          const uint64_t request_id = (uint64_t{0xFF} << 40) | (i + 1);
          const uint64_t call = spans->Record("net.call_upsert", record.send,
                                              record.done, 0, request_id);
          const double overhead =
              (record.done - record.send) - response.total_seconds;
          const double s0 = record.send + overhead / 2;
          spans->Record("server.total_upsert", s0,
                        s0 + response.total_seconds, call, request_id);
        }
        writes.push_back(record);
        if (!transport_ok) break;
      }
    });
  }

  SleepUntil(result.measure_start);
  const HostTicks ticks_start = ReadHostTicks();
  SleepUntil(result.measure_end);
  const HostTicks ticks_end = ReadHostTicks();
  const double ticks = ticks_end.total - ticks_start.total;
  result.steal_share =
      ticks > 0 ? (ticks_end.steal - ticks_start.steal) / ticks : 0.0;
  for (std::thread& t : crew) t.join();
  if (writer.joinable()) writer.join();
  result.after = stack->server->GetStats();
  result.connect_failures = connect_failures.load();
  for (uint32_t c = 0; c < readers; ++c) {
    for (ReadRecord& r : per_reader[c]) result.reads.push_back(std::move(r));
    result.request_bytes += sent_bytes[c];
    result.response_bytes += received_bytes[c];
  }
  result.writes = std::move(writes);
  return result;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

bool SameRanking(const std::vector<TopKEntry>& got,
                 const std::vector<TopKEntry>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].version != want[i].version ||
        std::bit_cast<uint64_t>(got[i].similarity) !=
            std::bit_cast<uint64_t>(want[i].similarity)) {
      return false;
    }
  }
  return true;
}

struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 10) Log("gate failure: %s", what);
    }
  }
};

/// Reference rankings for `ranks`, computed in process on the quiesced
/// catalog (the direct path, no result cache), in parallel.
std::map<uint32_t, std::vector<TopKEntry>> ReferenceRankings(
    const Stack& stack, const csj::service::ServeWorkload& workload,
    const std::vector<uint32_t>& ranks, bool corrupt) {
  std::vector<std::vector<TopKEntry>> out(ranks.size());
  csj::util::ParallelFor(
      0, static_cast<uint32_t>(ranks.size()), Cores(),
      [&](uint32_t begin, uint32_t end, uint32_t) {
        for (uint32_t i = begin; i < end; ++i) {
          out[i] = stack.server->topk()
                       .Query(*workload.communities()[ranks[i]], stack.topk)
                       .entries;
        }
      });
  std::map<uint32_t, std::vector<TopKEntry>> reference;
  for (size_t i = 0; i < ranks.size(); ++i) reference[ranks[i]] = out[i];
  if (corrupt && !reference.empty() &&
      !reference.begin()->second.empty()) {
    // Flip the lowest similarity bit of one entry: a ranking that differs
    // only in the last ulp must still fail the gate.
    TopKEntry& entry = reference.begin()->second.front();
    entry.similarity =
        std::bit_cast<double>(std::bit_cast<uint64_t>(entry.similarity) ^ 1);
  }
  return reference;
}

/// The exhaustive oracle: every admissible entry refined, no prescreen.
void CheckExhaustive(const Stack& stack,
                     const csj::service::ServeWorkload& workload,
                     const std::map<uint32_t, std::vector<TopKEntry>>& reference,
                     uint32_t sample, Gate* gate) {
  TopKOptions exhaustive = stack.topk;
  exhaustive.use_bound_cutoff = false;
  exhaustive.prescreen = false;
  exhaustive.query_threads = Cores();
  uint32_t done = 0;
  for (const auto& [rank, want] : reference) {
    if (done++ >= sample) break;
    const auto got =
        stack.server->topk().Query(*workload.communities()[rank], exhaustive);
    gate->Check(SameRanking(got.entries, want),
                "exhaustive ranking differs from the served path");
  }
}

/// Ranks of the reads, distinct, ascending (hottest first under zipf).
std::vector<uint32_t> DistinctRanks(const std::vector<ReadRecord>& reads) {
  std::set<uint32_t> ranks;
  for (const ReadRecord& r : reads) ranks.insert(r.rank);
  return {ranks.begin(), ranks.end()};
}

// ---------------------------------------------------------------------------
// Traced per-layer probes (after the window, on the run's own requests)
// ---------------------------------------------------------------------------

struct LayerProbes {
  std::vector<Metric> metrics;
  std::unordered_map<uint32_t, double> query_ms;  ///< in-process, by rank
};

/// `ranks` evenly spaced over the distinct ranks the traced reads sent.
std::vector<uint32_t> SampleRanks(const std::vector<uint32_t>& distinct,
                                  uint32_t limit) {
  std::vector<uint32_t> out;
  if (distinct.empty()) return out;
  const size_t n = std::min<size_t>(limit, distinct.size());
  for (size_t i = 0; i < n; ++i) {
    out.push_back(distinct[i * distinct.size() / n]);
  }
  return out;
}

void ProbeWire(const std::vector<ReadRecord>& traced, const Stack& stack,
               const csj::service::ServeWorkload& workload,
               SpanRecorder* spans, std::vector<Metric>* metrics) {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  const size_t n = std::min<size_t>(64, traced.size());
  for (size_t s = 0; s < n; ++s) {
    const ReadRecord& record = traced[s * traced.size() / n];
    const csj::net::WireRequest request =
        ReadRequest(stack.topk, workload.communities()[record.rank]);
    std::vector<double> enc;
    std::vector<double> dec;
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<uint8_t> req_frame;
      std::vector<uint8_t> resp_frame;
      ScopedSpan encode(spans, "net.encode");
      csj::net::EncodeRequestFrame(1, request, &req_frame);
      csj::net::EncodeResponseFrame(1, record.response, &resp_frame);
      enc.push_back(encode.End() * 1e6);
      ScopedSpan decode(spans, "net.decode");
      csj::net::FrameDecoder decoder;
      csj::net::DecodedFrame frame;
      decoder.Feed(req_frame.data(), req_frame.size());
      const bool req_ok = decoder.Next(&frame) == csj::net::WireStatus::kOk;
      decoder.Feed(resp_frame.data(), resp_frame.size());
      const bool resp_ok = decoder.Next(&frame) == csj::net::WireStatus::kOk;
      dec.push_back(decode.End() * 1e6);
      CSJ_CHECK(req_ok && resp_ok) << "frame decode failed";
    }
    encode_us.push_back(Median(enc));
    decode_us.push_back(Median(dec));
  }
  metrics->push_back({"net.encode_us", Median(encode_us), "us"});
  metrics->push_back({"net.decode_us", Median(decode_us), "us"});
}

LayerProbes ProbeLayers(const WorkloadSpec& spec, const Stack& stack,
                        const csj::service::ServeWorkload& workload,
                        const std::vector<ReadRecord>& traced,
                        SpanRecorder* spans) {
  LayerProbes probes;
  std::vector<Metric>& m = probes.metrics;
  ProbeWire(traced, stack, workload, spans, &m);

  const std::vector<uint32_t> sample =
      SampleRanks(DistinctRanks(traced), spec.topk_sample);
  const csj::service::CommunityCatalog& catalog = stack.server->catalog();

  // service.topk: the run's own queries, one at a time, in process.
  std::vector<double> query_ms, prescreen_ms, bound_ms, refine_ms;
  double refined = 0, bound_skipped = 0, returned = 0, fallback = 0;
  for (uint32_t rank : sample) {
    // Median of three runs by wall time; its stats become the splits.
    struct Run {
      double seconds;
      double start;
      uint64_t span;
      csj::service::TopKResult result;
    };
    std::vector<Run> runs;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan query(spans, "topk.query", 0, rank);
      auto result =
          stack.server->topk().Query(*workload.communities()[rank], stack.topk);
      runs.push_back({query.End(), query.start(), query.id(), std::move(result)});
    }
    std::sort(runs.begin(), runs.end(), [](const Run& x, const Run& y) {
      return x.seconds < y.seconds;
    });
    const double seconds = runs[1].seconds;
    const uint64_t query_span = runs[1].span;
    double t = runs[1].start;
    const csj::service::TopKResult& result = runs[1].result;
    const csj::service::TopKQueryStats& st = result.stats;
    spans->Record("topk.prescreen", t, t + st.prescreen_seconds, query_span,
                  rank);
    t += st.prescreen_seconds;
    spans->Record("topk.bound", t, t + st.bound_seconds, query_span, rank);
    t += st.bound_seconds;
    spans->Record("topk.refine", t, t + st.refine_seconds, query_span, rank);
    probes.query_ms[rank] = seconds * 1e3;
    query_ms.push_back(seconds * 1e3);
    prescreen_ms.push_back(st.prescreen_seconds * 1e3);
    bound_ms.push_back(st.bound_seconds * 1e3);
    refine_ms.push_back(st.refine_seconds * 1e3);
    refined += st.refined;
    bound_skipped += st.bound_skipped;
    returned += static_cast<double>(result.entries.size());
    fallback += st.fallback;
  }
  const double q = std::max<double>(1.0, static_cast<double>(sample.size()));
  m.push_back({"topk.query_ms", Median(query_ms), "ms"});
  m.push_back({"topk.prescreen_ms", Median(prescreen_ms), "ms"});
  m.push_back({"topk.bound_ms", Median(bound_ms), "ms"});
  m.push_back({"topk.refine_ms", Median(refine_ms), "ms"});
  m.push_back({"topk.refined_per_query", refined / q, "count"});
  m.push_back({"topk.bound_skipped_per_query", bound_skipped / q, "count"});
  m.push_back({"topk.refine_useful_ratio",
               refined > 0 ? returned / refined : 0.0, "ratio"});
  m.push_back({"topk.fallback_rate", fallback / q, "fraction"});

  // service.catalog: the signature sweep alone, and the candidate pool
  // the core sample draws from.
  std::vector<std::pair<uint32_t, std::vector<csj::service::CatalogEntry>>>
      pools;
  std::vector<double> probe_ms;
  double examined = 0, passed = 0, packs_skipped = 0;
  for (uint32_t rank : sample) {
    const csj::Community& query = *workload.communities()[rank];
    if (catalog.signature_options() != nullptr) {
      const csj::CommunitySignature signature(query,
                                              *catalog.signature_options());
      const std::vector<csj::Dim> order = csj::SignatureProbeOrder(signature);
      ScopedSpan probe(spans, "catalog.probe", 0, rank);
      auto result = catalog.ProbeCandidates(signature, order, spec.gen.eps,
                                            spec.tau);
      probe_ms.push_back(probe.End() * 1e3);
      examined += static_cast<double>(result.stats.examined);
      passed += static_cast<double>(result.stats.passed);
      packs_skipped += static_cast<double>(result.stats.packs_skipped);
      pools.emplace_back(rank, std::move(result.candidates));
    } else {
      pools.emplace_back(rank, catalog.Snapshot());
    }
  }
  m.push_back({"catalog.probe_ms", Median(probe_ms), "ms"});
  m.push_back({"catalog.probed_fraction",
               examined > 0 ? passed / examined : 0.0, "fraction"});
  m.push_back({"catalog.packs_skipped_per_probe",
               probe_ms.empty() ? 0.0 : packs_skipped / q, "count"});

  // core + matching: a seeded sample of admissible couples from those
  // pools, joined through the catalog's encoding cache.
  std::vector<std::pair<const csj::Community*, const csj::Community*>> couples;
  std::vector<std::shared_ptr<const csj::Community>> keep_alive;
  for (const auto& [rank, pool] : pools) {
    const csj::Community* query = workload.communities()[rank].get();
    for (const auto& entry : pool) {
      if (entry.community->d() != query->d()) continue;
      const bool query_is_b = query->size() <= entry.community->size();
      const csj::Community* b = query_is_b ? query : entry.community.get();
      const csj::Community* a = query_is_b ? entry.community.get() : query;
      if (!csj::SizesAdmissible(b->size(), a->size())) continue;
      couples.emplace_back(b, a);
      keep_alive.push_back(entry.community);
    }
  }
  csj::util::Rng rng(Mix(spec.gen.seed, 0x4A4F494E));
  std::vector<double> join_us;
  double compares = 0, pairs = 0, hits = 0, lookups = 0, join_s = 0,
         match_s = 0;
  const size_t joins = std::min<size_t>(spec.join_sample, couples.size());
  for (size_t i = 0; i < joins; ++i) {
    const auto& [b, a] = couples[rng.Below(couples.size())];
    ScopedSpan join(spans, "core.join");
    const csj::JoinResult result =
        csj::RunMethod(csj::Method::kExMinMax, *b, *a, stack.topk.join);
    join_us.push_back(join.End() * 1e6);
    spans->Record("matching.match", join.start(),
                  join.start() + result.stats.matching_seconds, join.id());
    compares += static_cast<double>(result.stats.dimension_compares);
    pairs += static_cast<double>(result.stats.candidate_pairs);
    hits += static_cast<double>(result.stats.cache_hits);
    lookups += static_cast<double>(result.stats.cache_hits +
                                   result.stats.cache_misses);
    join_s += result.stats.seconds;
    match_s += result.stats.matching_seconds;
  }
  const double j = std::max<double>(1.0, static_cast<double>(joins));
  m.push_back({"core.join_us", Median(join_us), "us"});
  m.push_back({"core.dimension_compares_per_join", compares / j, "count"});
  m.push_back({"core.candidate_pairs_per_join", pairs / j, "count"});
  m.push_back({"core.encoding_cache_hit_rate",
               lookups > 0 ? hits / lookups : 0.0, "fraction"});
  m.push_back({"matching.csf_share", join_s > 0 ? match_s / join_s : 0.0,
               "fraction"});
  return probes;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// The measured window is cut into up to kSlices slices and a metric is
/// the median of its per-slice values: the host's speed swings within
/// seconds, and a median over slices follows what most of the window saw.
/// Throughput slices are equal stretches of time; latency slices hold
/// equal numbers of reads, enough that each has ten samples beyond the
/// quantile taken.
constexpr size_t kSlices = 10;

struct LoadMetrics {
  double throughput_rps = 0.0;
  std::vector<double> read_ms;  ///< in send order
  std::vector<double> write_ms;
  std::vector<double> lateness_ms;

  double ReadQuantile(double q) const {
    const auto slices = std::clamp<size_t>(
        static_cast<size_t>(static_cast<double>(read_ms.size()) * (1 - q) / 10),
        1, kSlices);
    std::vector<double> per_slice;
    for (size_t s = 0; s < slices; ++s) {
      const size_t lo = s * read_ms.size() / slices;
      const size_t hi = (s + 1) * read_ms.size() / slices;
      per_slice.push_back(Quantile(
          std::vector<double>(read_ms.begin() + static_cast<long>(lo),
                              read_ms.begin() + static_cast<long>(hi)),
          q));
    }
    return Median(per_slice);
  }
};

LoadMetrics Summarize(const LoadResult& load) {
  LoadMetrics out;
  const double slice = (load.measure_end - load.measure_start) / kSlices;
  std::vector<double> completed(kSlices, 0.0);
  const auto complete = [&](double done) {
    if (done < load.measure_start || done >= load.measure_end) return;
    const auto s = static_cast<size_t>((done - load.measure_start) / slice);
    completed[std::min<size_t>(s, kSlices - 1)] += 1;
  };
  std::vector<std::pair<double, double>> reads;  // (send, latency ms)
  for (const ReadRecord& r : load.reads) {
    if (!r.transport_ok || r.response.status != ServeStatus::kOk) continue;
    complete(r.done);
    if (load.Measured(r.send)) reads.emplace_back(r.send, (r.done - r.send) * 1e3);
  }
  std::sort(reads.begin(), reads.end());
  for (const auto& [send, ms] : reads) out.read_ms.push_back(ms);
  for (const WriteRecord& w : load.writes) {
    if (!w.ok) continue;
    complete(w.done);
    if (load.Measured(w.scheduled)) {
      out.write_ms.push_back((w.done - w.scheduled) * 1e3);
      out.lateness_ms.push_back((w.send - w.scheduled) * 1e3);
    }
  }
  std::string trail;
  for (double& c : completed) {
    c /= slice;
    trail += ' ';
    trail += std::to_string(static_cast<int>(c));
  }
  Log("throughput per slice:%s", trail.c_str());
  out.throughput_rps = Median(completed);
  return out;
}

int Run(const Config& config) {
  const std::optional<WorkloadSpec> maybe_spec = MakeSpec(config);
  if (!maybe_spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *maybe_spec;
  if (std::string(CSJ_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "refusing to measure a '%s' build: numbers from non-Release "
                 "builds are not comparable\n",
                 CSJ_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::error_code ec;
  fs::create_directories(config.work_dir, ec);
  const std::string tag =
      spec.name + "-seed" + std::to_string(config.seed) + "-" +
      std::to_string(getpid());
  const std::string store_dir = config.work_dir + "/store-" + tag;

  std::printf(
      "{\"provenance\": {\"git_sha\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"nproc\": %u, \"workers\": %u, \"readers\": %u, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"scale\": %s, \"params\": {\"catalog_size\": %u, "
      "\"community_size\": %u, \"cluster_size\": %u, \"plant_lo\": %s, "
      "\"plant_hi\": %s, \"zipf_s\": %s, \"eps\": %u, \"k\": %u, "
      "\"prescreen\": %s, \"tau\": %s, \"result_cache\": %s, "
      "\"durable\": %s, \"log_sync_every\": 1, \"prep_log_records\": %u, "
      "\"write_rate\": %s, \"setup_reps\": %u, \"warmup_s\": %s}}}\n",
      JsonString(config.git_sha).c_str(),
      JsonString(config.source_digest).c_str(),
      JsonString(CSJ_PERFBENCH_BUILD_TYPE).c_str(), Cores(), Workers(),
      Workers(), JsonString(spec.name).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      config.small ? "\"small\"" : "\"full\"", spec.gen.catalog_size,
      spec.gen.community_size, spec.gen.cluster_size,
      JsonNumber(spec.gen.plant_lo).c_str(),
      JsonNumber(spec.gen.plant_hi).c_str(),
      JsonNumber(spec.gen.zipf_s).c_str(), spec.gen.eps, spec.k,
      spec.prescreen ? "true" : "false", JsonNumber(spec.tau).c_str(),
      spec.result_cache ? "true" : "false", spec.durable ? "true" : "false",
      spec.prep_log_records, JsonNumber(spec.write_rate).c_str(),
      spec.setup_reps, JsonNumber(spec.warmup_seconds).c_str());
  std::fflush(stdout);

  const double ref_before = RefLoopMs();
  const double mem_before = RefMemMs();
  Log("%s seed %llu: generating %u communities of ~%u users", spec.name.c_str(),
      static_cast<unsigned long long>(config.seed), spec.gen.catalog_size,
      spec.gen.community_size);
  const csj::service::ServeWorkload workload(spec.gen);
  std::unordered_map<const csj::Community*, uint32_t> rank_of;
  for (size_t i = 0; i < workload.communities().size(); ++i) {
    rank_of[workload.communities()[i].get()] = static_cast<uint32_t>(i);
  }
  std::string error;
  if (spec.durable) {
    Log("preparing store: sealed segment + %u log records",
        spec.prep_log_records);
    if (!PrepareStore(spec, workload, store_dir, &error)) {
      std::fprintf(stderr, "store preparation failed: %s\n", error.c_str());
      return 1;
    }
  }

  // ---- set-up, repeated; the last stack serves ----
  SpanRecorder spans(config.trace);
  csj::persist::FaultInjector fault_counter;
  std::vector<SetupSample> setups(spec.setup_reps);
  std::unique_ptr<Stack> stack;
  for (uint32_t r = 0; r < spec.setup_reps; ++r) {
    stack.reset();
    // Peak RSS covers the serving set-up and the window only.
    if (r + 1 == spec.setup_reps) ResetPeakRss();
    fault_counter = csj::persist::FaultInjector{};
    stack = BuildStack(spec, workload, store_dir, &fault_counter, &spans,
                       &setups[r], &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::vector<double> setup_s;
  for (const SetupSample& s : setups) setup_s.push_back(s.seconds);
  Log("set-up x%u: median %.4f s", spec.setup_reps, Median(setup_s));
  if (spec.durable && !stack->store->StartLogging(&stack->server->catalog(),
                                                  &error)) {
    std::fprintf(stderr, "log attach failed: %s\n", error.c_str());
    return 1;
  }

  // ---- the window: untraced; with --trace 1, a traced half between two
  // untraced quarters, so host drift over the run cancels out of
  // trace.overhead ----
  Gate gate;
  const uint64_t fsyncs_before = fault_counter.fsyncs_performed;
  const uint64_t log_bytes_before = fault_counter.bytes_written;
  std::vector<LoadResult> loads;
  if (config.trace) {
    spans.set_enabled(false);
    loads.push_back(RunLoad(spec, workload, rank_of, stack.get(), 0,
                            spec.warmup_seconds, config.seconds / 4, &spans));
    spans.set_enabled(true);
    loads.push_back(RunLoad(spec, workload, rank_of, stack.get(), 1, 0.0,
                            config.seconds / 2, &spans));
    spans.set_enabled(false);
    loads.push_back(RunLoad(spec, workload, rank_of, stack.get(), 2, 0.0,
                            config.seconds / 4, &spans));
    spans.set_enabled(true);
  } else {
    loads.push_back(RunLoad(spec, workload, rank_of, stack.get(), 0,
                            spec.warmup_seconds, config.seconds, &spans));
  }
  const double peak_rss_mb = PeakRssMb();
  const LoadResult& main_load = loads.front();
  const LoadMetrics main_metrics = Summarize(main_load);
  Log("window: %.1f rps, read p50 %.3f ms over %zu reads, %zu writes",
      main_metrics.throughput_rps, main_metrics.ReadQuantile(0.5),
      main_metrics.read_ms.size(), main_metrics.write_ms.size());

  // ---- correctness gate ----
  std::vector<ReadRecord> all_reads;
  std::vector<WriteRecord> all_writes;
  for (const LoadResult& load : loads) {
    gate.Check(load.connect_failures == 0, "connection refused");
    all_reads.insert(all_reads.end(), load.reads.begin(), load.reads.end());
    all_writes.insert(all_writes.end(), load.writes.begin(),
                      load.writes.end());
  }
  for (const ReadRecord& r : all_reads) {
    gate.Check(r.transport_ok && r.response.status == ServeStatus::kOk &&
                   !r.response.deadline_expired,
               "read failed on the wire or at the server");
  }
  for (const WriteRecord& w : all_writes) {
    gate.Check(w.ok, "durable upsert failed");
  }
  const double fsyncs_per_write =
      all_writes.empty()
          ? 0.0
          : static_cast<double>(fault_counter.fsyncs_performed -
                                fsyncs_before) /
                static_cast<double>(all_writes.size());
  const double log_bytes_per_write =
      all_writes.empty()
          ? 0.0
          : static_cast<double>(fault_counter.bytes_written -
                                log_bytes_before) /
                static_cast<double>(all_writes.size());

  const std::vector<uint32_t> ranks = DistinctRanks(all_reads);
  Log("gate: reference rankings for %zu distinct queries", ranks.size());
  if (!spec.durable) {
    const auto reference =
        ReferenceRankings(*stack, workload, ranks, config.corrupt_reference);
    for (const ReadRecord& r : all_reads) {
      if (!r.transport_ok) continue;
      gate.Check(SameRanking(r.response.entries, reference.at(r.rank)),
                 "served ranking differs from the reference");
    }
    CheckExhaustive(*stack, workload, reference, spec.exhaustive_sample,
                    &gate);
  } else {
    // Quiesced: the readers and the writer have joined. Ask again over
    // the wire and compare with the direct path.
    std::vector<uint32_t> verify(ranks.begin(),
                                 ranks.begin() + static_cast<long>(std::min<size_t>(
                                                     64, ranks.size())));
    const auto reference =
        ReferenceRankings(*stack, workload, verify, config.corrupt_reference);
    auto client = csj::net::NetClient::Connect("127.0.0.1", stack->net->port());
    gate.Check(client != nullptr, "verification connection refused");
    if (client != nullptr) {
      for (uint32_t rank : verify) {
        csj::net::WireResponse response;
        const bool ok = client->Call(
            ReadRequest(stack->topk, workload.communities()[rank]), &response);
        gate.Check(ok && response.status == ServeStatus::kOk &&
                       SameRanking(response.entries, reference.at(rank)),
                   "post-quiesce ranking differs from the reference");
      }
    }
    CheckExhaustive(*stack, workload, reference, spec.exhaustive_sample,
                    &gate);
  }

  // ---- per-layer probes (traced run) ----
  LayerProbes probes;
  if (config.trace) {
    std::vector<ReadRecord> traced;
    for (const ReadRecord& r : loads[1].reads) {
      if (r.transport_ok) traced.push_back(r);
    }
    probes = ProbeLayers(spec, *stack, workload, traced, &spans);
  }

  // Direct durable upserts (traced run): the catalog Upsert span with the
  // log sink attached, refreshing seeded profiles in place like the wire's
  // writes. They come after the probes, which must see the window's
  // catalog, and are acknowledged writes like the wire's.
  std::vector<double> upsert_ms;
  if (config.trace && spec.durable) {
    csj::util::Rng urng(Mix(spec.gen.seed, 0x55505352));
    for (uint32_t i = 0; i < spec.upsert_sample; ++i) {
      WriteRecord w;
      w.id = 1 + urng.Below(spec.gen.catalog_size);
      csj::Community payload = *workload.communities()[w.id - 1];
      ScopedSpan upsert(&spans, "catalog.upsert");
      w.version = stack->server->catalog().Upsert(w.id, std::move(payload));
      upsert_ms.push_back(upsert.End() * 1e3);
      w.ok = true;
      all_writes.push_back(w);
    }
  }

  // ---- durability: every acknowledged write resident, cold reopen, then
  // fold the log into a segment ----
  double disk_ratio = 0.0;
  csj::persist::CheckpointStats checkpoint;
  double checkpoint_s = 0.0;
  if (spec.durable) {
    // One writer, so the last acknowledged version of an id is the newest.
    std::map<uint64_t, uint64_t> acked;
    for (const WriteRecord& w : all_writes) {
      if (w.ok) acked[w.id] = std::max(acked[w.id], w.version);
    }
    for (const auto& [id, version] : acked) {
      gate.Check(stack->server->catalog().Get(id).version == version,
                 "acknowledged write is not resident");
    }
    stack->store->StopLogging(&stack->server->catalog());
    {
      csj::EncodingCache cache;
      csj::service::CommunityCatalog reopened(
          ServerOptions(spec, &cache).catalog);
      auto store = csj::persist::Store::Open(
          StoreOptionsFor(store_dir, 1, nullptr), &error);
      const bool restored =
          store != nullptr && store->RestoreInto(&reopened, &error);
      gate.Check(restored, "cold reopen failed");
      if (restored) {
        gate.Check(csj::service::CatalogsIdentical(stack->server->catalog(),
                                                   reopened, spec.gen.eps,
                                                   spec.tau),
                   "cold-reopened catalog differs from the live one");
      }
    }
    ScopedSpan span(&spans, "persist.checkpoint");
    const bool sealed =
        stack->store->Checkpoint(stack->server->catalog(), &error, &checkpoint);
    checkpoint_s = span.End();
    double t = span.start();
    for (const auto& [name, seconds] :
         {std::pair{"persist.checkpoint_snapshot", checkpoint.snapshot_seconds},
          std::pair{"persist.checkpoint_write", checkpoint.write_seconds},
          std::pair{"persist.checkpoint_commit", checkpoint.commit_seconds}}) {
      spans.Record(name, t, t + seconds, span.id());
      t += seconds;
    }
    gate.Check(sealed, "checkpoint failed");
    double user_bytes = 0;
    for (const auto& entry : stack->server->catalog().Snapshot()) {
      user_bytes += static_cast<double>(entry.community->size()) *
                    entry.community->d() * sizeof(csj::Count);
    }
    disk_ratio = user_bytes > 0
                     ? static_cast<double>(checkpoint.bytes) / user_bytes
                     : 0.0;
  }

  const CsjServer::Stats final_stats = stack->server->GetStats();
  stack.reset();
  fs::remove_all(store_dir, ec);
  const double ref_after = RefLoopMs();
  const double mem_after = RefMemMs();

  // ---- metrics ----
  std::vector<Metric> m;
  const double setup_median = Median(setup_s);
  m.push_back({"setup_s", setup_median, "s"});
  m.push_back({"throughput_rps", main_metrics.throughput_rps, "1/s"});
  m.push_back({"read_p50_ms", main_metrics.ReadQuantile(0.50), "ms"});
  m.push_back({"read_p95_ms", main_metrics.ReadQuantile(0.95), "ms"});
  // p99 over the whole window: it needs every sample it can get.
  m.push_back({"read_p99_ms", Quantile(main_metrics.read_ms, 0.99), "ms"});
  m.push_back({"read_samples", static_cast<double>(main_metrics.read_ms.size()),
               "count"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  m.push_back({"error_rate",
               gate.attempted > 0 ? static_cast<double>(gate.failed) /
                                        static_cast<double>(gate.attempted)
                                  : 0.0,
               "fraction"});
  if (spec.durable) {
    m.push_back({"write_p50_ms", Quantile(main_metrics.write_ms, 0.50), "ms"});
    m.push_back({"write_p99_ms", Quantile(main_metrics.write_ms, 0.99), "ms"});
    m.push_back({"write_samples",
                 static_cast<double>(main_metrics.write_ms.size()), "count"});
    m.push_back({"disk_bytes_per_user_byte", disk_ratio, "ratio"});
  }
  m.push_back({"host.ref_loop_ms_before", ref_before, "ms"});
  m.push_back({"host.ref_loop_ms_after", ref_after, "ms"});
  m.push_back({"host.ref_mem_ms_before", mem_before, "ms"});
  m.push_back({"host.ref_mem_ms_after", mem_after, "ms"});
  m.push_back({"host.steal_share", main_load.steal_share, "fraction"});

  if (config.trace) {
    const LoadResult& tl = loads[1];
    const LoadMetrics traced_metrics = Summarize(tl);
    std::vector<double> overhead_ms, queue_ms, exec_ms;
    double hits = 0, reads = 0, unattributed = 0, client = 0;
    for (const ReadRecord& r : tl.reads) {
      if (!r.transport_ok || !tl.Measured(r.send)) continue;
      const double client_ms = (r.done - r.send) * 1e3;
      const double total_ms = r.response.total_seconds * 1e3;
      const double queue = r.response.queue_seconds * 1e3;
      overhead_ms.push_back(client_ms - total_ms);
      queue_ms.push_back(queue);
      exec_ms.push_back(total_ms - queue);
      reads += 1;
      hits += r.response.cache_hit ? 1 : 0;
      const auto it = probes.query_ms.find(r.rank);
      if (r.response.cache_hit || it != probes.query_ms.end()) {
        const double topk_ms = r.response.cache_hit ? 0.0 : it->second;
        unattributed += client_ms - (client_ms - total_ms) - queue - topk_ms;
        client += client_ms;
      }
    }
    const double per_k = reads > 0 ? 1000.0 / reads : 0.0;
    const auto delta = [&](auto field) {
      return static_cast<double>(field(tl.after) - field(tl.before));
    };
    std::vector<Metric>& p = probes.metrics;
    const double calls =
        std::max<double>(1.0, static_cast<double>(tl.reads.size()));
    p.push_back({"net.request_bytes",
                 static_cast<double>(tl.request_bytes) / calls, "bytes"});
    p.push_back({"net.response_bytes",
                 static_cast<double>(tl.response_bytes) / calls, "bytes"});
    p.push_back({"net.overhead_ms_p50", Quantile(overhead_ms, 0.5), "ms"});
    p.push_back({"net.overhead_ms_p99", Quantile(overhead_ms, 0.99), "ms"});
    p.push_back({"server.queue_wait_ms_p50", Quantile(queue_ms, 0.5), "ms"});
    p.push_back({"server.queue_wait_ms_p99", Quantile(queue_ms, 0.99), "ms"});
    p.push_back({"server.exec_ms_p50", Quantile(exec_ms, 0.5), "ms"});
    p.push_back({"server.rejected",
                 static_cast<double>(final_stats.rejected), "count"});
    p.push_back({"server.deadline_expired",
                 static_cast<double>(final_stats.deadline_expired), "count"});
    p.push_back({"result_cache.hit_rate", reads > 0 ? hits / reads : 0.0,
                 "fraction"});
    p.push_back({"result_cache.invalidations_per_1k_reads",
                 delta([](const CsjServer::Stats& s) {
                   return s.result_cache.invalidations;
                 }) * per_k,
                 "count"});
    p.push_back({"result_cache.bypasses_per_1k_reads",
                 delta([](const CsjServer::Stats& s) {
                   return s.cache_bypasses;
                 }) * per_k,
                 "count"});
    std::vector<double> enc, sk, inst, open_s, map_s, restore_s, replay_s,
        replayed;
    for (const SetupSample& s : setups) {
      enc.push_back(s.bulk.encode_seconds);
      sk.push_back(s.bulk.sketch_seconds);
      inst.push_back(s.bulk.install_seconds);
      open_s.push_back(s.open_seconds);
      map_s.push_back(s.open.map_seconds);
      restore_s.push_back(s.open.restore_seconds);
      replay_s.push_back(s.open.replay_seconds);
      replayed.push_back(static_cast<double>(s.open.log_records_replayed));
    }
    p.push_back({"catalog.bulkload_encode_s", Median(enc), "s"});
    p.push_back({"catalog.bulkload_sketch_s", Median(sk), "s"});
    p.push_back({"catalog.bulkload_install_s", Median(inst), "s"});
    p.push_back({"catalog.upsert_ms_p50", Quantile(upsert_ms, 0.5), "ms"});
    p.push_back({"catalog.upsert_ms_p99", Quantile(upsert_ms, 0.99), "ms"});
    p.push_back({"persist.open_s", Median(open_s), "s"});
    p.push_back({"persist.map_s", Median(map_s), "s"});
    p.push_back({"persist.restore_s", Median(restore_s), "s"});
    p.push_back({"persist.replay_s", Median(replay_s), "s"});
    p.push_back({"persist.records_replayed", Median(replayed), "count"});
    p.push_back({"persist.fsyncs_per_write", fsyncs_per_write, "count"});
    p.push_back({"persist.log_bytes_per_write", log_bytes_per_write, "bytes"});
    p.push_back({"persist.checkpoint_s", checkpoint_s, "s"});
    p.push_back({"persist.segment_bytes", static_cast<double>(checkpoint.bytes),
                 "bytes"});
    std::vector<double> lateness = main_metrics.lateness_ms;
    lateness.insert(lateness.end(), traced_metrics.lateness_ms.begin(),
                    traced_metrics.lateness_ms.end());
    p.push_back({"loadgen.write_lateness_ms_p99", Quantile(lateness, 0.99),
                 "ms"});
    p.push_back({"trace.unattributed_share",
                 client > 0 ? unattributed / client : 0.0, "fraction"});
    const double untraced_rps =
        (main_metrics.throughput_rps + Summarize(loads[2]).throughput_rps) / 2;
    p.push_back({"trace.overhead",
                 untraced_rps > 0
                     ? traced_metrics.throughput_rps / untraced_rps - 1.0
                     : 0.0,
                 "fraction"});
    p.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    m.insert(m.end(), p.begin(), p.end());
    const std::string trace_path = config.work_dir + "/trace-" + tag + ".jsonl";
    if (!spans.WriteJsonl(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  std::printf("{\"report\": %s}\n", MetricsJson(m).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed),
              MetricsJson(m).c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      config->workload = value();
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config->trace = value() == "1";
    } else if (arg == "--small") {
      config->small = true;
    } else if (arg == "--corrupt_reference") {
      config->corrupt_reference = true;
    } else if (arg == "--work_dir") {
      config->work_dir = value();
    } else if (arg == "--git_sha") {
      config->git_sha = value();
    } else if (arg == "--source_digest") {
      config->source_digest = value();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !config->workload.empty() && config->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: csj_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--small] "
                 "[--corrupt_reference] [--work_dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(config);
}
