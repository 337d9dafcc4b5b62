#ifndef CSJ_SERVICE_SERVER_H_
#define CSJ_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/community.h"
#include "service/catalog.h"
#include "service/request_queue.h"
#include "service/result_cache.h"
#include "service/topk.h"
#include "util/histogram.h"

namespace csj::service {

/// What a request asks the server to do.
enum class RequestKind : uint8_t {
  kTopK,    ///< rank the catalog against `query`
  kUpsert,  ///< install `query` as catalog entry `id`
  kRemove,  ///< drop catalog entry `id`
};

enum class ServeStatus : uint8_t {
  kOk,
  kRejected,         ///< admission control: queue full (never executed)
  kDeadlineExpired,  ///< ran out of budget between phases
  kNotFound,         ///< kRemove of an absent id
};

const char* ServeStatusName(ServeStatus status);

struct ServeRequest {
  RequestKind kind = RequestKind::kTopK;
  /// Target entry for kUpsert / kRemove.
  uint64_t id = 0;
  /// The query community (kTopK) or the payload to install (kUpsert).
  /// Shared so producers can reuse one community across many requests
  /// without copying megabytes per request.
  std::shared_ptr<const Community> community;
  /// Per-request top-k parameters (kTopK only).
  TopKOptions topk;
  /// Latency budget in seconds, measured from ADMISSION (TryPush), so
  /// queueing time counts against it — a request stuck behind a burst
  /// expires instead of consuming refine work nobody is waiting for.
  /// 0 = no deadline, and so is one beyond the steady clock's range.
  /// Also the queue's EDF key: tighter deadlines are served first,
  /// deadline-free requests keep arrival order.
  double deadline_seconds = 0.0;
};

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  /// kTopK result (possibly partial when status == kDeadlineExpired).
  TopKResult topk;
  /// Version installed by kUpsert.
  uint64_t version = 0;
  /// True when `topk.entries` was served from the versioned result cache
  /// (byte-identical to recomputing; see TopKResultCache).
  bool cache_hit = false;
  /// The catalog mutation-clock tag the top-k ranking is exact against
  /// (hits AND stable-state misses); 0 when the catalog was churning
  /// around this request and no stable state can be named.
  uint64_t state_version = 0;
  /// Execution order: the n-th request a worker dequeued gets sequence n
  /// (from 1). Exposes the queue's EDF ordering to tests and tracing.
  uint64_t sequence = 0;
  /// Seconds from admission to execution start (queue wait) and to
  /// completion (what the client experienced).
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
};

/// The long-running serving front end: a bounded request queue feeding a
/// fixed crew of worker threads that execute against the shared
/// CommunityCatalog / TopKSimilarService.
///
/// Threading model: producers (any thread) call Submit, which either
/// admits the request — returning a future the producer may wait on, or
/// registering a completion callback — or rejects it immediately when the
/// queue is full. Workers pop requests in EDF order (earliest deadline
/// first; deadline-free requests keep arrival order) and execute them one
/// at a time; per-request parallelism comes from
/// TopKOptions::query_threads (usually 1 under heavy traffic — the
/// workers ARE the parallelism), catalog mutations are safe by the
/// catalog's own sharded locking.
///
/// Result cache: with Options::result_cache enabled, kTopK requests
/// consult a TopKResultCache keyed on (catalog mutation-clock tag, query
/// content fingerprint, k, eps, method, prescreen, threshold, cutoff). A
/// hit skips the snapshot, the bound phase and every refine wave and is
/// byte-identical to recomputing (the clock protocol in catalog.h proves
/// the catalog state is bit-identical to the one the entry was computed
/// against). Misses computed against a PROVEN-stable catalog are
/// installed on the way out; while the catalog churns the cache is
/// bypassed entirely (counted in Stats::cache_bypasses).
///
/// Deadlines are checked between request phases: after the queue wait,
/// after the bound phase, and between refine waves. An expired request
/// completes with kDeadlineExpired and whatever partial ranking it had.
class CsjServer {
 public:
  struct Options {
    uint32_t workers = 2;          ///< dedicated worker threads (>= 1)
    size_t queue_capacity = 256;   ///< admission-control bound
    CommunityCatalog::Options catalog;
    /// Enables the versioned hot-query result cache for kTopK requests.
    bool result_cache = false;
    TopKResultCache::Options result_cache_options;
  };

  /// Builds the catalog and starts the workers; the server is accepting
  /// requests when the constructor returns.
  explicit CsjServer(Options options);

  /// Stops accepting, drains queued requests, joins the workers.
  ~CsjServer();

  CsjServer(const CsjServer&) = delete;
  CsjServer& operator=(const CsjServer&) = delete;

  /// Admission: enqueues the request and hands back the future its
  /// response will arrive on. Returns false — and completes no future —
  /// when the queue is full or the server is shutting down; the caller
  /// sheds the request (counted in stats().rejected). An upsert whose
  /// community is missing or has no users is refused the same way
  /// (catalog entries must be non-empty), without counting as rejected.
  bool Submit(ServeRequest request, std::future<ServeResponse>* response);

  /// Callback-flavored admission for push-style callers (the network
  /// front end): on completion the executing WORKER thread invokes
  /// `done(response)` instead of fulfilling a future. Same admission
  /// contract: false = rejected, `done` will never be called.
  bool Submit(ServeRequest request,
              std::function<void(ServeResponse)> done);

  /// Convenience for tests and simple callers: Submit + wait. A rejected
  /// request returns status kRejected instead of blocking.
  ServeResponse SubmitAndWait(ServeRequest request);

  /// Stops accepting new requests, drains the queue, joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  const CommunityCatalog& catalog() const { return *catalog_; }
  CommunityCatalog& catalog() { return *catalog_; }
  const TopKSimilarService& topk() const { return *topk_; }
  /// The versioned result cache, or nullptr when Options::result_cache
  /// was off.
  const TopKResultCache* result_cache() const { return cache_.get(); }

  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t deadline_expired = 0;
    /// Deepest backlog the admission queue ever reached.
    uint64_t queue_high_water = 0;
    /// kTopK requests that skipped the result cache because the catalog
    /// mutation clock was unstable around them.
    uint64_t cache_bypasses = 0;
    /// Result-cache counters (all zero when the cache is off).
    TopKResultCache::Stats result_cache;
  };
  Stats GetStats() const;

  /// Latency summary of completed requests with `status`, measured
  /// admission -> completion (what the client experienced). Quantiles
  /// come from a log-scale histogram (~2% relative resolution from 100 ns
  /// to 100 s); all zeros when no request finished with that status.
  struct StatusLatency {
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };
  StatusLatency LatencyOf(ServeStatus status) const;

 private:
  struct QueuedRequest {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    /// Non-null for callback-flavored submits; the promise is unused then.
    std::function<void(ServeResponse)> callback;
    std::chrono::steady_clock::time_point admitted;
    std::optional<Deadline> deadline;
  };

  /// One per-status latency recorder (log10-ms domain).
  struct LatencyRecorder {
    mutable std::mutex mu;
    util::Histogram log_ms{-4.0, 5.0, 1024};
    double max_ms = 0.0;
    uint64_t count = 0;
  };

  bool Enqueue(QueuedRequest queued);
  void WorkerLoop();
  ServeResponse Execute(QueuedRequest& queued);
  void ExecuteTopK(const QueuedRequest& queued, ServeResponse* response);
  void RecordLatency(ServeStatus status, double seconds);

  Options options_;
  std::unique_ptr<CommunityCatalog> catalog_;
  std::unique_ptr<TopKSimilarService> topk_;
  std::unique_ptr<TopKResultCache> cache_;
  std::unique_ptr<BoundedRequestQueue<QueuedRequest>> queue_;
  std::vector<std::thread> workers_;
  /// Indexed by ServeStatus (kRejected's slot stays empty: rejected
  /// requests never execute, the client measures those).
  LatencyRecorder latency_[4];
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint64_t> cache_bypasses_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_SERVER_H_
