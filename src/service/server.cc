#include "service/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/encoding_cache.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csj::service {

namespace {

/// The result-cache identity of one kTopK request at one stable catalog
/// state. Everything that can change the ranking is in the key; the
/// query's identity is its CONTENT fingerprint (same as the encoding
/// cache), so two producers submitting equal communities share hits and a
/// mutated community can never alias a stale entry.
ResultCacheKey MakeResultCacheKey(uint64_t clock_tag,
                                  const ServeRequest& request) {
  ResultCacheKey key;
  key.state_version = clock_tag;
  key.query_fingerprint = DigestCommunity(*request.community).fingerprint;
  key.k = std::max(request.topk.k, 1u);
  key.eps = request.topk.join.eps;
  key.method = static_cast<uint16_t>(request.topk.method);
  key.prescreen = request.topk.prescreen ? 1 : 0;
  key.use_bound_cutoff = request.topk.use_bound_cutoff ? 1 : 0;
  key.prescreen_threshold = request.topk.prescreen_threshold;
  return key;
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kRejected: return "rejected";
    case ServeStatus::kDeadlineExpired: return "deadline_expired";
    case ServeStatus::kNotFound: return "not_found";
  }
  return "unknown";
}

CsjServer::CsjServer(Options options) : options_(std::move(options)) {
  options_.workers = std::max(options_.workers, 1u);
  catalog_ = std::make_unique<CommunityCatalog>(options_.catalog);
  topk_ = std::make_unique<TopKSimilarService>(catalog_.get());
  if (options_.result_cache) {
    cache_ = std::make_unique<TopKResultCache>(options_.result_cache_options);
  }
  queue_ = std::make_unique<BoundedRequestQueue<QueuedRequest>>(
      options_.queue_capacity);
  workers_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CsjServer::~CsjServer() { Shutdown(); }

void CsjServer::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  queue_->Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool CsjServer::Enqueue(QueuedRequest queued) {
  // Catalog entries must have users. Refusing an empty upsert at
  // admission keeps it from reaching the catalog's non-empty check,
  // which aborts the process.
  const ServeRequest& request = queued.request;
  if (request.kind == RequestKind::kUpsert &&
      (request.community == nullptr || request.community->empty())) {
    return false;
  }
  queued.admitted = std::chrono::steady_clock::now();
  // A deadline the clock cannot represent is no deadline: converting it
  // to clock ticks would overflow. Half the clock's remaining range
  // (centuries) leaves room for the conversion's rounding.
  const double seconds = queued.request.deadline_seconds;
  const double headroom = std::chrono::duration<double>(
                              Deadline::max() - queued.admitted)
                              .count();
  if (seconds > 0.0 && seconds < headroom / 2) {
    queued.deadline =
        queued.admitted + std::chrono::duration_cast<Deadline::duration>(
                              std::chrono::duration<double>(seconds));
  }
  const std::optional<Deadline> deadline = queued.deadline;
  return queue_->TryPush(std::move(queued), deadline);
}

bool CsjServer::Submit(ServeRequest request,
                       std::future<ServeResponse>* response) {
  QueuedRequest queued;
  queued.request = std::move(request);
  std::future<ServeResponse> future = queued.promise.get_future();
  if (!Enqueue(std::move(queued))) return false;
  if (response != nullptr) *response = std::move(future);
  return true;
}

bool CsjServer::Submit(ServeRequest request,
                       std::function<void(ServeResponse)> done) {
  CSJ_CHECK(done != nullptr);
  QueuedRequest queued;
  queued.request = std::move(request);
  queued.callback = std::move(done);
  return Enqueue(std::move(queued));
}

ServeResponse CsjServer::SubmitAndWait(ServeRequest request) {
  std::future<ServeResponse> future;
  if (!Submit(std::move(request), &future)) {
    ServeResponse rejected;
    rejected.status = ServeStatus::kRejected;
    return rejected;
  }
  return future.get();
}

void CsjServer::WorkerLoop() {
  while (true) {
    std::optional<QueuedRequest> queued = queue_->Pop();
    if (!queued.has_value()) return;  // closed and drained
    ServeResponse response = Execute(*queued);
    response.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (response.status == ServeStatus::kDeadlineExpired) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    RecordLatency(response.status, response.total_seconds);
    if (queued->callback != nullptr) {
      queued->callback(std::move(response));
    } else {
      queued->promise.set_value(std::move(response));
    }
  }
}

void CsjServer::ExecuteTopK(const QueuedRequest& queued,
                            ServeResponse* response) {
  const ServeRequest& request = queued.request;

  // Stability probe (see catalog.h): f1 == started means the catalog is
  // quiescent at clock tag f1 right now; only then can a cached ranking
  // be named, looked up, or installed.
  const uint64_t clock_tag = catalog_->mutations_finished();
  const bool stable = catalog_->mutations_started() == clock_tag;

  ResultCacheKey key;
  if (cache_ != nullptr && stable) {
    key = MakeResultCacheKey(clock_tag, request);
    if (TopKResultCache::Ranking hit = cache_->Find(key)) {
      // Hit: the tag still matching `started` (checked when `stable` was
      // computed) proves the catalog state is bit-identical to the one
      // the ranking was computed against; serving it IS recomputing it.
      response->topk.entries = *hit;
      response->status = ServeStatus::kOk;
      response->cache_hit = true;
      response->state_version = clock_tag;
      return;
    }
  }
  if (cache_ != nullptr && !stable) {
    cache_bypasses_.fetch_add(1, std::memory_order_relaxed);
  }

  response->topk =
      topk_->Query(*request.community, request.topk, queued.deadline);
  response->status = response->topk.deadline_expired
                         ? ServeStatus::kDeadlineExpired
                         : ServeStatus::kOk;

  // Install on the way out: complete rankings only (a deadline partial is
  // not THE answer at this state), and only when no mutation started
  // while we computed — otherwise the result may straddle two states and
  // must not be named by either.
  if (cache_ != nullptr && stable &&
      response->status == ServeStatus::kOk) {
    if (catalog_->mutations_started() == clock_tag) {
      response->state_version = clock_tag;
      cache_->Insert(key,
                     std::make_shared<const std::vector<TopKEntry>>(
                         response->topk.entries));
    }
  } else if (stable && catalog_->mutations_started() == clock_tag &&
             response->status == ServeStatus::kOk) {
    response->state_version = clock_tag;
  }
}

ServeResponse CsjServer::Execute(QueuedRequest& queued) {
  const ServeRequest& request = queued.request;
  ServeResponse response;
  response.queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    queued.admitted)
          .count();

  // Phase boundary 1: a request that burned its whole budget in the
  // queue is dropped before any join work.
  if (queued.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *queued.deadline) {
    response.status = ServeStatus::kDeadlineExpired;
  } else {
    switch (request.kind) {
      case RequestKind::kTopK: {
        CSJ_CHECK(request.community != nullptr);
        ExecuteTopK(queued, &response);
        break;
      }
      case RequestKind::kUpsert: {
        CSJ_CHECK(request.community != nullptr);
        response.version =
            catalog_->Upsert(request.id, Community(*request.community));
        response.status = ServeStatus::kOk;
        break;
      }
      case RequestKind::kRemove: {
        response.status = catalog_->Remove(request.id)
                              ? ServeStatus::kOk
                              : ServeStatus::kNotFound;
        break;
      }
    }
  }

  response.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    queued.admitted)
          .count();
  return response;
}

void CsjServer::RecordLatency(ServeStatus status, double seconds) {
  LatencyRecorder& recorder = latency_[static_cast<uint8_t>(status)];
  const double ms = std::max(seconds * 1e3, 1e-4);
  std::lock_guard lock(recorder.mu);
  recorder.log_ms.Add(std::log10(ms));
  recorder.max_ms = std::max(recorder.max_ms, ms);
  ++recorder.count;
}

CsjServer::StatusLatency CsjServer::LatencyOf(ServeStatus status) const {
  const LatencyRecorder& recorder = latency_[static_cast<uint8_t>(status)];
  StatusLatency latency;
  std::lock_guard lock(recorder.mu);
  latency.count = recorder.count;
  if (recorder.count == 0) return latency;
  latency.p50_ms = std::pow(10.0, recorder.log_ms.Quantile(0.50));
  latency.p95_ms = std::pow(10.0, recorder.log_ms.Quantile(0.95));
  latency.p99_ms = std::pow(10.0, recorder.log_ms.Quantile(0.99));
  latency.max_ms = recorder.max_ms;
  return latency;
}

CsjServer::Stats CsjServer::GetStats() const {
  Stats stats;
  stats.accepted = queue_->accepted();
  stats.rejected = queue_->rejected();
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  stats.queue_high_water = queue_->high_water();
  stats.cache_bypasses = cache_bypasses_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.result_cache = cache_->GetStats();
  return stats;
}

}  // namespace csj::service
