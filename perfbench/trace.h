// Span recording and sample statistics for the serving benchmark.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it and the request it belongs to. The benchmark records spans
// from its own code around the public calls it makes (NetClient::Call,
// BulkLoad, Store::Open, TopKSimilarService::Query, ...) and turns the
// phase splits those calls already return (queue/total seconds,
// TopKQueryStats, OpenStats, ...) into child spans. Spans stay in memory
// and are written out as JSON lines when the run ends.
#ifndef CSJ_PERFBENCH_TRACE_H_
#define CSJ_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< spans of one request share this id
  std::string name;
  double start = 0.0;  ///< Now() seconds
  double end = 0.0;
};

/// Thread-safe in-memory span store. A disabled recorder drops every span
/// (Record returns 0), so the untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// A fresh span id (0 when disabled), for a span whose children are
  /// recorded before it ends.
  uint64_t NewId() { return enabled_ ? next_id_.fetch_add(1) + 1 : 0; }

  /// Records a finished span under `id` (0: a fresh one) and returns the
  /// id (0 when disabled).
  uint64_t Record(std::string_view name, double start, double end,
                  uint64_t parent = 0, uint64_t request = 0, uint64_t id = 0);

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

  size_t size() const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer: starts at construction, records on End()
/// (or destruction). Its id exists from construction, so calls it makes
/// and phase splits can hang below it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             uint64_t parent = 0, uint64_t request = 0)
      : recorder_(recorder), name_(name), parent_(parent),
        request_(request), start_(Now()),
        id_(recorder != nullptr ? recorder->NewId() : 0) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span once; returns its duration in seconds.
  double End();
  uint64_t id() const { return id_; }
  double start() const { return start_; }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  uint64_t parent_;
  uint64_t request_;
  double start_;
  double end_ = -1.0;
  uint64_t id_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` in the order given.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(std::string_view text);

/// A number printed with every significant digit a double carries.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // CSJ_PERFBENCH_TRACE_H_
