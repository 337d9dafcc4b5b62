#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

uint64_t SpanRecorder::Record(std::string_view name, double start,
                              double end, uint64_t parent, uint64_t request,
                              uint64_t id) {
  if (!enabled_) return 0;
  Span span;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.request = request;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request
        << ", \"name\": " << JsonString(span.name)
        << ", \"start_s\": " << JsonNumber(span.start)
        << ", \"end_s\": " << JsonNumber(span.end) << "}\n";
  }
  return static_cast<bool>(out);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double ScopedSpan::End() {
  if (end_ < 0.0) {
    end_ = Now();
    if (recorder_ != nullptr && id_ != 0) {
      recorder_->Record(name_, start_, end_, parent_, request_, id_);
    }
  }
  return end_ - start_;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name);
    out += ": {\"value\": ";
    out += JsonNumber(metrics[i].value);
    out += ", \"unit\": ";
    out += JsonString(metrics[i].unit);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
