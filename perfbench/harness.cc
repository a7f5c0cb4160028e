#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace smbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (values.size() < 2) return {nan, nan, nan};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"), n = 4: m = len + 1, cut i
  // interpolates between data[j - 1] and data[j] with j = i*m // 4
  // clamped to [1, len - 1] and weight delta = i*m - j*4.
  const int64_t len = static_cast<int64_t>(values.size());
  const int64_t m = len + 1;
  double cuts[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, len - 1);
    const int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

Tail SupportedTail(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    tail.percentile = 100.0;
    tail.value = std::numeric_limits<double>::quiet_NaN();
    return tail;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.percentile = 100.0;
  tail.value = values.back();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it. Everything after that rank lies beyond the percentile.
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    const size_t index = rank == 0 ? 0 : rank - 1;
    if (n - (index + 1) >= 10) {
      tail.percentile = p;
      tail.value = values[index];
      break;
    }
  }
  return tail;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.median = Median(values);
  summary.quartiles = ComputeQuartiles(values);
  summary.tail = SupportedTail(values);
  return summary;
}

std::vector<WindowStats> SplitWindows(const std::vector<TimedSample>& samples,
                                      double span, int windows) {
  std::vector<WindowStats> out;
  if (windows < 1 || span <= 0) return out;
  std::vector<std::vector<double>> buckets(static_cast<size_t>(windows));
  for (const TimedSample& s : samples) {
    const double slot = s.at / span * windows;
    const int index = std::clamp(static_cast<int>(slot), 0, windows - 1);
    buckets[static_cast<size_t>(index)].push_back(s.value);
  }
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].empty()) continue;
    WindowStats stats;
    stats.index = i;
    stats.rate = static_cast<double>(buckets[i].size()) / (span / windows);
    stats.tail = SupportedTail(buckets[i]);
    stats.median = Median(std::move(buckets[i]));
    out.push_back(stats);
  }
  return out;
}

WindowStats CalmestWindow(const std::vector<WindowStats>& windows) {
  WindowStats best;
  best.tail = SupportedTail({});
  best.median = best.tail.value;
  for (const WindowStats& w : windows) {
    if (w.rate > best.rate) best = w;
  }
  return best;
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start,
                                   double rate_per_second)
    : start_(start), rate_(rate_per_second) {}

Clock::time_point OpenLoopSchedule::Due(int64_t index) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(index) / rate_));
}

double OpenLoopSchedule::RecordSend(int64_t index, Clock::time_point sent) {
  const double late = std::max(0.0, SecondsBetween(Due(index), sent));
  lateness_.push_back(late);
  return late;
}

double OpenLoopSchedule::LatencyFromDue(int64_t index,
                                        Clock::time_point completed) const {
  return SecondsBetween(Due(index), completed);
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t SpanRecorder::Add(std::string name, std::string layer,
                          Clock::time_point start, Clock::time_point end,
                          int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::Begin(std::string name, std::string layer,
                            int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                            span.end_ns);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = std::max(begin, spans[i].end_ns);
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const int64_t lo = std::max(kid_begin, cursor);
      const int64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(end - begin - covered) / 1e9;
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfSeconds(all);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < all.size(); ++i) by_layer[all[i].layer] += self[i];
  return by_layer;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& span : spans()) {
    // Names and layers are compile-time identifiers of this benchmark
    // (letters, digits, '.', '_'), so they need no escaping.
    ok = ok && std::fprintf(f,
                            "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":"
                            "%lld,\"end_ns\":%lld,\"parent\":%lld,"
                            "\"request\":%llu}\n",
                            span.name.c_str(), span.layer.c_str(),
                            static_cast<long long>(span.start_ns),
                            static_cast<long long>(span.end_ns),
                            static_cast<long long>(span.parent),
                            static_cast<unsigned long long>(span.request)) >
                     0;
  }
  return std::fclose(f) == 0 && ok;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    if (std::isfinite(metric.value)) {
      std::snprintf(number, sizeof(number), "%.17g", metric.value);
    } else {
      std::snprintf(number, sizeof(number), "null");
    }
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace smbench
