// Measurement machinery of the repository benchmark, kept free of any
// library dependency so the self-test can pin it: order statistics,
// open-loop due-time accounting, an in-memory span recorder with
// per-layer self time, and the JSON result line.
#ifndef SMBENCH_HARNESS_H_
#define SMBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace smbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/// Middle value (mean of the two middle values for even counts); NaN when
/// `values` is empty.
double Median(std::vector<double> values);

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). Needs at least two values; fewer
/// yields NaNs.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// The highest percentile of the ladder 50/75/90/95/99 that leaves at
/// least ten samples beyond it (nearest-rank), with its value. When no
/// ladder step qualifies (fewer than 20 samples) the value is the sample
/// maximum and `percentile` is 100, so a caller can say that no
/// percentile is supported.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  bool supported() const { return percentile < 100.0; }
};
Tail SupportedTail(std::vector<double> values);

/// Median, quartiles and supported tail of one timing, as the result
/// lines print them.
struct Summary {
  double median = 0.0;
  Quartiles quartiles;
  Tail tail;
  size_t samples() const { return tail.samples; }
};
Summary Summarize(const std::vector<double>& values);

/// One sample stamped with when it completed, in seconds from the start
/// of the measurement window.
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// Statistics of the samples that completed in one sub-window.
struct WindowStats {
  size_t index = 0;
  double rate = 0.0;  // Completions per second.
  double median = 0.0;
  Tail tail;
};

/// Cuts [0, span) into `windows` equal sub-windows and summarizes each
/// one that holds samples.
std::vector<WindowStats> SplitWindows(const std::vector<TimedSample>& samples,
                                      double span, int windows);

/// The sub-window with the highest completion rate. Another tenant that
/// steals the CPU only ever slows a closed loop down, so the fastest
/// sub-window is the one the host disturbed least; a slower program is
/// slower in every sub-window, that one included.
WindowStats CalmestWindow(const std::vector<WindowStats>& windows);

// ---------------------------------------------------------------------------
// Open-loop pacing.
// ---------------------------------------------------------------------------

/// A fixed-rate arrival schedule: item i is due at start + i / rate no
/// matter how late earlier items went out, so a stall delays the items
/// queued behind it without shifting their due times. Latencies are
/// measured from the due time (LatencyFromDue), which charges the stall
/// to every item it held up; the generator's own lateness (sent − due)
/// is kept separately so a run can show how far it fell behind.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_second);

  Clock::time_point Due(int64_t index) const;
  /// Records that item `index` was handed to the system at `sent`;
  /// returns its lateness in seconds (0 when sent on or before time).
  double RecordSend(int64_t index, Clock::time_point sent);
  /// Seconds from item `index`'s due time to `completed`.
  double LatencyFromDue(int64_t index, Clock::time_point completed) const;

  const std::vector<double>& lateness() const { return lateness_; }

 private:
  Clock::time_point start_;
  double rate_;
  std::vector<double> lateness_;
};

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

/// One timed interval: the public call it wraps, the repository module
/// (layer) that call belongs to, its parent span (-1 for a root) and the
/// request it served, shared by every span of one query or reading.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory while the run measures and writes them out at
/// the end. Thread-safe. When disabled every call is a no-op returning
/// -1, so the untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Records a closed interval; returns its id (or -1 when disabled).
  int64_t Add(std::string name, std::string layer, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request);
  /// Opens a span ending at the matching End().
  int64_t Begin(std::string name, std::string layer, int64_t parent,
                uint64_t request);
  void End(int64_t id);

  std::vector<Span> spans() const;
  /// Seconds each layer was busy on its own: a span's duration minus the
  /// part of it covered by its children, summed per layer.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII helper around SpanRecorder::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::string layer,
             int64_t parent, uint64_t request)
      : recorder_(recorder),
        id_(recorder->Begin(std::move(name), std::move(layer), parent,
                            request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// Self time of each span in `spans` (same order), children clipped to
/// their parent's interval and overlapping children counted once.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The last stdout line of a run: exactly the keys correct, attempted,
/// failed and metrics, numbers printed with all their digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace smbench

#endif  // SMBENCH_HARNESS_H_
