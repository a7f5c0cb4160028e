#ifndef SMARTMETER_OBS_REPORT_H_
#define SMARTMETER_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartmeter::obs {

/// One benchmark execution, flattened for export: the RunReport fields
/// plus the identifying spec dimensions, all engine-agnostic strings so
/// obs stays below the engines library in the build.
/// One physical-plan stage's contribution to a run (mirrors
/// exec::StageTiming without depending on the exec library). The fault
/// fields count injected cluster events (retries, stragglers,
/// speculation) and serialize only when nonzero, so healthy-cluster and
/// pre-fault-model reports round-trip unchanged.
struct StageRow {
  std::string name;
  double seconds = 0.0;
  int partitions = 1;
  int64_t retries = 0;
  int64_t stragglers = 0;
  int64_t speculative_launched = 0;
  int64_t speculative_wins = 0;
};

/// One tenant's slice of a serving run (multi-tenant benchmarks).
struct TenantRow {
  std::string tenant;
  int64_t submitted = 0;
  int64_t queries_ok = 0;
  int64_t queries_shed = 0;
  /// shed / submitted (0 when nothing was submitted).
  double shed_rate = 0.0;
  double p99_seconds = 0.0;
};

struct RunRecord {
  std::string engine;
  std::string task;
  std::string layout;
  int threads = 1;
  bool warm = false;
  bool simulated = false;
  double attach_seconds = 0.0;
  double warmup_seconds = 0.0;
  double task_seconds = 0.0;
  int64_t memory_bytes = 0;
  /// Input size of benches that sweep the data size (Figure 7's paper-GB
  /// points). Zero suppresses the JSON key, so reports of benches with a
  /// fixed input round-trip unchanged.
  int64_t households = 0;
  /// Figure 6 three-line phase split (zero for other tasks).
  double quantile_seconds = 0.0;
  double regression_seconds = 0.0;
  double adjust_seconds = 0.0;
  /// Per-stage timings of the executed plan, in stage order; their
  /// seconds sum to task_seconds. Empty rows suppress the JSON key so
  /// pre-plan-IR reports round-trip unchanged.
  std::vector<StageRow> stages;
  /// Block-index scan accounting (columnar sources only; all-zero rows
  /// suppress the JSON key so text-source and pre-SMCOLV2 reports
  /// round-trip unchanged). `bytes_scanned` counts decoded values' bytes;
  /// `compression_ratio` is decoded bytes / the scanned file's on-disk
  /// bytes — < 1 when pruning plus compression materialize less than the
  /// file's footprint. bench_fig20_storage's synthetic "storage" rows
  /// record the SMCOLV2-to-SMCOLV1 file-size ratio here instead.
  int64_t bytes_scanned = 0;
  int64_t blocks_decoded = 0;
  int64_t blocks_pruned = 0;
  double compression_ratio = 0.0;
  /// Serving-mode fields (concurrent query benchmarks). `outcome` is
  /// empty for plain batch runs, which also suppresses these keys in
  /// the JSON so existing reports round-trip unchanged; serving rows
  /// use "ok" / "shed" / "error".
  std::string outcome;
  int clients = 0;
  int64_t queries_ok = 0;
  int64_t queries_shed = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double queries_per_second = 0.0;
  /// Sharded-serving fields: shard count and per-tenant breakdowns.
  /// Zero / empty suppresses the JSON keys, so single-shard and
  /// pre-sharding serving reports round-trip unchanged.
  int shards = 0;
  std::vector<TenantRow> tenants;
  /// Real-time ingest fields (lambda-path benchmarks). `ingest_rate` is
  /// accepted readings per second; freshness is the reading-to-queryable
  /// lag (append to first snapshot that published the hour). All-zero
  /// suppresses the JSON block so batch-only reports round-trip
  /// unchanged.
  double ingest_rate = 0.0;
  double freshness_p50_seconds = 0.0;
  double freshness_p99_seconds = 0.0;
};

/// Accumulates one process's benchmark observations — run records, a
/// metrics snapshot, and the trace ring — and serializes them as the
/// bench_report.json schema documented in EXPERIMENTS.md.
class BenchReport {
 public:
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  void AddRun(RunRecord run) { runs_.push_back(std::move(run)); }
  const std::vector<RunRecord>& runs() const { return runs_; }

  /// Copies the current state of the global metrics registry into the
  /// report (call after the timed work).
  void CaptureMetrics() {
    metrics_ = MetricsRegistry::Global().Snapshot();
  }
  void set_metrics(MetricsSnapshot metrics) { metrics_ = std::move(metrics); }
  const MetricsSnapshot& metrics() const { return metrics_; }

  /// Copies the retained spans of the global trace buffer.
  void CaptureSpans() {
    spans_ = TraceBuffer::Global().Snapshot();
    dropped_spans_ = TraceBuffer::Global().dropped();
  }
  void set_spans(std::vector<TraceEvent> spans) { spans_ = std::move(spans); }
  const std::vector<TraceEvent>& spans() const { return spans_; }
  int64_t dropped_spans() const { return dropped_spans_; }

  JsonValue ToJson() const;
  std::string ToJsonString() const { return ToJson().Dump(); }

  /// Inverse of ToJson (numbers round-trip exactly, span names up to the
  /// ring's truncation limit). False + `error` on schema mismatch.
  static bool FromJson(const JsonValue& json, BenchReport* out,
                       std::string* error);

  bool WriteFile(const std::string& path, std::string* error) const {
    return WriteJsonFile(ToJson(), path, error);
  }
  static bool ReadFile(const std::string& path, BenchReport* out,
                       std::string* error);

 private:
  std::string label_;
  std::vector<RunRecord> runs_;
  MetricsSnapshot metrics_;
  std::vector<TraceEvent> spans_;
  int64_t dropped_spans_ = 0;
};

}  // namespace smartmeter::obs

#endif  // SMARTMETER_OBS_REPORT_H_
