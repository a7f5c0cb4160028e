#include "obs/report.h"

#include <cstring>

namespace smartmeter::obs {

namespace {

JsonValue RunToJson(const RunRecord& run) {
  JsonValue j = JsonValue::Object();
  j.Set("engine", JsonValue(run.engine));
  j.Set("task", JsonValue(run.task));
  j.Set("layout", JsonValue(run.layout));
  j.Set("threads", JsonValue(run.threads));
  j.Set("warm", JsonValue(run.warm));
  j.Set("simulated", JsonValue(run.simulated));
  j.Set("attach_seconds", JsonValue(run.attach_seconds));
  j.Set("warmup_seconds", JsonValue(run.warmup_seconds));
  j.Set("task_seconds", JsonValue(run.task_seconds));
  j.Set("memory_bytes", JsonValue(run.memory_bytes));
  if (run.households != 0) j.Set("households", JsonValue(run.households));
  JsonValue phases = JsonValue::Object();
  phases.Set("quantile_seconds", JsonValue(run.quantile_seconds));
  phases.Set("regression_seconds", JsonValue(run.regression_seconds));
  phases.Set("adjust_seconds", JsonValue(run.adjust_seconds));
  j.Set("phases", std::move(phases));
  if (!run.stages.empty()) {
    JsonValue stages = JsonValue::Array();
    for (const StageRow& stage : run.stages) {
      JsonValue row = JsonValue::Object();
      row.Set("name", JsonValue(stage.name));
      row.Set("seconds", JsonValue(stage.seconds));
      row.Set("partitions", JsonValue(stage.partitions));
      // Fault fields appear only when the simulated cluster injected
      // something, so healthy-run reports are byte-stable.
      if (stage.retries != 0) row.Set("retries", JsonValue(stage.retries));
      if (stage.stragglers != 0) {
        row.Set("stragglers", JsonValue(stage.stragglers));
      }
      if (stage.speculative_launched != 0) {
        row.Set("speculative_launched",
                JsonValue(stage.speculative_launched));
      }
      if (stage.speculative_wins != 0) {
        row.Set("speculative_wins", JsonValue(stage.speculative_wins));
      }
      stages.Append(std::move(row));
    }
    j.Set("stages", std::move(stages));
  }
  // The scan block appears only when a block-indexed source reported
  // something, so text-source reports are byte-stable.
  if (run.bytes_scanned != 0 || run.blocks_decoded != 0 ||
      run.blocks_pruned != 0 || run.compression_ratio != 0.0) {
    JsonValue scan = JsonValue::Object();
    scan.Set("bytes_scanned", JsonValue(run.bytes_scanned));
    scan.Set("blocks_decoded", JsonValue(run.blocks_decoded));
    scan.Set("blocks_pruned", JsonValue(run.blocks_pruned));
    scan.Set("compression_ratio", JsonValue(run.compression_ratio));
    j.Set("scan", std::move(scan));
  }
  if (!run.outcome.empty()) {
    JsonValue serving = JsonValue::Object();
    serving.Set("outcome", JsonValue(run.outcome));
    serving.Set("clients", JsonValue(run.clients));
    serving.Set("queries_ok", JsonValue(run.queries_ok));
    serving.Set("queries_shed", JsonValue(run.queries_shed));
    serving.Set("p50_seconds", JsonValue(run.p50_seconds));
    serving.Set("p99_seconds", JsonValue(run.p99_seconds));
    serving.Set("queries_per_second", JsonValue(run.queries_per_second));
    // Sharding fields appear only for sharded multi-tenant runs, so
    // earlier serving reports stay byte-stable.
    if (run.shards != 0) serving.Set("shards", JsonValue(run.shards));
    if (!run.tenants.empty()) {
      JsonValue tenants = JsonValue::Array();
      for (const TenantRow& tenant : run.tenants) {
        JsonValue row = JsonValue::Object();
        row.Set("tenant", JsonValue(tenant.tenant));
        row.Set("submitted", JsonValue(tenant.submitted));
        row.Set("queries_ok", JsonValue(tenant.queries_ok));
        row.Set("queries_shed", JsonValue(tenant.queries_shed));
        row.Set("shed_rate", JsonValue(tenant.shed_rate));
        row.Set("p99_seconds", JsonValue(tenant.p99_seconds));
        tenants.Append(std::move(row));
      }
      serving.Set("tenants", std::move(tenants));
    }
    j.Set("serving", std::move(serving));
  }
  // The ingest block appears only for lambda-path runs, so batch-only
  // reports are byte-stable.
  if (run.ingest_rate != 0.0 || run.freshness_p50_seconds != 0.0 ||
      run.freshness_p99_seconds != 0.0) {
    JsonValue ingest = JsonValue::Object();
    ingest.Set("rate", JsonValue(run.ingest_rate));
    ingest.Set("freshness_p50", JsonValue(run.freshness_p50_seconds));
    ingest.Set("freshness_p99", JsonValue(run.freshness_p99_seconds));
    j.Set("ingest", std::move(ingest));
  }
  return j;
}

RunRecord RunFromJson(const JsonValue& j) {
  RunRecord run;
  run.engine = j.Get("engine").AsString();
  run.task = j.Get("task").AsString();
  run.layout = j.Get("layout").AsString();
  run.threads = static_cast<int>(j.Get("threads").AsInt(1));
  run.warm = j.Get("warm").AsBool();
  run.simulated = j.Get("simulated").AsBool();
  run.attach_seconds = j.Get("attach_seconds").AsDouble();
  run.warmup_seconds = j.Get("warmup_seconds").AsDouble();
  run.task_seconds = j.Get("task_seconds").AsDouble();
  run.memory_bytes = j.Get("memory_bytes").AsInt();
  if (j.Has("households")) run.households = j.Get("households").AsInt();
  const JsonValue& phases = j.Get("phases");
  run.quantile_seconds = phases.Get("quantile_seconds").AsDouble();
  run.regression_seconds = phases.Get("regression_seconds").AsDouble();
  run.adjust_seconds = phases.Get("adjust_seconds").AsDouble();
  // Stage rows are optional: reports written before the plan IR simply
  // lack them.
  if (j.Has("stages")) {
    for (const JsonValue& row : j.Get("stages").items()) {
      StageRow stage;
      stage.name = row.Get("name").AsString();
      stage.seconds = row.Get("seconds").AsDouble();
      stage.partitions = static_cast<int>(row.Get("partitions").AsInt(1));
      if (row.Has("retries")) stage.retries = row.Get("retries").AsInt();
      if (row.Has("stragglers")) {
        stage.stragglers = row.Get("stragglers").AsInt();
      }
      if (row.Has("speculative_launched")) {
        stage.speculative_launched =
            row.Get("speculative_launched").AsInt();
      }
      if (row.Has("speculative_wins")) {
        stage.speculative_wins = row.Get("speculative_wins").AsInt();
      }
      run.stages.push_back(std::move(stage));
    }
  }
  // Scan block is optional: reports written before the block-indexed
  // column format (or from text sources) simply lack it.
  if (j.Has("scan")) {
    const JsonValue& scan = j.Get("scan");
    run.bytes_scanned = scan.Get("bytes_scanned").AsInt();
    run.blocks_decoded = scan.Get("blocks_decoded").AsInt();
    run.blocks_pruned = scan.Get("blocks_pruned").AsInt();
    run.compression_ratio = scan.Get("compression_ratio").AsDouble();
  }
  // Serving block is optional: reports written before the serving layer
  // (or batch-only reports) simply lack it.
  if (j.Has("serving")) {
    const JsonValue& serving = j.Get("serving");
    run.outcome = serving.Get("outcome").AsString();
    run.clients = static_cast<int>(serving.Get("clients").AsInt());
    run.queries_ok = serving.Get("queries_ok").AsInt();
    run.queries_shed = serving.Get("queries_shed").AsInt();
    run.p50_seconds = serving.Get("p50_seconds").AsDouble();
    run.p99_seconds = serving.Get("p99_seconds").AsDouble();
    run.queries_per_second = serving.Get("queries_per_second").AsDouble();
    if (serving.Has("shards")) {
      run.shards = static_cast<int>(serving.Get("shards").AsInt());
    }
    if (serving.Has("tenants")) {
      for (const JsonValue& row : serving.Get("tenants").items()) {
        TenantRow tenant;
        tenant.tenant = row.Get("tenant").AsString();
        tenant.submitted = row.Get("submitted").AsInt();
        tenant.queries_ok = row.Get("queries_ok").AsInt();
        tenant.queries_shed = row.Get("queries_shed").AsInt();
        tenant.shed_rate = row.Get("shed_rate").AsDouble();
        tenant.p99_seconds = row.Get("p99_seconds").AsDouble();
        run.tenants.push_back(std::move(tenant));
      }
    }
  }
  // Ingest block is optional: reports written before the real-time path
  // (or batch-only reports) simply lack it.
  if (j.Has("ingest")) {
    const JsonValue& ingest = j.Get("ingest");
    run.ingest_rate = ingest.Get("rate").AsDouble();
    run.freshness_p50_seconds = ingest.Get("freshness_p50").AsDouble();
    run.freshness_p99_seconds = ingest.Get("freshness_p99").AsDouble();
  }
  return run;
}

JsonValue MetricsToJson(const MetricsSnapshot& metrics) {
  JsonValue j = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& sample : metrics.counters) {
    counters.Set(sample.name, JsonValue(sample.value));
  }
  j.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& sample : metrics.gauges) {
    gauges.Set(sample.name, JsonValue(sample.value));
  }
  j.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& sample : metrics.histograms) {
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue(sample.count));
    h.Set("total_seconds", JsonValue(sample.total_seconds));
    JsonValue buckets = JsonValue::Array();
    for (int64_t count : sample.bucket_counts) {
      buckets.Append(JsonValue(count));
    }
    h.Set("bucket_counts", std::move(buckets));
    histograms.Set(sample.name, std::move(h));
  }
  j.Set("histograms", std::move(histograms));
  return j;
}

MetricsSnapshot MetricsFromJson(const JsonValue& j) {
  MetricsSnapshot metrics;
  for (const auto& [name, value] : j.Get("counters").members()) {
    metrics.counters.push_back({name, value.AsInt()});
  }
  for (const auto& [name, value] : j.Get("gauges").members()) {
    metrics.gauges.push_back({name, value.AsInt()});
  }
  for (const auto& [name, value] : j.Get("histograms").members()) {
    MetricsSnapshot::HistogramSample sample;
    sample.name = name;
    sample.count = value.Get("count").AsInt();
    sample.total_seconds = value.Get("total_seconds").AsDouble();
    for (const JsonValue& count : value.Get("bucket_counts").items()) {
      sample.bucket_counts.push_back(count.AsInt());
    }
    metrics.histograms.push_back(std::move(sample));
  }
  return metrics;
}

JsonValue SpanToJson(const TraceEvent& span) {
  JsonValue j = JsonValue::Object();
  j.Set("name", JsonValue(std::string(span.name)));
  j.Set("begin_ns", JsonValue(span.begin_ns));
  j.Set("end_ns", JsonValue(span.end_ns));
  j.Set("thread", JsonValue(static_cast<int64_t>(span.thread_id)));
  j.Set("depth", JsonValue(static_cast<int64_t>(span.depth)));
  return j;
}

TraceEvent SpanFromJson(const JsonValue& j) {
  TraceEvent span;
  std::strncpy(span.name, j.Get("name").AsString().c_str(),
               TraceEvent::kMaxName);
  span.begin_ns = j.Get("begin_ns").AsInt();
  span.end_ns = j.Get("end_ns").AsInt();
  span.thread_id = static_cast<uint32_t>(j.Get("thread").AsInt());
  span.depth = static_cast<uint16_t>(j.Get("depth").AsInt());
  return span;
}

}  // namespace

JsonValue BenchReport::ToJson() const {
  JsonValue j = JsonValue::Object();
  j.Set("schema", JsonValue("smartmeter-bench-report/v1"));
  j.Set("label", JsonValue(label_));
  JsonValue runs = JsonValue::Array();
  for (const RunRecord& run : runs_) {
    runs.Append(RunToJson(run));
  }
  j.Set("runs", std::move(runs));
  j.Set("metrics", MetricsToJson(metrics_));
  JsonValue spans = JsonValue::Array();
  for (const TraceEvent& span : spans_) {
    spans.Append(SpanToJson(span));
  }
  j.Set("spans", std::move(spans));
  j.Set("dropped_spans", JsonValue(dropped_spans_));
  return j;
}

bool BenchReport::FromJson(const JsonValue& json, BenchReport* out,
                           std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "report is not a JSON object";
    return false;
  }
  if (json.Get("schema").AsString() != "smartmeter-bench-report/v1") {
    if (error != nullptr) {
      *error = "unknown report schema '" + json.Get("schema").AsString() + "'";
    }
    return false;
  }
  *out = BenchReport();
  out->label_ = json.Get("label").AsString();
  for (const JsonValue& run : json.Get("runs").items()) {
    out->runs_.push_back(RunFromJson(run));
  }
  out->metrics_ = MetricsFromJson(json.Get("metrics"));
  for (const JsonValue& span : json.Get("spans").items()) {
    out->spans_.push_back(SpanFromJson(span));
  }
  out->dropped_spans_ = json.Get("dropped_spans").AsInt();
  return true;
}

bool BenchReport::ReadFile(const std::string& path, BenchReport* out,
                           std::string* error) {
  JsonValue json;
  if (!ReadJsonFile(path, &json, error)) return false;
  return FromJson(json, out, error);
}

}  // namespace smartmeter::obs
