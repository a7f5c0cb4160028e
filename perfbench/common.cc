#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/memory_probe.h"
#include "common/string_util.h"
#include "core/histogram_task.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/three_line_task.h"
#include "datagen/generator.h"
#include "datagen/seed_generator.h"
#include "obs/metrics.h"
#include "table/columnar_batch.h"

namespace smbench {

namespace fs = std::filesystem;
using smartmeter::Status;
using smartmeter::StringPrintf;

RunContext::RunContext(Args args)
    : args_(std::move(args)), spans_(args_.trace) {}

void RunContext::EndToEnd(const std::string& name, double value,
                          const std::string& unit, const std::string& note) {
  end_to_end_[name] = Metric{value, unit};
  lines_.push_back(StringPrintf("  e2e   %-34s %.6g %s%s%s", name.c_str(),
                                value, unit.c_str(), note.empty() ? "" : "  ",
                                note.c_str()));
}

void RunContext::Layer(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  layers_[name] = Metric{value, unit};
  lines_.push_back(StringPrintf("  layer %-34s %.6g %s%s%s", name.c_str(),
                                value, unit.c_str(), note.empty() ? "" : "  ",
                                note.c_str()));
}

void RunContext::Info(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  lines_.push_back(StringPrintf("  info  %-34s %.6g %s%s%s", name.c_str(),
                                value, unit.c_str(), note.empty() ? "" : "  ",
                                note.c_str()));
}

void RunContext::Note(const std::string& line) { lines_.push_back(line); }

void RunContext::CountOps(const std::string& kind, int64_t attempted,
                          int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  ops_by_kind_[kind].first += attempted;
  ops_by_kind_[kind].second += failed;
}

void RunContext::Violation(const std::string& check,
                           const std::string& detail) {
  violations_.push_back(check + ": " + detail);
}

int RunContext::Finish() {
  EndToEnd("rss_peak_mb",
           static_cast<double>(smartmeter::PeakRssBytes()) / (1024.0 * 1024.0),
           "MB", "peak resident set of this process (VmHWM)");
  // The success share of the worst-served operation kind, so a workload
  // that mixes kinds (ingest: readings and queries) is not judged by
  // whichever kind its clients happen to issue most of.
  double ok_share = 1.0;
  std::string by_kind;
  for (const auto& [kind, counts] : ops_by_kind_) {
    const double share =
        counts.first > 0 ? static_cast<double>(counts.first - counts.second) /
                               static_cast<double>(counts.first)
                         : 1.0;
    ok_share = std::min(ok_share, share);
    const int64_t ok = counts.first - counts.second;
    by_kind += StringPrintf("; %s %lld/%lld ok", kind.c_str(),
                            static_cast<long long>(ok),
                            static_cast<long long>(counts.first));
  }
  EndToEnd("ok_share", ok_share, "ratio",
           StringPrintf("lowest per-kind success share; failed_share = %lld "
                        "failed / %lld attempted = %.6g",
                        static_cast<long long>(failed_),
                        static_cast<long long>(attempted_),
                        attempted_ > 0 ? static_cast<double>(failed_) /
                                             static_cast<double>(attempted_)
                                       : 0.0) +
               by_kind);
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const std::string& v : violations_) {
    std::printf("CHECK FAILED %s\n", v.c_str());
    std::fprintf(stderr, "CHECK FAILED %s\n", v.c_str());
  }
  if (attempted_ < 1) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  if (args_.trace) {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      if (layers_.count(name) == 0) {
        Layer(name, 0.0, unit, "not exercised by this workload");
        std::printf("%s\n", lines_.back().c_str());
      }
    }
  }
  const std::map<std::string, Metric>& metrics =
      args_.trace ? layers_ : end_to_end_;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "metric %s is not a finite number\n", name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", ResultJson(correct(), attempted_, failed_, metrics)
                          .c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

namespace {

// The CSV writer prints consumption with %.4f and temperature with %.2f.
// Rounding to the same decimal grid first makes every printed value parse
// back to the identical double.
double Quantize(double v, double scale) {
  return static_cast<double>(std::llround(v * scale)) / scale;
}

}  // namespace

Result<MeterDataset> GenerateDataset(uint64_t seed) {
  smartmeter::datagen::SeedGeneratorOptions seed_options;
  seed_options.num_households = 100;
  seed_options.hours = kHours;
  seed_options.seed = seed;
  SM_ASSIGN_OR_RETURN(MeterDataset seed_data,
                      smartmeter::datagen::GenerateSeedDataset(seed_options));
  smartmeter::datagen::DataGeneratorOptions options;
  options.num_clusters = 8;
  options.noise_sigma = 0.08;
  SM_ASSIGN_OR_RETURN(
      smartmeter::datagen::DataGenerator generator,
      smartmeter::datagen::DataGenerator::Train(seed_data, options));
  std::vector<double> temperature = seed_data.temperature();
  for (double& t : temperature) t = Quantize(t, 1e2);
  SM_ASSIGN_OR_RETURN(MeterDataset data,
                      generator.Generate(kHouseholds, temperature, seed + 1));
  for (smartmeter::ConsumerSeries& consumer : *data.mutable_consumers()) {
    for (double& v : consumer.consumption) v = Quantize(v, 1e4);
  }
  return data;
}

int64_t CounterValue(const char* name) {
  return smartmeter::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

Result<Reference> ComputeReference(const MeterDataset& dataset,
                                   const std::vector<core::TaskType>& tasks,
                                   int threads) {
  SM_ASSIGN_OR_RETURN(smartmeter::table::ColumnarBatch batch,
                      smartmeter::table::ColumnarBatch::FromDataset(dataset));
  const size_t n = batch.count();
  Reference ref;
  std::vector<core::SeriesView> views;
  std::vector<double> norms;
  for (const core::TaskType task : tasks) {
    switch (task) {
      case core::TaskType::kHistogram:
        ref.histogram.resize(n);
        break;
      case core::TaskType::kThreeLine:
        ref.three_line.resize(n);
        break;
      case core::TaskType::kPar:
        ref.par.resize(n);
        break;
      case core::TaskType::kSimilarity:
        ref.similarity.resize(n);
        views = core::BuildSeriesViews(batch);
        norms = core::ComputeNorms(views);
        break;
    }
  }
  const engines::TaskOptions defaults[] = {
      engines::TaskOptions::Default(core::TaskType::kHistogram),
      engines::TaskOptions::Default(core::TaskType::kThreeLine),
      engines::TaskOptions::Default(core::TaskType::kPar),
      engines::TaskOptions::Default(core::TaskType::kSimilarity)};
  std::vector<Status> status(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const size_t begin = n * static_cast<size_t>(t) / threads;
      const size_t end = n * static_cast<size_t>(t + 1) / threads;
      Status& st = status[static_cast<size_t>(t)];
      for (const core::TaskType task : tasks) {
        if (!st.ok()) return;
        switch (task) {
          case core::TaskType::kHistogram:
            st = core::ComputeHistogramRange(
                batch, begin, end,
                defaults[0].Get<core::HistogramOptions>(), nullptr,
                ref.histogram);
            break;
          case core::TaskType::kThreeLine:
            st = core::ComputeThreeLineRange(
                batch, begin, end,
                defaults[1].Get<core::ThreeLineOptions>(), nullptr, nullptr,
                ref.three_line);
            break;
          case core::TaskType::kPar:
            st = core::ComputeDailyProfileRange(
                batch, begin, end, defaults[2].Get<core::ParOptions>(),
                nullptr, ref.par);
            break;
          case core::TaskType::kSimilarity: {
            auto part = core::ComputeSimilarityTopKRange(
                views, norms, begin, end,
                defaults[3].Get<engines::SimilarityTaskOptions>().search);
            if (!part.ok()) {
              st = part.status();
              break;
            }
            std::move(part->begin(), part->end(),
                      ref.similarity.begin() + static_cast<ptrdiff_t>(begin));
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& st : status) SM_RETURN_IF_ERROR(st);
  return ref;
}

namespace {

/// One scalar of a result record, for bit-exact comparison.
struct Field {
  const char* name;
  size_t index;
  double value;
};

void AddFit(const char* name, const smartmeter::stats::LinearFit& fit,
            std::vector<Field>* out) {
  out->push_back({name, 0, fit.slope});
  out->push_back({name, 1, fit.intercept});
  out->push_back({name, 2, fit.r_squared});
  out->push_back({name, 3, static_cast<double>(fit.n)});
}

void AddLines(const char* name, const core::PiecewiseLines& lines,
              std::vector<Field>* out) {
  for (const core::LineSegment* s : {&lines.left, &lines.mid, &lines.right}) {
    out->push_back({name, 0, s->t_low});
    out->push_back({name, 1, s->t_high});
    AddFit(name, s->fit, out);
  }
}

void Flatten(const core::HistogramResult& r, std::vector<Field>* out) {
  out->push_back({"household_id", 0, static_cast<double>(r.household_id)});
  out->push_back({"min", 0, r.histogram.min});
  out->push_back({"max", 0, r.histogram.max});
  for (size_t i = 0; i < r.histogram.counts.size(); ++i) {
    out->push_back({"counts", i, static_cast<double>(r.histogram.counts[i])});
  }
}

void Flatten(const core::ThreeLineResult& r, std::vector<Field>* out) {
  out->push_back({"household_id", 0, static_cast<double>(r.household_id)});
  AddLines("p90", r.p90, out);
  AddLines("p10", r.p10, out);
  out->push_back({"heating_gradient", 0, r.heating_gradient});
  out->push_back({"cooling_gradient", 0, r.cooling_gradient});
  out->push_back({"base_load", 0, r.base_load});
}

void Flatten(const core::DailyProfileResult& r, std::vector<Field>* out) {
  out->push_back({"household_id", 0, static_cast<double>(r.household_id)});
  for (size_t i = 0; i < r.profile.size(); ++i) {
    out->push_back({"profile", i, r.profile[i]});
  }
  size_t k = 0;
  for (const std::vector<double>& hour : r.coefficients) {
    for (double c : hour) out->push_back({"coefficients", k++, c});
  }
  for (size_t i = 0; i < r.temperature_beta.size(); ++i) {
    out->push_back({"temperature_beta", i, r.temperature_beta[i]});
  }
}

void Flatten(const core::SimilarityResult& r, std::vector<Field>* out) {
  out->push_back({"household_id", 0, static_cast<double>(r.household_id)});
  for (size_t i = 0; i < r.matches.size(); ++i) {
    out->push_back({"match_id", i,
                    static_cast<double>(r.matches[i].household_id)});
    out->push_back({"match_cosine", i, r.matches[i].cosine});
  }
}

template <typename T>
std::string CompareRecord(const T& actual, const T& expected) {
  std::vector<Field> a;
  std::vector<Field> e;
  Flatten(actual, &a);
  Flatten(expected, &e);
  if (a.size() != e.size()) {
    return StringPrintf("household %lld: %zu result fields, expected %zu",
                        static_cast<long long>(expected.household_id),
                        a.size(), e.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].value, &e[i].value, sizeof(double)) != 0) {
      return StringPrintf(
          "household %lld: %s[%zu] = %.17g, expected %.17g (off by %.3g)",
          static_cast<long long>(expected.household_id), e[i].name,
          e[i].index, a[i].value, e[i].value,
          std::fabs(a[i].value - e[i].value));
    }
  }
  return "";
}

template <typename T>
std::string CompareVectors(const engines::TaskResultSet& actual,
                           const std::vector<T>& expected, size_t first,
                           size_t count) {
  if (actual.empty() || !actual.Holds<T>()) {
    return "result set holds no results of this task";
  }
  const std::vector<T>& got = actual.Get<T>();
  if (got.size() != count) {
    return StringPrintf("%zu results, expected %zu", got.size(), count);
  }
  for (size_t i = 0; i < count; ++i) {
    std::string diff = CompareRecord(got[i], expected[first + i]);
    if (!diff.empty()) return diff;
  }
  return "";
}

std::string CompareRange(const engines::TaskResultSet& actual,
                         const Reference& expected, core::TaskType task,
                         size_t first, size_t count) {
  switch (task) {
    case core::TaskType::kHistogram:
      return CompareVectors(actual, expected.histogram, first, count);
    case core::TaskType::kThreeLine:
      return CompareVectors(actual, expected.three_line, first, count);
    case core::TaskType::kPar:
      return CompareVectors(actual, expected.par, first, count);
    case core::TaskType::kSimilarity:
      return CompareVectors(actual, expected.similarity, first, count);
  }
  return "unknown task";
}

size_t ReferenceSize(const Reference& r, core::TaskType task) {
  switch (task) {
    case core::TaskType::kHistogram:
      return r.histogram.size();
    case core::TaskType::kThreeLine:
      return r.three_line.size();
    case core::TaskType::kPar:
      return r.par.size();
    case core::TaskType::kSimilarity:
      return r.similarity.size();
  }
  return 0;
}

}  // namespace

std::string CompareResults(const engines::TaskResultSet& actual,
                           const Reference& expected, core::TaskType task) {
  return CompareRange(actual, expected, task, 0, ReferenceSize(expected, task));
}

std::string CompareRow(const engines::TaskResultSet& actual,
                       const Reference& expected, core::TaskType task,
                       size_t row) {
  return CompareRange(actual, expected, task, row, 1);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"datagen.generate_s", "s"},
      {"storage.csv_parse_s", "s"},
      {"storage.csv_rows", "count"},
      {"storage.encode_s", "s"},
      {"storage.spool_bytes_per_reading", "bytes"},
      {"table.decode_s", "s"},
      {"table.cache_hits", "count"},
      {"table.cache_misses", "count"},
      {"table.scoped_scan_s", "s"},
      {"table.blocks_decoded_per_query", "count"},
      {"table.bytes_decoded_per_query", "bytes"},
      {"table.delta.append_s", "s"},
      {"table.delta.snapshot_s", "s"},
      {"table.delta.refresh_s", "s"},
      {"table.delta.scoped_scan_s", "s"},
      {"table.delta.rejected", "count"},
      {"core.histogram_s", "s"},
      {"core.par_s", "s"},
      {"core.similarity_s", "s"},
      {"core.threeline.quantile_s", "s"},
      {"core.threeline.regression_s", "s"},
      {"core.threeline.adjust_s", "s"},
      {"core.threeline.band_points", "count"},
      {"core.query_kernel_s", "s"},
      {"exec.plan_overhead_s", "s"},
      {"exec.threadpool.tasks_stolen", "count"},
      {"exec.threadpool.tasks_completed", "count"},
      {"exec.serving.submit_s", "s"},
      {"exec.serving.queue_s", "s"},
      {"exec.serving.run_s", "s"},
      {"exec.serving.gather_s", "s"},
      {"exec.serving.peak_queue_depth", "count"},
      {"exec.serving.shed", "count"},
      {"exec.serving.failed", "count"},
      {"streaming.process_s", "s"},
      {"streaming.readings_late", "count"},
      {"ingest.generator_lag_p99_s", "s"},
      {"trace.overhead_share", "ratio"},
      {"trace.accounted_share", "ratio"},
  };
  return kUnits;
}

std::string FreshDir(const RunContext& run, const std::string& name) {
  const std::string dir = run.args().workdir + "/" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

QueryWindow CalmestQueryWindow(const std::vector<TimedSample>& samples,
                               double span) {
  const size_t by_samples = samples.size() / kSamplesPerSubWindow;
  const size_t by_time = static_cast<size_t>(span / kMinSubWindowSeconds);
  const int windows =
      static_cast<int>(std::max<size_t>(1, std::min(by_samples, by_time)));
  QueryWindow out;
  const std::vector<WindowStats> all = SplitWindows(samples, span, windows);
  out.calm = CalmestWindow(all);
  out.windows = all.size();
  out.samples = samples.size();
  return out;
}

std::string FormatWindow(const QueryWindow& window, const std::string& unit) {
  const WindowStats& w = window.calm;
  return StringPrintf(
      "calmest of %zu sub-windows (#%zu): median %.6g %s, p%g %.6g %s, "
      "%.6g/s, n=%zu in that window, %zu in the run",
      window.windows, w.index, w.median, unit.c_str(), w.tail.percentile,
      w.tail.value, unit.c_str(), w.rate, w.tail.samples, window.samples);
}

std::string FormatSummary(const Summary& summary, const std::string& unit) {
  std::string spread;
  if (summary.samples() >= 2) {
    spread = StringPrintf(", quartiles %.6g..%.6g", summary.quartiles.q1,
                          summary.quartiles.q3);
  }
  if (summary.tail.supported()) {
    return StringPrintf("median %.6g %s%s, p%g %.6g %s, n=%zu", summary.median,
                        unit.c_str(), spread.c_str(), summary.tail.percentile,
                        summary.tail.value, unit.c_str(), summary.samples());
  }
  return StringPrintf(
      "median %.6g %s%s, max %.6g %s, n=%zu (no percentile keeps 10 samples "
      "beyond it)",
      summary.median, unit.c_str(), spread.c_str(), summary.tail.value,
      unit.c_str(), summary.samples());
}

}  // namespace smbench
