#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/block_store.h"
#include "datagen/seed_generator.h"
#include "engines/engine_factory.h"
#include "engines/hive_engine.h"
#include "engines/madlib_engine.h"
#include "engines/matlab_engine.h"
#include "engines/spark_engine.h"
#include "engines/systemc_engine.h"
#include "obs/metrics.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "storage/row_store.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"
#include "table/columnar_cache.h"
#include "table/data_source.h"
#include "table/delta_store.h"
#include "table/table_reader.h"
#include "timeseries/calendar.h"

namespace smartmeter {
namespace {

namespace fs = std::filesystem;

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Bit-exact equality between two batch views: same households, same
/// consumption doubles, same temperature column. This is the data-plane
/// guarantee — every storage backend feeds the kernels identical bytes.
void ExpectBatchesBitExact(const table::ColumnarBatch& got,
                           const table::ColumnarBatch& want,
                           const char* label) {
  ASSERT_EQ(got.count(), want.count()) << label;
  ASSERT_EQ(got.hours(), want.hours()) << label;
  for (size_t i = 0; i < got.count(); ++i) {
    ASSERT_EQ(got.household_id(i), want.household_id(i))
        << label << " household index " << i;
    const table::SeriesSlice a = got.consumption(i);
    const table::SeriesSlice b = want.consumption(i);
    ASSERT_EQ(a.size(), b.size());
    for (size_t h = 0; h < a.size(); ++h) {
      ASSERT_EQ(a[h], b[h]) << label << " household " << got.household_id(i)
                            << " hour " << h;
    }
  }
  const table::SeriesSlice ta = got.temperature();
  const table::SeriesSlice tb = want.temperature();
  ASSERT_EQ(ta.size(), tb.size()) << label;
  for (size_t h = 0; h < ta.size(); ++h) {
    ASSERT_EQ(ta[h], tb[h]) << label << " temperature hour " << h;
  }
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "table_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static MeterDataset SmallDataset(int households, size_t hours,
                                   uint64_t seed) {
    datagen::SeedGeneratorOptions options;
    options.num_households = households;
    options.hours = hours;
    options.seed = seed;
    auto dataset = datagen::GenerateSeedDataset(options);
    EXPECT_TRUE(dataset.ok());
    return std::move(*dataset);
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Storage round-trip parity (satellite: bit-exact across every backend)
// ---------------------------------------------------------------------------

TEST_F(TableTest, AllBackendsYieldBitExactSeriesViews) {
  const MeterDataset dataset = SmallDataset(6, 7 * 24, 91);
  const std::string csv_path = (dir_ / "data.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(dataset, csv_path).ok());
  auto source = table::DataSource::SingleCsv(csv_path);
  ASSERT_TRUE(source.ok());

  // Reference: the plain CSV parse.
  table::CsvTableReader csv_reader(*source);
  ASSERT_TRUE(csv_reader.Open().ok());
  auto csv_batch = csv_reader.NewBatch();
  ASSERT_TRUE(csv_batch.ok());
  ASSERT_FALSE(csv_batch->contiguous());

  // Columnar cache (cold build then mmap).
  table::ColumnarCache cache((dir_ / "cache").string());
  auto cached_reader = cache.OpenOrBuild(*source);
  ASSERT_TRUE(cached_reader.ok()) << cached_reader.status().ToString();
  auto cached_batch = (*cached_reader)->NewBatch();
  ASSERT_TRUE(cached_batch.ok());
  ASSERT_TRUE(cached_batch->contiguous());
  ExpectBatchesBitExact(*cached_batch, *csv_batch, "columnar-cache");

  // Row store (heap file + B+-tree) loaded from the same CSV.
  storage::RowStore row_store((dir_ / "rows.heap").string());
  ASSERT_TRUE(row_store.LoadFromCsv(csv_path).ok());
  ASSERT_TRUE(row_store.FinishLoad().ok());
  table::RowStoreReader row_reader(&row_store);
  ASSERT_TRUE(row_reader.Open().ok());
  auto row_batch = row_reader.NewBatch();
  ASSERT_TRUE(row_batch.ok());
  ExpectBatchesBitExact(*row_batch, *csv_batch, "row-store");

  // Array store serialized from the parsed dataset.
  storage::ArrayStore array_store((dir_ / "rows.array").string());
  ASSERT_TRUE(array_store.LoadFromDataset(csv_reader.dataset()).ok());
  table::ArrayStoreReader array_reader(&array_store);
  ASSERT_TRUE(array_reader.Open().ok());
  auto array_batch = array_reader.NewBatch();
  ASSERT_TRUE(array_batch.ok());
  ExpectBatchesBitExact(*array_batch, *csv_batch, "array-store");

  // Simulated-HDFS block store over the same file.
  cluster::BlockStore block_store(/*num_nodes=*/3, /*block_bytes=*/4 << 10);
  ASSERT_TRUE(block_store.AddFile(csv_path).ok());
  table::BlockStoreReader block_reader(&block_store, /*splittable=*/true);
  ASSERT_TRUE(block_reader.Open().ok());
  auto block_batch = block_reader.NewBatch();
  ASSERT_TRUE(block_batch.ok());
  ExpectBatchesBitExact(*block_batch, *csv_batch, "block-store");

  // Borrowed in-memory dataset.
  table::DatasetReader dataset_reader(&csv_reader.dataset());
  ASSERT_TRUE(dataset_reader.Open().ok());
  auto dataset_batch = dataset_reader.NewBatch();
  ASSERT_TRUE(dataset_batch.ok());
  ExpectBatchesBitExact(*dataset_batch, *csv_batch, "dataset");
}

// ---------------------------------------------------------------------------
// Columnar cache behaviour
// ---------------------------------------------------------------------------

TEST_F(TableTest, CacheMissesThenHits) {
  const MeterDataset dataset = SmallDataset(4, 48, 7);
  const std::string csv_path = (dir_ / "data.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(dataset, csv_path).ok());
  auto source = table::DataSource::SingleCsv(csv_path);
  ASSERT_TRUE(source.ok());

  table::ColumnarCache cache((dir_ / "cache").string());
  const int64_t misses_before = CounterValue("table.cache.misses");
  const int64_t hits_before = CounterValue("table.cache.hits");

  auto cold = cache.OpenOrBuild(*source);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(CounterValue("table.cache.misses"), misses_before + 1);
  EXPECT_EQ(CounterValue("table.cache.hits"), hits_before);

  auto warm = cache.OpenOrBuild(*source);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CounterValue("table.cache.misses"), misses_before + 1);
  EXPECT_EQ(CounterValue("table.cache.hits"), hits_before + 1);

  auto cold_batch = (*cold)->NewBatch();
  auto warm_batch = (*warm)->NewBatch();
  ASSERT_TRUE(cold_batch.ok());
  ASSERT_TRUE(warm_batch.ok());
  ExpectBatchesBitExact(*warm_batch, *cold_batch, "warm-vs-cold");
}

TEST_F(TableTest, CacheKeyTracksSourceIdentity) {
  const MeterDataset dataset = SmallDataset(4, 48, 7);
  const std::string csv_path = (dir_ / "data.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(dataset, csv_path).ok());
  auto source = table::DataSource::SingleCsv(csv_path);
  ASSERT_TRUE(source.ok());

  table::ColumnarCache cache((dir_ / "cache").string());
  auto first = cache.CacheFilePath(*source);
  ASSERT_TRUE(first.ok());

  // Rewriting the source with different contents (different byte size)
  // must map to a different cache entry; the stale one is never read.
  const MeterDataset bigger = SmallDataset(5, 48, 8);
  ASSERT_TRUE(storage::WriteReadingsCsv(bigger, csv_path).ok());
  auto second = cache.CacheFilePath(*source);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
}

TEST_F(TableTest, CacheKeyChangesOnSameSizeSameMtimeRewrite) {
  // Filesystem mtimes can tick in whole seconds: a source regenerated
  // within one tick keeps the same path, size, AND mtime, which the old
  // key collapsed to the stale entry. Simulate the tick deterministically
  // by rewriting same-length content and pinning the timestamp back.
  const std::string csv_path = (dir_ / "tick.csv").string();
  const auto write_file = [&csv_path](const std::string& body) {
    FILE* f = fopen(csv_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs(body.c_str(), f);
    fclose(f);
  };
  const std::string before = "1,0,1.0000,10.00\n1,1,2.0000,11.00\n";
  const std::string after = "1,0,3.0000,10.00\n1,1,4.0000,11.00\n";
  ASSERT_EQ(before.size(), after.size());
  write_file(before);
  auto source = table::DataSource::SingleCsv(csv_path);
  ASSERT_TRUE(source.ok());
  table::ColumnarCache cache((dir_ / "cache").string());
  const fs::file_time_type mtime = fs::last_write_time(csv_path);
  auto first = cache.CacheFilePath(*source);
  ASSERT_TRUE(first.ok());

  write_file(after);
  fs::last_write_time(csv_path, mtime);
  auto second = cache.CacheFilePath(*source);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
}

TEST_F(TableTest, ColumnFileReaderRejectsCorruptFile) {
  const std::string path = (dir_ / "bad.smcol").string();
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a column file", f);
  fclose(f);
  table::ColumnFileReader reader(path);
  EXPECT_EQ(reader.Open().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Batch shape checks
// ---------------------------------------------------------------------------

TEST_F(TableTest, FromSlicesRejectsRaggedSeries) {
  std::vector<double> a(24, 1.0);
  std::vector<double> b(23, 1.0);
  std::vector<table::SeriesSlice> series = {table::SeriesSlice(a),
                                            table::SeriesSlice(b)};
  auto batch = table::ColumnarBatch::FromSlices({1, 2}, std::move(series), {});
  EXPECT_FALSE(batch.ok());
}

TEST_F(TableTest, FromContiguousRejectsShapeMismatch) {
  std::vector<int64_t> ids = {1, 2};
  std::vector<double> column(47, 0.0);  // Not 2 * 24.
  auto batch =
      table::ColumnarBatch::FromContiguous(ids, column, {}, /*hours=*/24);
  EXPECT_FALSE(batch.ok());
}

TEST_F(TableTest, FromContiguousZeroHoursGivesEmptyRows) {
  // Households but no hours: every row is a valid zero-length series,
  // through the batch itself, a view, and a slice.
  std::vector<int64_t> ids = {1, 2, 3};
  auto batch = table::ColumnarBatch::FromContiguous(ids, {}, {}, /*hours=*/0);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->Validate().ok());
  ASSERT_EQ(batch->count(), 3u);
  EXPECT_EQ(batch->hours(), 0u);
  EXPECT_TRUE(batch->contiguous());
  EXPECT_TRUE(batch->consumption_column().empty());
  for (size_t i = 0; i < batch->count(); ++i) {
    EXPECT_TRUE(batch->consumption(i).empty());
    EXPECT_EQ(batch->household_id(i), ids[i]);
  }
  const table::ColumnarBatch view = batch->View();
  EXPECT_TRUE(view.Validate().ok());
  EXPECT_TRUE(view.consumption(2).empty());
  auto slice = batch->Slice(1, 2);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->count(), 2u);
  EXPECT_EQ(slice->household_id(0), 2);
  EXPECT_TRUE(slice->consumption(1).empty());
  EXPECT_TRUE(slice->Validate().ok());
}

// ---------------------------------------------------------------------------
// SMCOLV2 round-trips, scoped decode, and cache bounding
// ---------------------------------------------------------------------------

TEST_F(TableTest, V1AndV2ColumnFilesDecodeBitExact) {
  const MeterDataset dataset = SmallDataset(6, 7 * 24, 91);
  const std::string v1_path = (dir_ / "data.v1.smcol").string();
  const std::string v2_path = (dir_ / "data.v2.smcol").string();
  ASSERT_TRUE(storage::ColumnStore::WriteFile(dataset, v1_path).ok());
  ASSERT_TRUE(storage::ColumnFileWriter::WriteFile(dataset, v2_path).ok());
  ASSERT_EQ(*storage::SniffColumnFileFormat(v1_path), 1);
  ASSERT_EQ(*storage::SniffColumnFileFormat(v2_path), 2);

  table::ColumnFileReader v1(v1_path);
  table::ColumnFileReader v2(v2_path);
  ASSERT_TRUE(v1.Open().ok());
  const Status v2_open = v2.Open();
  ASSERT_TRUE(v2_open.ok()) << v2_open.ToString();
  EXPECT_EQ(v1.format_version(), 1);
  EXPECT_EQ(v2.format_version(), 2);

  auto v1_batch = v1.NewBatch();
  auto v2_batch = v2.NewBatch();
  ASSERT_TRUE(v1_batch.ok());
  ASSERT_TRUE(v2_batch.ok());
  ExpectBatchesBitExact(*v2_batch, *v1_batch, "smcolv2-vs-smcolv1");

  // V1 opens by pure mmap (nothing decoded); V2 reports its decode work.
  EXPECT_EQ(v1.open_stats().blocks_decoded, 0);
  EXPECT_GT(v2.open_stats().blocks_decoded, 0);
  EXPECT_GT(v2.open_stats().bytes_on_disk, 0);
  EXPECT_GT(v2.open_stats().bytes_decoded, v2.open_stats().bytes_on_disk / 8);
}

TEST_F(TableTest, ColumnFileEdgeShapesRoundTrip) {
  // Shapes that stress the block cutter: a single household, series whose
  // value count is not a multiple of the block size, and one household
  // per block boundary. block_values=7 keeps blocks tiny at test scale.
  struct Shape {
    int households;
    size_t hours;
  };
  const Shape shapes[] = {{1, 24}, {5, 25}, {3, 31}, {2, 48}};
  int index = 0;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(testing::Message() << shape.households << " households x "
                                    << shape.hours << " hours");
    const MeterDataset dataset =
        SmallDataset(shape.households, shape.hours, 100 + index);
    const std::string path =
        (dir_ / ("edge" + std::to_string(index++) + ".smcol")).string();
    ASSERT_TRUE(
        storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/7)
            .ok());
    table::ColumnFileReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    auto batch = reader.NewBatch();
    ASSERT_TRUE(batch.ok());
    auto want = table::ColumnarBatch::FromDataset(dataset);
    ASSERT_TRUE(want.ok());
    ExpectBatchesBitExact(*batch, *want, "edge-shape");
  }
}

TEST_F(TableTest, EmptyColumnFileRoundTrips) {
  // Zero households is a legal file: temperature and the (empty) footer
  // index still round-trip.
  const std::string path = (dir_ / "empty.smcol").string();
  std::vector<double> temperature(24, 15.5);
  storage::ColumnFileWriter writer(path);
  ASSERT_TRUE(writer.Open(temperature.size()).ok());
  ASSERT_TRUE(writer.Finish(temperature).ok());

  table::ColumnFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.format_version(), 2);
  auto batch = reader.NewBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->count(), 0u);
  ASSERT_EQ(batch->temperature().size(), temperature.size());
  for (size_t h = 0; h < temperature.size(); ++h) {
    EXPECT_EQ(batch->temperature()[h], temperature[h]);
  }
}

TEST_F(TableTest, ScopedBatchMatchesSlicedFullBatchAndPrunes) {
  const MeterDataset dataset = SmallDataset(8, 48, 17);
  const std::string path = (dir_ / "scoped.smcol").string();
  // Small blocks so an 8-household table spans many blocks and a scoped
  // read has something to prune.
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  table::ColumnFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  auto full = reader.NewBatch();
  ASSERT_TRUE(full.ok());

  storage::ScanScope scope;
  scope.row_begin = 3;
  scope.row_count = 2;
  auto scoped = reader.NewScopedBatch(scope);
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  auto want = full->Slice(scope.row_begin, scope.row_count);
  ASSERT_TRUE(want.ok());
  ExpectBatchesBitExact(scoped->batch, *want, "scoped-vs-sliced");

  // The block index must have done real work: some blocks pruned, fewer
  // decoded than exist, and the counts partition the total.
  EXPECT_GT(scoped->stats.blocks_pruned, 0);
  EXPECT_GT(scoped->stats.blocks_decoded, 0);
  EXPECT_LT(scoped->stats.blocks_decoded, scoped->stats.blocks_total);
  EXPECT_EQ(scoped->stats.blocks_decoded + scoped->stats.blocks_pruned,
            scoped->stats.blocks_total);
}

TEST_F(TableTest, ScopedHourWindowDecodesWindowOnly) {
  const MeterDataset dataset = SmallDataset(4, 48, 29);
  const std::string path = (dir_ / "hour_window.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  table::ColumnFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  auto full = reader.NewBatch();
  ASSERT_TRUE(full.ok());

  storage::ScanScope scope;
  scope.hour_begin = 12;
  scope.hour_count = 8;
  auto scoped = reader.NewScopedBatch(scope);
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  ASSERT_EQ(scoped->batch.count(), full->count());
  ASSERT_EQ(scoped->batch.hours(), scope.hour_count);
  for (size_t i = 0; i < full->count(); ++i) {
    const table::SeriesSlice got = scoped->batch.consumption(i);
    const table::SeriesSlice all = full->consumption(i);
    for (size_t h = 0; h < scope.hour_count; ++h) {
      ASSERT_EQ(got[h], all[scope.hour_begin + h])
          << "household " << i << " window hour " << h;
    }
  }
  ASSERT_EQ(scoped->batch.temperature().size(), scope.hour_count);
  for (size_t h = 0; h < scope.hour_count; ++h) {
    EXPECT_EQ(scoped->batch.temperature()[h],
              full->temperature()[scope.hour_begin + h]);
  }
}

TEST_F(TableTest, ResidentScopedBatchMatchesDecodeScoped) {
  // 9 households x 30 hours in 16-value blocks: consumption blocks
  // straddle household boundaries and every column spans several blocks.
  const MeterDataset dataset = SmallDataset(9, 30, 41);
  const std::string path = (dir_ / "oracle.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  table::ColumnFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const storage::CompressedColumnFile& file = *reader.compressed();

  const auto make_scope = [](size_t row_begin, size_t row_count,
                             size_t hour_begin, size_t hour_count) {
    storage::ScanScope scope;
    scope.row_begin = row_begin;
    scope.row_count = row_count;
    scope.hour_begin = hour_begin;
    scope.hour_count = hour_count;
    return scope;
  };
  std::vector<storage::ScanScope> scopes = {
      make_scope(0, 0, 0, 0),     // whole table
      make_scope(20, 3, 0, 0),    // rows past the end: empty
      make_scope(20, 3, 4, 6),    // empty rows, hour window
      make_scope(7, 50, 0, 0),    // row count clamped
      make_scope(4, 1, 0, 0),     // single row
      make_scope(1, 2, 0, 0),     // rows straddling a block boundary
      make_scope(0, 0, 10, 11),   // hour window straddling blocks
      make_scope(3, 1, 28, 9),    // single row, clamped window
      make_scope(2, 4, 40, 2),    // window past the end: zero hours
      make_scope(5, 0, 15, 1),    // single hour, rows through the end
  };
  std::mt19937_64 rng(2015);
  for (int i = 0; i < 200; ++i) {
    scopes.push_back(make_scope(rng() % 12, rng() % 12, rng() % 34,
                                rng() % 34));
  }

  for (const storage::ScanScope& scope : scopes) {
    SCOPED_TRACE(testing::Message()
                 << "rows " << scope.row_begin << "+" << scope.row_count
                 << " hours " << scope.hour_begin << "+" << scope.hour_count);
    std::vector<int64_t> ids;
    std::vector<double> consumption;
    std::vector<double> temperature;
    storage::ScanStats want_stats;
    ASSERT_TRUE(file.DecodeScoped(scope, &ids, &consumption, &temperature,
                                  &want_stats)
                    .ok());
    const size_t window =
        scope.HourEnd(file.hours()) - scope.HourBegin(file.hours());

    auto got = reader.NewScopedBatch(scope);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_NE(got->owner, nullptr);
    // Compared against the dense decoded rectangle directly: a batch view
    // of it would lose the rows of a zero-hour window.
    const table::ColumnarBatch& batch = got->batch;
    ASSERT_EQ(batch.count(), ids.size());
    ASSERT_EQ(batch.hours(), window);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(batch.household_id(i), ids[i]);
      const table::SeriesSlice series = batch.consumption(i);
      ASSERT_EQ(series.size(), window);
      for (size_t h = 0; h < window; ++h) {
        ASSERT_EQ(series[h], consumption[i * window + h])
            << "row " << i << " hour " << h;
      }
    }
    ASSERT_EQ(batch.temperature().size(), temperature.size());
    for (size_t h = 0; h < temperature.size(); ++h) {
      ASSERT_EQ(batch.temperature()[h], temperature[h]) << "hour " << h;
    }
    EXPECT_EQ(got->stats.blocks_total, want_stats.blocks_total);
    EXPECT_EQ(got->stats.blocks_decoded, want_stats.blocks_decoded);
    EXPECT_EQ(got->stats.blocks_pruned, want_stats.blocks_pruned);
    EXPECT_EQ(got->stats.bytes_on_disk, want_stats.bytes_on_disk);
    EXPECT_EQ(got->stats.bytes_decoded, want_stats.bytes_decoded);
  }
}

TEST_F(TableTest, ReadersOfOneFileShareOneImage) {
  const MeterDataset dataset = SmallDataset(5, 48, 43);
  const std::string path = (dir_ / "shared.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  const int64_t decoded0 = CounterValue("table.scan.blocks_decoded");
  const int64_t shared0 = CounterValue("table.image.shared_opens");

  auto first = std::make_unique<table::ColumnFileReader>(path);
  auto second = std::make_unique<table::ColumnFileReader>(path);
  ASSERT_TRUE(first->Open().ok());
  ASSERT_TRUE(second->Open().ok());
  const int64_t file_blocks = first->open_stats().blocks_decoded;
  EXPECT_GT(file_blocks, 0);
  EXPECT_EQ(second->open_stats().blocks_decoded, 0);
  EXPECT_EQ(second->open_stats().bytes_decoded, 0);
  EXPECT_EQ(CounterValue("table.image.shared_opens") - shared0, 1);

  auto a = first->NewBatch();
  auto b = second->NewBatch();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->consumption_column().data(), b->consumption_column().data());
  EXPECT_EQ(a->household_ids().data(), b->household_ids().data());

  table::ColumnFileReader third(path);
  {
    // Scans of the resident image decode nothing, so the decode counter
    // holds at the one decode of the first Open().
    storage::ScanScope scope;
    scope.row_begin = 1;
    scope.row_count = 2;
    auto scoped = second->NewScopedBatch(scope);
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(scoped->batch.consumption_column().data(),
              a->consumption_column().data() + 1 * 48);
    EXPECT_TRUE(second->NewScopedBatch(storage::ScanScope{}).ok());
    EXPECT_EQ(CounterValue("table.scan.blocks_decoded") - decoded0,
              file_blocks);

    // The scoped batch's owner keeps the image alive past both readers,
    // so a re-open still shares it.
    a = table::ColumnarBatch();
    b = table::ColumnarBatch();
    first.reset();
    second.reset();
    ASSERT_TRUE(third.Open().ok());
    EXPECT_EQ(third.open_stats().blocks_decoded, 0);
    auto again = third.NewScopedBatch(scope);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->batch.consumption_column().data(),
              scoped->batch.consumption_column().data());
  }

  // Once the last holder is gone, the next Open() decodes again.
  ASSERT_TRUE(third.Open().ok());
  EXPECT_EQ(third.open_stats().blocks_decoded, file_blocks);
  EXPECT_EQ(CounterValue("table.scan.blocks_decoded") - decoded0,
            2 * file_blocks);
}

TEST_F(TableTest, SamePathRewrittenAtSameSizeIsNotShared) {
  // One household per block: swapping two households' series reorders
  // the consumption blocks, so the file keeps its size and header while
  // its content (and footer) change.
  const size_t hours = 24;
  const MeterDataset before = SmallDataset(4, hours, 47);
  MeterDataset after;
  after.SetTemperature(before.temperature());
  for (size_t i = 0; i < before.num_consumers(); ++i) {
    const size_t from = i < 2 ? 1 - i : i;
    after.AddConsumer({before.consumer(i).household_id,
                       before.consumer(from).consumption});
  }
  const std::string path = (dir_ / "rewritten.smcol").string();
  const std::string next = (dir_ / "rewritten.tmp").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(before, path, hours).ok());
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(after, next, hours).ok());
  ASSERT_EQ(fs::file_size(path), fs::file_size(next));

  table::ColumnFileReader old_reader(path);
  ASSERT_TRUE(old_reader.Open().ok());
  fs::rename(next, path);
  table::ColumnFileReader new_reader(path);
  ASSERT_TRUE(new_reader.Open().ok());
  EXPECT_GT(new_reader.open_stats().blocks_decoded, 0);

  auto old_batch = old_reader.NewBatch();
  auto new_batch = new_reader.NewBatch();
  auto want_old = table::ColumnarBatch::FromDataset(before);
  auto want_new = table::ColumnarBatch::FromDataset(after);
  ASSERT_TRUE(old_batch.ok() && new_batch.ok());
  ASSERT_TRUE(want_old.ok() && want_new.ok());
  ExpectBatchesBitExact(*old_batch, *want_old, "before-rewrite");
  ExpectBatchesBitExact(*new_batch, *want_new, "after-rewrite");
}

TEST_F(TableTest, CorruptCopyFailsWhileIntactImageIsLive) {
  const MeterDataset dataset = SmallDataset(4, 48, 53);
  const std::string path = (dir_ / "intact.smcol").string();
  const std::string copy = (dir_ / "flipped.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  table::ColumnFileReader intact(path);
  ASSERT_TRUE(intact.Open().ok());

  // Flip one byte of the first block's payload (the 48-byte header ends
  // where the data section begins); header and footer stay valid, so the
  // copy has the intact file's content key.
  fs::copy_file(path, copy);
  {
    std::fstream f(copy, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(60);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(60);
    f.write(&byte, 1);
  }
  const int64_t shared0 = CounterValue("table.image.shared_opens");
  table::ColumnFileReader corrupt(copy);
  EXPECT_EQ(corrupt.Open().code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue("table.image.shared_opens"), shared0);

  auto batch = intact.NewBatch();
  auto want = table::ColumnarBatch::FromDataset(dataset);
  ASSERT_TRUE(batch.ok() && want.ok());
  ExpectBatchesBitExact(*batch, *want, "intact-after-corrupt-open");
}

TEST_F(TableTest, ConcurrentOpensShareOneImage) {
  const MeterDataset dataset = SmallDataset(6, 96, 59);
  const std::string path = (dir_ / "concurrent.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, path, /*block_values=*/16)
          .ok());
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<table::ColumnFileReader>> readers;
  for (int i = 0; i < kThreads; ++i) {
    readers.push_back(std::make_unique<table::ColumnFileReader>(path));
  }
  std::vector<Status> opened(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&readers, &opened, i] {
      opened[static_cast<size_t>(i)] =
          readers[static_cast<size_t>(i)]->Open();
    });
  }
  for (std::thread& t : threads) t.join();

  int decoders = 0;
  const double* column = nullptr;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(opened[static_cast<size_t>(i)].ok());
    const table::ColumnFileReader& reader = *readers[static_cast<size_t>(i)];
    if (reader.open_stats().blocks_decoded > 0) ++decoders;
    auto batch = reader.NewBatch();
    ASSERT_TRUE(batch.ok());
    if (column == nullptr) column = batch->consumption_column().data();
    EXPECT_EQ(batch->consumption_column().data(), column);
  }
  EXPECT_EQ(decoders, 1);
}

TEST_F(TableTest, CacheEvictsLruUnderByteBudget) {
  const MeterDataset first = SmallDataset(4, 48, 7);
  const MeterDataset second = SmallDataset(5, 48, 8);
  const std::string first_csv = (dir_ / "first.csv").string();
  const std::string second_csv = (dir_ / "second.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(first, first_csv).ok());
  ASSERT_TRUE(storage::WriteReadingsCsv(second, second_csv).ok());
  auto first_source = table::DataSource::SingleCsv(first_csv);
  auto second_source = table::DataSource::SingleCsv(second_csv);
  ASSERT_TRUE(first_source.ok());
  ASSERT_TRUE(second_source.ok());

  // A 1-byte budget holds at most the just-installed entry, so the second
  // miss must evict the first entry's file.
  table::ColumnarCache::Options options;
  options.byte_budget = 1;
  table::ColumnarCache cache((dir_ / "cache").string(), options);
  const int64_t evictions_before = CounterValue("table.cache.evictions");

  auto one = cache.OpenOrBuild(*first_source);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto first_path = cache.CacheFilePath(*first_source);
  ASSERT_TRUE(first_path.ok());
  ASSERT_TRUE(fs::exists(*first_path));

  auto two = cache.OpenOrBuild(*second_source);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(CounterValue("table.cache.evictions"), evictions_before + 1);
  EXPECT_FALSE(fs::exists(*first_path));
  auto second_path = cache.CacheFilePath(*second_source);
  ASSERT_TRUE(second_path.ok());
  EXPECT_TRUE(fs::exists(*second_path));
}

TEST_F(TableTest, CacheSpoolsRequestedFormatWithBitExactBatches) {
  const MeterDataset dataset = SmallDataset(5, 72, 13);
  const std::string csv_path = (dir_ / "data.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(dataset, csv_path).ok());
  auto source = table::DataSource::SingleCsv(csv_path);
  ASSERT_TRUE(source.ok());

  table::CsvTableReader csv_reader(*source);
  ASSERT_TRUE(csv_reader.Open().ok());
  auto reference = csv_reader.NewBatch();
  ASSERT_TRUE(reference.ok());

  const table::ColumnarCache::Format formats[] = {
      table::ColumnarCache::Format::kV1, table::ColumnarCache::Format::kV2};
  for (table::ColumnarCache::Format format : formats) {
    const int expect_version =
        format == table::ColumnarCache::Format::kV1 ? 1 : 2;
    SCOPED_TRACE(testing::Message() << "format v" << expect_version);
    table::ColumnarCache::Options options;
    options.format = format;
    table::ColumnarCache cache(
        (dir_ / ("cache_v" + std::to_string(expect_version))).string(),
        options);
    auto reader = cache.OpenOrBuild(*source);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto cache_path = cache.CacheFilePath(*source);
    ASSERT_TRUE(cache_path.ok());
    auto sniffed = storage::SniffColumnFileFormat(*cache_path);
    ASSERT_TRUE(sniffed.ok());
    EXPECT_EQ(*sniffed, expect_version);
    auto batch = (*reader)->NewBatch();
    ASSERT_TRUE(batch.ok());
    ExpectBatchesBitExact(*batch, *reference, "cache-spool-format");
  }
}

// ---------------------------------------------------------------------------
// Delta layer: merge shapes, write rules, snapshot stability
// ---------------------------------------------------------------------------

TEST_F(TableTest, DeltaOnlyHouseholdsWithoutBase) {
  // Empty base: the store never sees AttachBase, every row is opened by
  // its first live reading. Published slots no writer filled read 0.0.
  table::DeltaStore store;
  ASSERT_TRUE(store.Append(42, 0, 1.5, 10.0).ok());
  ASSERT_TRUE(store.Append(42, 2, 2.5, 12.0).ok());  // hour 1 is a gap
  ASSERT_TRUE(store.Append(7, 1, 9.0, 99.0).ok());   // second delta-only row

  table::DeltaTableReader reader(&store);
  auto pre_open = reader.NewBatch();
  ASSERT_FALSE(pre_open.ok());
  EXPECT_EQ(pre_open.status().code(), StatusCode::kInternal);
  ASSERT_TRUE(reader.Open().ok());
  auto batch = reader.NewBatch();
  ASSERT_TRUE(batch.ok());

  ASSERT_EQ(batch->count(), 2u);
  ASSERT_EQ(batch->hours(), 3u);
  EXPECT_EQ(batch->household_id(0), 42);  // first-append order
  EXPECT_EQ(batch->household_id(1), 7);
  const table::SeriesSlice first = batch->consumption(0);
  EXPECT_EQ(first[0], 1.5);
  EXPECT_EQ(first[1], 0.0);  // gap rule: unwritten published slot
  EXPECT_EQ(first[2], 2.5);
  const table::SeriesSlice second = batch->consumption(1);
  EXPECT_EQ(second[0], 0.0);
  EXPECT_EQ(second[1], 9.0);
  EXPECT_EQ(second[2], 0.0);
  // First writer of each hour fixes the shared temperature column.
  const table::SeriesSlice temps = batch->temperature();
  EXPECT_EQ(temps[0], 10.0);
  EXPECT_EQ(temps[1], 99.0);
  EXPECT_EQ(temps[2], 12.0);
}

TEST_F(TableTest, DeltaAppendsMergeContiguouslyWithBase) {
  // Base + delta must read as one uninterrupted series per household,
  // bit-exact against a monolithic batch over the same values. The base
  // is the first 48 hours of a 50-hour dataset; the last two hours
  // arrive as live appends.
  const MeterDataset grown = SmallDataset(4, 50, 17);
  std::vector<int64_t> base_ids;
  std::vector<table::SeriesSlice> base_series;
  for (size_t i = 0; i < grown.num_consumers(); ++i) {
    base_ids.push_back(grown.consumer(i).household_id);
    base_series.emplace_back(grown.consumer(i).consumption.data(), 48);
  }
  auto base = table::ColumnarBatch::FromSlices(
      base_ids, base_series,
      table::SeriesSlice(grown.temperature().data(), 48));
  ASSERT_TRUE(base.ok());

  table::DeltaStore store;
  ASSERT_TRUE(store.AttachBase(*base).ok());
  EXPECT_EQ(store.base_hours(), 48u);
  EXPECT_EQ(store.rows(), 4u);

  // Re-attaching once rows exist must be rejected cleanly.
  auto again = store.AttachBase(*base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);

  // Two live hours for every base household, plus one delta-only row.
  for (size_t i = 0; i < grown.num_consumers(); ++i) {
    const auto& consumer = grown.consumer(i);
    for (int64_t h = 48; h < 50; ++h) {
      ASSERT_TRUE(store
                      .Append(consumer.household_id, h,
                              consumer.consumption[static_cast<size_t>(h)],
                              grown.temperature()[static_cast<size_t>(h)])
                      .ok());
    }
  }
  ASSERT_TRUE(store.Append(9999, 49, 3.25, 0.0).ok());

  table::DeltaTableReader reader(&store);
  ASSERT_TRUE(reader.Open().ok());
  auto merged = reader.NewBatch();
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->count(), 5u);
  ASSERT_EQ(merged->hours(), 50u);

  // The base rows must equal the monolithic 50-hour dataset; the
  // delta-only household appends after them.
  for (size_t i = 0; i < 4; ++i) {
    const auto& consumer = grown.consumer(i);
    ASSERT_EQ(merged->household_id(i), consumer.household_id);
    const table::SeriesSlice series = merged->consumption(i);
    for (size_t h = 0; h < 50; ++h) {
      ASSERT_EQ(series[h], consumer.consumption[h])
          << "household " << consumer.household_id << " hour " << h;
    }
  }
  EXPECT_EQ(merged->household_id(4), 9999);
  EXPECT_EQ(merged->consumption(4)[49], 3.25);
  EXPECT_EQ(merged->consumption(4)[48], 0.0);
  // Base hours keep the base temperature feed; the delta hours take the
  // first live writer's value.
  const table::SeriesSlice temps = merged->temperature();
  for (size_t h = 0; h < 50; ++h) {
    ASSERT_EQ(temps[h], grown.temperature()[h]) << "temperature hour " << h;
  }
}

TEST_F(TableTest, DeltaScopedScanIntersectingOnlyDeltaHours) {
  // An hour window strictly past base_hours touches only live slots; a
  // scoped batch over it is a zero-copy sub-rectangle with zero
  // ScanStats (nothing decoded, nothing preread).
  const MeterDataset dataset = SmallDataset(5, 24, 23);
  auto base = table::ColumnarBatch::FromDataset(dataset);
  ASSERT_TRUE(base.ok());
  table::DeltaStore store;
  ASSERT_TRUE(store.AttachBase(*base).ok());
  for (int64_t h = 24; h < 30; ++h) {
    for (size_t i = 0; i < dataset.num_consumers(); ++i) {
      ASSERT_TRUE(store
                      .Append(dataset.consumer(i).household_id, h,
                              100.0 * static_cast<double>(i) +
                                  static_cast<double>(h),
                              -5.0)
                      .ok());
    }
  }

  table::DeltaTableReader reader(&store);
  ASSERT_TRUE(reader.Open().ok());

  storage::ScanScope scope;
  scope.row_begin = 1;
  scope.row_count = 2;
  scope.hour_begin = 25;  // > base_hours: the window never touches base
  scope.hour_count = 4;
  auto scoped = reader.NewScopedBatch(scope);
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  ASSERT_EQ(scoped->batch.count(), 2u);
  ASSERT_EQ(scoped->batch.hours(), 4u);
  for (size_t r = 0; r < 2; ++r) {
    const size_t row = 1 + r;
    EXPECT_EQ(scoped->batch.household_id(r),
              dataset.consumer(row).household_id);
    const table::SeriesSlice series = scoped->batch.consumption(r);
    for (size_t h = 0; h < 4; ++h) {
      ASSERT_EQ(series[h], 100.0 * static_cast<double>(row) +
                               static_cast<double>(25 + h));
    }
  }
  EXPECT_EQ(scoped->stats.blocks_decoded, 0);
  EXPECT_EQ(scoped->stats.bytes_decoded, 0);
  EXPECT_NE(scoped->owner, nullptr);

  // The scoped view must survive the reader moving on: refresh after
  // more appends, the old rectangle still reads the old bits.
  ASSERT_TRUE(store.Append(dataset.consumer(1).household_id, 30, 7.0, 0.0)
                  .ok());
  ASSERT_TRUE(reader.Refresh().ok());
  EXPECT_EQ(scoped->batch.consumption(0)[0], 100.0 + 25.0);
}

TEST_F(TableTest, DeltaWriteRulesRejectCleanly) {
  table::DeltaStore::Options options;
  options.publish_lag_hours = 0;
  table::DeltaStore store(options);
  ASSERT_TRUE(store.Append(1, 3, 1.0, 0.0).ok());

  auto negative = store.Append(1, -1, 1.0, 0.0);
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);

  auto duplicate = store.Append(1, 3, 2.0, 0.0);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  // Before publication the earlier hours are still open slots.
  ASSERT_TRUE(store.Append(1, 2, 0.5, 0.0).ok());

  // Snapshot publishes through hour 3; everything below is now sealed.
  auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot->hours, 4u);
  auto late = store.Append(1, 1, 1.0, 0.0);
  EXPECT_EQ(late.code(), StatusCode::kOutOfRange) << late.ToString();
  // The sealed-but-unwritten slot stays at the gap value forever.
  EXPECT_EQ(snapshot->Series(0)[1], 0.0);
}

TEST_F(TableTest, DeltaPublishLagHoldsBackRecentHours) {
  table::DeltaStore::Options options;
  options.publish_lag_hours = 2;
  table::DeltaStore store(options);
  for (int64_t h = 0; h < 10; ++h) {
    ASSERT_TRUE(store.Append(5, h, static_cast<double>(h), 0.0).ok());
  }

  std::vector<double> freshness;
  auto snapshot = store.Snapshot(&freshness);
  // max hour 9, lag 2 -> hours [0, 8) published.
  EXPECT_EQ(snapshot->hours, 8u);
  // Freshness samples drain only for published hours.
  EXPECT_EQ(freshness.size(), 8u);

  // Readings inside the lag window may still arrive out of order...
  auto a = store.Append(6, 8, 1.0, 0.0);
  EXPECT_TRUE(a.ok()) << a.ToString();
  // ...but not below the published extent.
  auto late = store.Append(6, 7, 1.0, 0.0);
  EXPECT_EQ(late.code(), StatusCode::kOutOfRange) << late.ToString();

  // The remaining two hours publish once newer readings push the
  // watermark past them.
  ASSERT_TRUE(store.Append(5, 11, 11.0, 0.0).ok());
  freshness.clear();
  snapshot = store.Snapshot(&freshness);
  EXPECT_EQ(snapshot->hours, 10u);
  EXPECT_EQ(freshness.size(), 3u);  // hours 8, 9 (household 5) + 8 (6)
  EXPECT_EQ(snapshot->Series(0)[9], 9.0);
}

TEST_F(TableTest, DeltaSnapshotStableAcrossCopyOnGrow) {
  // Growth replaces the backing buffers (copy, never resize in place):
  // a snapshot taken before the growth must keep reading the old bits.
  table::DeltaStore::Options options;
  options.hour_capacity_headroom = 4;
  table::DeltaStore store(options);
  for (int64_t h = 0; h < 4; ++h) {
    ASSERT_TRUE(store.Append(1, h, 1.0 + static_cast<double>(h), 20.0).ok());
  }
  auto before = store.Snapshot();
  ASSERT_EQ(before->hours, 4u);
  const double* old_data = before->consumption->data();

  // Push far past the capacity and add rows: both trigger re-grids.
  for (int64_t h = 4; h < 700; ++h) {
    ASSERT_TRUE(store.Append(1, h, -1.0, 0.0).ok());
  }
  for (int64_t id = 100; id < 140; ++id) {
    ASSERT_TRUE(store.Append(id, 699, 2.0, 0.0).ok());
  }

  // The old snapshot still views its original (now-retired) buffer.
  EXPECT_EQ(before->consumption->data(), old_data);
  EXPECT_EQ(before->rows, 1u);
  for (size_t h = 0; h < 4; ++h) {
    ASSERT_EQ(before->Series(0)[h], 1.0 + static_cast<double>(h));
  }

  auto after = store.Snapshot();
  EXPECT_EQ(after->rows, 41u);
  EXPECT_EQ(after->hours, 700u);
  for (size_t h = 0; h < 4; ++h) {
    ASSERT_EQ(after->Series(0)[h], 1.0 + static_cast<double>(h));
  }
  EXPECT_EQ(after->Series(0)[699], -1.0);
  EXPECT_EQ(after->Series(40)[699], 2.0);
}

TEST_F(TableTest, DeltaSnapshotToDatasetRoundTrips) {
  const MeterDataset dataset = SmallDataset(3, 24, 29);
  auto base = table::ColumnarBatch::FromDataset(dataset);
  ASSERT_TRUE(base.ok());
  table::DeltaStore store;
  ASSERT_TRUE(store.AttachBase(*base).ok());
  for (size_t i = 0; i < dataset.num_consumers(); ++i) {
    ASSERT_TRUE(store
                    .Append(dataset.consumer(i).household_id, 24,
                            static_cast<double>(i), 8.0)
                    .ok());
  }

  auto rebuilt = table::SnapshotToDataset(*store.Snapshot());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_EQ(rebuilt->num_consumers(), 3u);
  ASSERT_EQ(rebuilt->hours(), 25u);

  // Resealing the merged view into a batch must equal the live reader's
  // batch bit for bit — the "rebuild the monolithic file" parity pin.
  auto resealed = table::ColumnarBatch::FromDataset(*rebuilt);
  ASSERT_TRUE(resealed.ok());
  table::DeltaTableReader reader(&store);
  ASSERT_TRUE(reader.Open().ok());
  auto live = reader.NewBatch();
  ASSERT_TRUE(live.ok());
  ExpectBatchesBitExact(*resealed, *live, "snapshot-to-dataset");
}

TEST_F(TableTest, DeltaConcurrentAppendsAndSnapshotsAreSafe) {
  // A hour-major writer races the snapshotter; every snapshot must be
  // internally consistent (published slots never change underneath
  // it). Run under TSan in CI. The publish lag of 1 mirrors the real
  // ingest wiring: the extent is global, so without a lag a snapshot
  // taken between two same-hour appends would seal the hour early and
  // reject the second household's reading.
  table::DeltaStore::Options options;
  options.publish_lag_hours = 1;
  table::DeltaStore store(options);
  constexpr int64_t kHours = 400;
  constexpr int64_t kHouseholds = 2;

  std::atomic<bool> done{false};
  std::thread writer([&store]() {
    for (int64_t h = 0; h < kHours; ++h) {
      for (int64_t household = 1; household <= kHouseholds; ++household) {
        ASSERT_TRUE(
            store.Append(household, h, static_cast<double>(h), 1.0).ok());
      }
    }
    // One sentinel reading advances the watermark past the lag so every
    // real hour publishes.
    ASSERT_TRUE(store.Append(1, kHours, 0.0, 1.0).ok());
  });
  std::thread snapshotter([&store, &done]() {
    while (!done.load(std::memory_order_acquire)) {
      auto snapshot = store.Snapshot();
      for (size_t r = 0; r < snapshot->rows; ++r) {
        const std::span<const double> series = snapshot->Series(r);
        for (size_t h = 0; h < series.size(); ++h) {
          // Published slots hold either the written value or the gap 0.0.
          ASSERT_TRUE(series[h] == static_cast<double>(h) || series[h] == 0.0)
              << "row " << r << " hour " << h << " = " << series[h];
        }
      }
    }
  });
  writer.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  auto final_snapshot = store.Snapshot();
  ASSERT_EQ(final_snapshot->rows, 2u);
  ASSERT_EQ(final_snapshot->hours, static_cast<size_t>(kHours));
  for (size_t r = 0; r < 2; ++r) {
    for (size_t h = 0; h < static_cast<size_t>(kHours); ++h) {
      ASSERT_EQ(final_snapshot->Series(r)[h], static_cast<double>(h));
    }
  }
  EXPECT_EQ(store.version(),
            static_cast<uint64_t>(kHouseholds) * kHours + 1);
}

// ---------------------------------------------------------------------------
// Five-engine parity: identical TaskResultSets for a fixed seed
// ---------------------------------------------------------------------------

class EngineParityTest : public ::testing::Test {
 protected:
  static constexpr int kHouseholds = 10;

  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) / "table_parity");
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);

    datagen::SeedGeneratorOptions options;
    options.num_households = kHouseholds;
    options.hours = kHoursPerYear;
    options.seed = 424242;
    auto dataset = datagen::GenerateSeedDataset(options);
    ASSERT_TRUE(dataset.ok());

    single_csv_ = (*dir_ / "data.csv").string();
    ASSERT_TRUE(storage::WriteReadingsCsv(*dataset, single_csv_).ok());
    auto part =
        storage::WritePartitionedCsv(*dataset, (*dir_ / "part").string());
    ASSERT_TRUE(part.ok());
    partitioned_files_ = new std::vector<std::string>(std::move(*part));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete partitioned_files_;
    delete dir_;
  }

  static engines::EngineFactoryOptions FactoryOptions() {
    engines::EngineFactoryOptions options;
    options.spool_dir = (*dir_ / "spool").string();
    options.cluster.num_nodes = 4;
    options.cluster.slots_per_node = 2;
    options.block_bytes = 64 << 10;
    return options;
  }

  static fs::path* dir_;
  static std::string single_csv_;
  static std::vector<std::string>* partitioned_files_;
};

fs::path* EngineParityTest::dir_ = nullptr;
std::string EngineParityTest::single_csv_;
std::vector<std::string>* EngineParityTest::partitioned_files_ = nullptr;

TEST_F(EngineParityTest, AllEnginesReturnIdenticalResults) {
  // Every engine consumes the same serialized dataset through its own
  // storage path; with the shared columnar data plane underneath, the
  // TaskResultSets must be IDENTICAL — not merely close.
  engines::SystemCEngine systemc(FactoryOptions().spool_dir);
  engines::MatlabEngine matlab;
  engines::MadlibEngine madlib(engines::MadlibEngine::TableLayout::kRow);
  engines::SparkEngine::Options spark_options;
  spark_options.cluster = FactoryOptions().cluster;
  spark_options.block_bytes = FactoryOptions().block_bytes;
  engines::SparkEngine spark(spark_options);
  engines::HiveEngine::Options hive_options;
  hive_options.cluster = FactoryOptions().cluster;
  hive_options.block_bytes = FactoryOptions().block_bytes;
  engines::HiveEngine hive(hive_options);

  struct Entry {
    engines::AnalyticsEngine* engine;
    table::DataSource source;
  };
  std::vector<Entry> entries;
  entries.push_back({&systemc, *table::DataSource::SingleCsv(single_csv_)});
  entries.push_back(
      {&matlab, *table::DataSource::PartitionedDir(*partitioned_files_)});
  entries.push_back({&madlib, *table::DataSource::SingleCsv(single_csv_)});
  entries.push_back({&spark, *table::DataSource::SingleCsv(single_csv_)});
  entries.push_back({&hive, *table::DataSource::SingleCsv(single_csv_)});

  for (Entry& entry : entries) {
    auto attach = entry.engine->Attach(entry.source);
    ASSERT_TRUE(attach.ok())
        << entry.engine->name() << ": " << attach.status().ToString();
  }

  for (core::TaskType task : core::kAllTasks) {
    std::vector<engines::TaskResultSet> results(entries.size());
    for (size_t e = 0; e < entries.size(); ++e) {
      auto metrics = entries[e].engine->RunTask(
          engines::TaskOptions::Default(task), &results[e]);
      ASSERT_TRUE(metrics.ok())
          << entries[e].engine->name() << "/" << core::TaskName(task) << ": "
          << metrics.status().ToString();
      engines::SortResultsByHousehold(&results[e]);
    }
    for (size_t e = 1; e < entries.size(); ++e) {
      SCOPED_TRACE(std::string(entries[e].engine->name()) + " vs " +
                   std::string(entries[0].engine->name()) + " on " +
                   std::string(core::TaskName(task)));
      switch (task) {
        case core::TaskType::kHistogram: {
          const auto& got = results[e].Get<core::HistogramResult>();
          const auto& want = results[0].Get<core::HistogramResult>();
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].household_id, want[i].household_id);
            EXPECT_EQ(got[i].histogram.counts, want[i].histogram.counts);
          }
          break;
        }
        case core::TaskType::kThreeLine: {
          const auto& got = results[e].Get<core::ThreeLineResult>();
          const auto& want = results[0].Get<core::ThreeLineResult>();
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].household_id, want[i].household_id);
            EXPECT_EQ(got[i].heating_gradient, want[i].heating_gradient);
            EXPECT_EQ(got[i].cooling_gradient, want[i].cooling_gradient);
            EXPECT_EQ(got[i].base_load, want[i].base_load);
          }
          break;
        }
        case core::TaskType::kPar: {
          const auto& got = results[e].Get<core::DailyProfileResult>();
          const auto& want = results[0].Get<core::DailyProfileResult>();
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].household_id, want[i].household_id);
            EXPECT_EQ(got[i].profile, want[i].profile);
          }
          break;
        }
        case core::TaskType::kSimilarity: {
          const auto& got = results[e].Get<core::SimilarityResult>();
          const auto& want = results[0].Get<core::SimilarityResult>();
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].household_id, want[i].household_id);
            ASSERT_EQ(got[i].matches.size(), want[i].matches.size());
            for (size_t m = 0; m < got[i].matches.size(); ++m) {
              EXPECT_EQ(got[i].matches[m].household_id,
                        want[i].matches[m].household_id);
              EXPECT_EQ(got[i].matches[m].cosine, want[i].matches[m].cosine);
            }
          }
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace smartmeter
