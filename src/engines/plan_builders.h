#ifndef SMARTMETER_ENGINES_PLAN_BUILDERS_H_
#define SMARTMETER_ENGINES_PLAN_BUILDERS_H_

#include <string>
#include <vector>

#include "cluster/block_store.h"
#include "common/result.h"
#include "exec/plan.h"
#include "table/columnar_batch.h"
#include "table/table_reader.h"
#include "timeseries/dataset.h"

namespace smartmeter::engines::planning {

/// Shared ScanOp constructors: the handful of physical input shapes the
/// five engines scan, factored out so each PlanBuilder is just "pick a
/// scan, pick a shuffle, price it". Closures capture their inputs by
/// shared pointer, so plans stay cheap to copy.

/// Views an engine-resident batch (System C's mmap, a warm reader's
/// batch). `batch` must outlive the plan.
exec::ScanOp ResidentBatchScan(const table::ColumnarBatch* batch,
                               std::string source);

/// Like ResidentBatchScan, but backed by the reader that owns `batch`,
/// so the executor can push a kernel's row scope down into the scan:
/// `reader->NewScopedBatch` views only the scoped rows, and a
/// block-indexed reader (SMCOLV2) reports which blocks the scope covers.
/// Both `reader` and `batch` must outlive the plan.
exec::ScanOp ReaderBatchScan(const table::TableReader* reader,
                             const table::ColumnarBatch* batch,
                             std::string source);

/// Views an engine-resident in-memory dataset (Matlab's warm arrays).
/// `dataset` must outlive the plan.
exec::ScanOp DatasetBatchScan(const MeterDataset* dataset,
                              std::string source);

/// The household-range blocks of an opened column file, for
/// BlockStore::AddColumnarFile. SMCOLV2 blocks mirror the file's own
/// compression-block index (each block owns the rows that start inside
/// it); SMCOLV1 files get synthesized fixed-size row chunks so both
/// generations split into comparably sized cluster tasks.
std::vector<cluster::ColumnarBlock> ColumnarFileBlocks(
    const table::ColumnFileReader& reader);

/// Reads columnar splits into per-partition reading rows (one task per
/// block). Each task reads only its split's household range through
/// `NewScopedBatch` and emits records with the real per-hour
/// temperature attached, so downstream assembly matches the text
/// formats bit for bit. `reader` is shared by every task.
exec::ScanOp ColumnarReadingsScan(
    std::shared_ptr<const table::ColumnFileReader> reader,
    std::vector<cluster::ColumnarSplit> splits, std::string source);

/// Reads format 1 / format 3 splits into per-partition reading rows
/// (one task per split). `extra_seconds_per_mb` charges an additional
/// modeled ingestion cost (format 3's whole-file materialization).
exec::ScanOp SplitReadingsScan(std::vector<cluster::InputSplit> splits,
                               std::string source,
                               double extra_seconds_per_mb = 0.0);

/// Reads format 2 splits ("id,c0,c1,..." lines) into per-partition
/// assembled households (one task per split). Records carry no
/// temperature; pair with ScanOp::shared_temperature.
exec::ScanOp SplitSeriesScan(std::vector<cluster::InputSplit> splits,
                             std::string source);

/// Streams one single-household CSV file per partition (Matlab's
/// file-at-a-time loop over the partitioned layout).
exec::ScanOp FileSeriesScan(std::vector<std::string> files,
                            std::string source);

/// Parses one single-household file (rows already in hour order, as the
/// partitioned writer produces them) without any grouping structure.
Status ParseSingleHouseholdFile(const std::string& path,
                                ConsumerSeries* series,
                                std::vector<double>* temperature);

}  // namespace smartmeter::engines::planning

#endif  // SMARTMETER_ENGINES_PLAN_BUILDERS_H_
