#include "table/columnar_batch.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace smartmeter::table {

ColumnarBatch& ColumnarBatch::operator=(ColumnarBatch&& other) noexcept {
  if (this == &other) return *this;
  owned_ids_ = std::move(other.owned_ids_);
  owned_series_ = std::move(other.owned_series_);
  ids_ = other.ids_;
  count_ = other.count_;
  hours_ = other.hours_;
  contiguous_ = other.contiguous_;
  series_ = other.series_;
  temperature_ = other.temperature_;
  other.ids_ = nullptr;
  other.count_ = 0;
  other.hours_ = 0;
  other.contiguous_ = nullptr;
  other.series_ = nullptr;
  other.temperature_ = {};
  return *this;
}

Result<ColumnarBatch> ColumnarBatch::FromContiguous(
    std::span<const int64_t> ids, SeriesSlice consumption,
    SeriesSlice temperature, size_t hours) {
  if (consumption.size() != ids.size() * hours) {
    return Status::InvalidArgument(StringPrintf(
        "columnar batch: consumption column has %zu values, expected "
        "%zu households x %zu hours",
        consumption.size(), ids.size(), hours));
  }
  if (!temperature.empty() && temperature.size() != hours) {
    return Status::InvalidArgument(StringPrintf(
        "columnar batch: temperature column has %zu values, expected %zu",
        temperature.size(), hours));
  }
  // Households with zero hours have an empty, possibly null, column.
  // Point at a static empty buffer instead, so consumption(i) yields a
  // zero-length row and never reads the (absent) slice table.
  static constexpr double kNoReadings = 0.0;
  ColumnarBatch batch;
  batch.ids_ = ids.data();
  batch.count_ = ids.size();
  batch.hours_ = hours;
  batch.contiguous_ =
      consumption.data() != nullptr ? consumption.data() : &kNoReadings;
  batch.temperature_ = temperature;
  return batch;
}

Result<ColumnarBatch> ColumnarBatch::FromDataset(const MeterDataset& dataset) {
  SM_RETURN_IF_ERROR(dataset.Validate());
  ColumnarBatch batch;
  batch.owned_ids_.reserve(dataset.num_consumers());
  batch.owned_series_.reserve(dataset.num_consumers());
  for (const ConsumerSeries& c : dataset.consumers()) {
    batch.owned_ids_.push_back(c.household_id);
    batch.owned_series_.emplace_back(c.consumption);
  }
  batch.ids_ = batch.owned_ids_.data();
  batch.series_ = batch.owned_series_.data();
  batch.count_ = batch.owned_ids_.size();
  batch.hours_ = dataset.hours();
  batch.temperature_ = dataset.temperature();
  return batch;
}

Result<ColumnarBatch> ColumnarBatch::FromSlices(std::vector<int64_t> ids,
                                                std::vector<SeriesSlice> series,
                                                SeriesSlice temperature) {
  if (ids.size() != series.size()) {
    return Status::InvalidArgument(
        StringPrintf("columnar batch: %zu ids but %zu series", ids.size(),
                     series.size()));
  }
  const size_t hours = series.empty() ? 0 : series.front().size();
  for (const SeriesSlice& s : series) {
    if (s.size() != hours) {
      return Status::InvalidArgument(StringPrintf(
          "columnar batch: series length %zu != %zu", s.size(), hours));
    }
  }
  if (!temperature.empty() && temperature.size() != hours) {
    return Status::InvalidArgument(StringPrintf(
        "columnar batch: temperature column has %zu values, expected %zu",
        temperature.size(), hours));
  }
  ColumnarBatch batch;
  batch.owned_ids_ = std::move(ids);
  batch.owned_series_ = std::move(series);
  batch.ids_ = batch.owned_ids_.data();
  batch.series_ = batch.owned_series_.data();
  batch.count_ = batch.owned_ids_.size();
  batch.hours_ = hours;
  batch.temperature_ = temperature;
  return batch;
}

ColumnarBatch ColumnarBatch::View() const {
  ColumnarBatch view;
  if (series_ != nullptr) {
    // Copy the dense slice table so the view survives a move of the
    // original; the series data itself stays borrowed.
    view.owned_ids_.assign(ids_, ids_ + count_);
    view.owned_series_.assign(series_, series_ + count_);
    view.ids_ = view.owned_ids_.data();
    view.series_ = view.owned_series_.data();
  } else {
    view.ids_ = ids_;
    view.contiguous_ = contiguous_;
  }
  view.count_ = count_;
  view.hours_ = hours_;
  view.temperature_ = temperature_;
  return view;
}

Result<ColumnarBatch> ColumnarBatch::Slice(size_t begin, size_t count) const {
  const size_t from = std::min(begin, count_);
  const size_t n = std::min(count, count_ - from);
  if (contiguous_ != nullptr || count_ == 0) {
    return FromContiguous(
        std::span<const int64_t>(ids_ + from, n),
        SeriesSlice(contiguous_ + from * hours_, n * hours_), temperature_,
        hours_);
  }
  return FromSlices(std::vector<int64_t>(ids_ + from, ids_ + from + n),
                    std::vector<SeriesSlice>(series_ + from, series_ + from + n),
                    temperature_);
}

Status ColumnarBatch::Validate() const {
  if (count_ > 0 && ids_ == nullptr) {
    return Status::Internal("columnar batch: missing id column");
  }
  if (count_ > 0 && contiguous_ == nullptr && series_ == nullptr) {
    return Status::Internal("columnar batch: missing consumption storage");
  }
  if (series_ != nullptr) {
    for (size_t i = 0; i < count_; ++i) {
      if (series_[i].size() != hours_) {
        return Status::Internal(StringPrintf(
            "columnar batch: series %zu has %zu values, expected %zu", i,
            series_[i].size(), hours_));
      }
    }
  }
  if (!temperature_.empty() && temperature_.size() != hours_) {
    return Status::Internal(StringPrintf(
        "columnar batch: temperature column has %zu values, expected %zu",
        temperature_.size(), hours_));
  }
  return Status::OK();
}

}  // namespace smartmeter::table
