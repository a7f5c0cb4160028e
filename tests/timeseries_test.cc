#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "timeseries/calendar.h"
#include "timeseries/dataset.h"

namespace smartmeter {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Calendar
// ---------------------------------------------------------------------------

TEST(CalendarTest, Constants) {
  EXPECT_EQ(kHoursPerYear, 8760);
  EXPECT_EQ(kHoursPerDay * kDaysPerYear, kHoursPerYear);
}

TEST(CalendarTest, HourOfDayWraps) {
  EXPECT_EQ(HourlyCalendar::HourOfDay(0), 0);
  EXPECT_EQ(HourlyCalendar::HourOfDay(23), 23);
  EXPECT_EQ(HourlyCalendar::HourOfDay(24), 0);
  EXPECT_EQ(HourlyCalendar::HourOfDay(8759), 23);
}

TEST(CalendarTest, DayOfYear) {
  EXPECT_EQ(HourlyCalendar::DayOfYear(0), 0);
  EXPECT_EQ(HourlyCalendar::DayOfYear(23), 0);
  EXPECT_EQ(HourlyCalendar::DayOfYear(24), 1);
  EXPECT_EQ(HourlyCalendar::DayOfYear(8759), 364);
}

TEST(CalendarTest, YearStartsOnTuesday) {
  EXPECT_EQ(HourlyCalendar::DayOfWeek(0), 1);          // Tuesday.
  EXPECT_EQ(HourlyCalendar::DayOfWeek(4 * 24), 5);     // Saturday Jan 5.
  EXPECT_TRUE(HourlyCalendar::IsWeekend(4 * 24));
  EXPECT_TRUE(HourlyCalendar::IsWeekend(5 * 24));      // Sunday Jan 6.
  EXPECT_FALSE(HourlyCalendar::IsWeekend(6 * 24));     // Monday Jan 7.
}

TEST(CalendarTest, MonthBoundaries) {
  EXPECT_EQ(HourlyCalendar::Month(0), 0);                    // Jan 1.
  EXPECT_EQ(HourlyCalendar::Month(30 * 24 + 23), 0);         // Jan 31.
  EXPECT_EQ(HourlyCalendar::Month(31 * 24), 1);              // Feb 1.
  EXPECT_EQ(HourlyCalendar::Month((31 + 28) * 24), 2);       // Mar 1.
  EXPECT_EQ(HourlyCalendar::Month(8759), 11);                // Dec 31.
}

TEST(CalendarTest, WeekendFractionIsPlausible) {
  int weekend_days = 0;
  for (int d = 0; d < kDaysPerYear; ++d) {
    if (HourlyCalendar::IsWeekend(HourlyCalendar::DayStartHour(d))) {
      ++weekend_days;
    }
  }
  EXPECT_GE(weekend_days, 104);
  EXPECT_LE(weekend_days, 105);
}

// ---------------------------------------------------------------------------
// MeterDataset
// ---------------------------------------------------------------------------

MeterDataset SmallDataset() {
  MeterDataset ds;
  ds.SetTemperature({1.0, 2.0, 3.0});
  ds.AddConsumer({101, {0.5, 0.6, 0.7}});
  ds.AddConsumer({102, {1.5, 1.6, 1.7}});
  return ds;
}

TEST(MeterDatasetTest, ValidatesGoodData) {
  EXPECT_TRUE(SmallDataset().Validate().ok());
}

TEST(MeterDatasetTest, RejectsEmptyTemperature) {
  MeterDataset ds;
  ds.AddConsumer({1, {1.0}});
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(MeterDatasetTest, RejectsMisalignedSeries) {
  MeterDataset ds = SmallDataset();
  ds.AddConsumer({103, {1.0}});
  EXPECT_EQ(ds.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(MeterDatasetTest, RejectsDuplicateIds) {
  MeterDataset ds = SmallDataset();
  ds.AddConsumer({101, {9.0, 9.0, 9.0}});
  EXPECT_EQ(ds.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(MeterDatasetTest, FindHousehold) {
  MeterDataset ds = SmallDataset();
  auto found = ds.FindHousehold(102);
  ASSERT_TRUE(found.ok());
  EXPECT_DOUBLE_EQ((*found)->consumption[0], 1.5);
  EXPECT_EQ(ds.FindHousehold(999).status().code(), StatusCode::kNotFound);
}

TEST(MeterDatasetTest, CountsAndSizes) {
  MeterDataset ds = SmallDataset();
  EXPECT_EQ(ds.hours(), 3u);
  EXPECT_EQ(ds.num_consumers(), 2u);
  EXPECT_EQ(ds.TotalReadings(), 6);
  EXPECT_EQ(ds.ApproxCsvBytes(), 6 * 42);
}

TEST(MeterDatasetTest, TruncateConsumers) {
  MeterDataset ds = SmallDataset();
  ds.TruncateConsumers(1);
  EXPECT_EQ(ds.num_consumers(), 1u);
  ds.TruncateConsumers(10);  // No-op.
  EXPECT_EQ(ds.num_consumers(), 1u);
}

// ---------------------------------------------------------------------------
// FillGaps
// ---------------------------------------------------------------------------

TEST(FillGapsTest, InteriorGapLinearlyInterpolated) {
  std::vector<double> v = {1.0, kNan, kNan, 4.0};
  auto filled = FillGaps(&v);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, 2);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(FillGapsTest, EdgesExtrapolateConstant) {
  std::vector<double> v = {kNan, 5.0, kNan};
  auto filled = FillGaps(&v);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, 2);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
  EXPECT_DOUBLE_EQ(v[2], 5.0);
}

TEST(FillGapsTest, NoGapsIsNoop) {
  std::vector<double> v = {1.0, 2.0};
  auto filled = FillGaps(&v);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, 0);
}

TEST(FillGapsTest, AllNanFails) {
  std::vector<double> v = {kNan, kNan};
  EXPECT_FALSE(FillGaps(&v).ok());
}

}  // namespace
}  // namespace smartmeter
