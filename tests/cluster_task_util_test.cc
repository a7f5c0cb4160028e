#include <gtest/gtest.h>

#include "engines/cluster_task_util.h"
#include "engines/task_api.h"

namespace smartmeter::engines::internal {
namespace {

TEST(AssembleSeriesTest, SortsByHour) {
  std::vector<HourRecord> records = {
      {2, 0.3, 10.0}, {0, 0.1, 8.0}, {1, 0.2, 9.0}};
  std::vector<double> consumption, temperature;
  AssembleSeries(&records, &consumption, &temperature);
  const std::vector<double> expected_c = {0.1, 0.2, 0.3};
  const std::vector<double> expected_t = {8.0, 9.0, 10.0};
  EXPECT_EQ(consumption, expected_c);
  EXPECT_EQ(temperature, expected_t);
}

TEST(AssembleSeriesTest, EmptyInput) {
  std::vector<HourRecord> records;
  std::vector<double> consumption, temperature;
  AssembleSeries(&records, &consumption, &temperature);
  EXPECT_TRUE(consumption.empty());
  EXPECT_TRUE(temperature.empty());
}

TEST(ParseHouseholdLineTest, ParsesIdAndReadings) {
  auto parsed = ParseHouseholdLine("42,0.5,1.25,0.75");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->household_id, 42);
  const std::vector<double> expected = {0.5, 1.25, 0.75};
  EXPECT_EQ(parsed->consumption, expected);
}

TEST(ParseHouseholdLineTest, RejectsMalformed) {
  EXPECT_FALSE(ParseHouseholdLine("").ok());
  EXPECT_FALSE(ParseHouseholdLine("42").ok());
  EXPECT_FALSE(ParseHouseholdLine("x,1.0").ok());
  EXPECT_FALSE(ParseHouseholdLine("42,abc").ok());
}

TEST(SortResultsTest, OrdersHeldVectorById) {
  TaskResultSet results;
  results.Mutable<core::HistogramResult>().push_back({3, {}});
  results.Mutable<core::HistogramResult>().push_back({1, {}});
  SortResultsByHousehold(&results);
  EXPECT_EQ(results.Get<core::HistogramResult>()[0].household_id, 1);

  results.Clear();
  core::SimilarityResult s1;
  s1.household_id = 5;
  core::SimilarityResult s2;
  s2.household_id = 4;
  results.Mutable<core::SimilarityResult>() = {s1, s2};
  SortResultsByHousehold(&results);
  EXPECT_EQ(results.Get<core::SimilarityResult>()[0].household_id, 4);
}

TEST(MergeResultsTest, AdoptsTypeAndAppends) {
  TaskResultSet dst;
  TaskResultSet src;
  src.Mutable<core::HistogramResult>().push_back({2, {}});
  MergeResults(std::move(src), &dst);
  ASSERT_TRUE(dst.Holds<core::HistogramResult>());
  EXPECT_EQ(dst.size(), 1u);

  TaskResultSet more;
  more.Mutable<core::HistogramResult>().push_back({1, {}});
  MergeResults(std::move(more), &dst);
  EXPECT_EQ(dst.size(), 2u);

  // Merging an empty set is a no-op.
  MergeResults(TaskResultSet(), &dst);
  EXPECT_EQ(dst.size(), 2u);
}

}  // namespace
}  // namespace smartmeter::engines::internal
