// Tests for the benchmark's own measurement machinery: the order
// statistics every metric goes through, open-loop due-time accounting,
// and span self time.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace smbench {
namespace {

using std::chrono::milliseconds;

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({7.0}), 7.0);
  EXPECT_TRUE(std::isnan(Median({})));
}

// Expected cut points are Python's statistics.quantiles(data, n=4).
TEST(QuartilesTest, MatchesPythonExclusiveMethod) {
  const Quartiles a = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  // Two points: Python extrapolates beyond the data.
  const Quartiles b = ComputeQuartiles({2, 1});
  EXPECT_DOUBLE_EQ(b.q1, 0.75);
  EXPECT_DOUBLE_EQ(b.q2, 1.5);
  EXPECT_DOUBLE_EQ(b.q3, 2.25);
  const Quartiles c = ComputeQuartiles({5, 1, 3});
  EXPECT_DOUBLE_EQ(c.q1, 1.0);
  EXPECT_DOUBLE_EQ(c.q2, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 5.0);
  const Quartiles d = ComputeQuartiles({0.1, 0.4, 0.2, 0.9, 0.3, 0.5, 0.7});
  EXPECT_DOUBLE_EQ(d.q1, 0.2);
  EXPECT_DOUBLE_EQ(d.q2, 0.4);
  EXPECT_DOUBLE_EQ(d.q3, 0.7);
  EXPECT_TRUE(std::isnan(ComputeQuartiles({1.0}).q1));
}

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted on purpose.
  return values;
}

TEST(SupportedTailTest, KeepsTenSamplesBeyondThePercentile) {
  // 1000 samples: p99 is the 990th value, with exactly 10 beyond it.
  const Tail t1000 = SupportedTail(OneTo(1000));
  EXPECT_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.samples, 1000u);
  // 999 samples: p99 would leave 9 beyond, so p95 (rank 950) is reported.
  const Tail t999 = SupportedTail(OneTo(999));
  EXPECT_EQ(t999.percentile, 95.0);
  EXPECT_EQ(t999.value, 950.0);
  // 200 samples: p95 leaves 10, p99 only 2.
  const Tail t200 = SupportedTail(OneTo(200));
  EXPECT_EQ(t200.percentile, 95.0);
  EXPECT_EQ(t200.value, 190.0);
  // 20 samples: only the median leaves 10 beyond it.
  const Tail t20 = SupportedTail(OneTo(20));
  EXPECT_EQ(t20.percentile, 50.0);
  EXPECT_EQ(t20.value, 10.0);
  EXPECT_TRUE(t20.supported());
}

TEST(SupportedTailTest, SmallSamplesFallBackToTheMaximum) {
  const Tail t = SupportedTail({0.3, 0.1, 0.2});
  EXPECT_FALSE(t.supported());
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.value, 0.3);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_FALSE(SupportedTail(OneTo(19)).supported());
}

TEST(SummarizeTest, MedianQuartilesAndTailTogether) {
  const Summary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.median, 500.5);
  EXPECT_DOUBLE_EQ(s.quartiles.q1, 250.25);
  EXPECT_DOUBLE_EQ(s.quartiles.q3, 750.75);
  EXPECT_EQ(s.tail.value, 990.0);
  EXPECT_EQ(s.samples(), 1000u);
}

TEST(WindowsTest, SplitsByCompletionTimeAndPicksTheCalmest) {
  // 4 one-second windows; window 2 runs 10x slower and completes a tenth
  // as many operations, window 1 is the fastest.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 4; ++w) {
    const int count = w == 2 ? 10 : (w == 1 ? 120 : 100);
    for (int i = 0; i < count; ++i) {
      samples.push_back(
          {w + (i + 0.5) / count, (w == 2 ? 10.0 : 1.0) * (i + 1)});
    }
  }
  const std::vector<WindowStats> windows = SplitWindows(samples, 4.0, 4);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_DOUBLE_EQ(windows[2].rate, 10.0);
  EXPECT_DOUBLE_EQ(windows[2].median, 55.0);
  EXPECT_FALSE(windows[2].tail.supported());
  const WindowStats calm = CalmestWindow(windows);
  EXPECT_EQ(calm.index, 1u);
  EXPECT_DOUBLE_EQ(calm.rate, 120.0);
  EXPECT_DOUBLE_EQ(calm.median, 60.5);
  // 120 samples: p90 is rank 108 with 12 beyond it; p95 would leave 6.
  EXPECT_EQ(calm.tail.percentile, 90.0);
  EXPECT_DOUBLE_EQ(calm.tail.value, 108.0);
}

TEST(WindowsTest, EmptyWindowsAreSkipped) {
  const std::vector<WindowStats> windows =
      SplitWindows({{0.1, 2.0}, {0.2, 4.0}, {2.5, 6.0}}, 3.0, 3);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].index, 2u);
  EXPECT_DOUBLE_EQ(windows[0].median, 3.0);
  EXPECT_DOUBLE_EQ(windows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(CalmestWindow(windows).median, 3.0);
}

TEST(OpenLoopScheduleTest, DueTimesIgnoreEarlierStalls) {
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, 1000.0);  // One item per millisecond.
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_EQ(schedule.Due(5), start + milliseconds(5));
  // Item 5 is stalled 30 ms past its due time; item 6 goes out right
  // behind it. Both are timed from when they were due, not sent.
  const Clock::time_point stalled = start + milliseconds(35);
  EXPECT_NEAR(schedule.RecordSend(5, stalled), 0.030, 1e-9);
  EXPECT_NEAR(schedule.RecordSend(6, stalled), 0.029, 1e-9);
  const Clock::time_point done = stalled + milliseconds(2);
  EXPECT_NEAR(schedule.LatencyFromDue(5, done), 0.032, 1e-9);
  EXPECT_NEAR(schedule.LatencyFromDue(6, done), 0.031, 1e-9);
  EXPECT_EQ(schedule.Due(7), start + milliseconds(7));
}

TEST(OpenLoopScheduleTest, ReportsGeneratorLateness) {
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, 100.0);  // One item per 10 ms.
  // Early and on-time sends are not late; a send 25 ms behind is.
  EXPECT_EQ(schedule.RecordSend(0, start - milliseconds(1)), 0.0);
  EXPECT_EQ(schedule.RecordSend(1, start + milliseconds(10)), 0.0);
  EXPECT_NEAR(schedule.RecordSend(2, start + milliseconds(45)), 0.025,
              1e-9);
  ASSERT_EQ(schedule.lateness().size(), 3u);
  const Tail lag = SupportedTail(schedule.lateness());
  EXPECT_NEAR(lag.value, 0.025, 1e-9);
}

TEST(SpanRecorderTest, SelfTimeSubtractsCoveredChildTime) {
  SpanRecorder recorder(/*enabled=*/true);
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };
  const int64_t root = recorder.Add("query", "harness", at(0), at(100), -1, 7);
  // Two overlapping children count their union (10..60) once; a child
  // sticking out of its parent is clipped to the parent's interval.
  recorder.Add("scan", "table", at(10), at(40), root, 7);
  recorder.Add("kernel", "core", at(30), at(60), root, 7);
  recorder.Add("late", "exec", at(90), at(130), root, 7);
  const std::vector<double> self = SelfSeconds(recorder.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_NEAR(self[0], 0.040, 1e-9);  // 100 - 50 (10..60) - 10 (90..100)
  EXPECT_NEAR(self[1], 0.030, 1e-9);
  const auto by_layer = recorder.SelfSecondsByLayer();
  EXPECT_NEAR(by_layer.at("harness"), 0.040, 1e-9);
  EXPECT_NEAR(by_layer.at("exec"), 0.040, 1e-9);
}

TEST(SpanRecorderTest, DisabledRecorderKeepsNothing) {
  SpanRecorder recorder(/*enabled=*/false);
  {
    ScopedSpan span(&recorder, "query", "harness", -1, 1);
    EXPECT_EQ(span.id(), -1);
  }
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(ResultJsonTest, ExactKeysAndFullPrecision) {
  const std::string line =
      ResultJson(true, 12, 1, {{"setup_s", {0.8125, "s"}}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.8125, "
            "\"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace smbench
