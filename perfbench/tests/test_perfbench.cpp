// Self-tests for the benchmark's statistics, span accounting and output
// checks. Expected quartiles are Python's statistics.quantiles(xs, n=4).
#include <gtest/gtest.h>

#include "checks.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianAndQuartilesMatchPython) {
  EXPECT_DOUBLE_EQ(median({5, 1, 9, 7, 3, 2, 8}), 5);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
  const struct {
    std::vector<double> xs;
    Quartiles want;
  } cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25}},
      {{1, 2, 3, 4}, {1.25, 2.5, 3.75}},
      {{3.5, 1.0}, {0.375, 2.25, 4.125}},
      {{5, 1, 9, 7, 3, 2, 8}, {2.0, 5.0, 8.0}},
  };
  for (const auto& c : cases) {
    const auto q = quartiles(c.xs);
    EXPECT_DOUBLE_EQ(q.q1, c.want.q1);
    EXPECT_DOUBLE_EQ(q.q2, c.want.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.want.q3);
  }
  EXPECT_THROW((void)quartiles({1.0}), std::invalid_argument);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(supported_tail_percentile(19).has_value());
  EXPECT_EQ(supported_tail_percentile(20), 50);
  EXPECT_EQ(supported_tail_percentile(99), 50);
  EXPECT_EQ(supported_tail_percentile(100), 90);
  EXPECT_EQ(supported_tail_percentile(999), 90);
  EXPECT_EQ(supported_tail_percentile(1000), 99);
  EXPECT_EQ(supported_tail_percentile(9999), 99);
  EXPECT_EQ(supported_tail_percentile(10000), 99.9);
  EXPECT_EQ(supported_tail_percentile(100000), 99.99);

  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 99), 990);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 500);
  const auto s = summarize(xs);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_p, 99);
  EXPECT_DOUBLE_EQ(s.tail, 990);  // exactly ten samples lie above it
  EXPECT_EQ(summarize({1, 2, 3}).tail_p, 0);
}

TEST(Stats, WindowedPercentileIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows;
  for (int w = 0; w < 5; ++w) {
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i) xs.push_back(w == 2 ? 5000 : i);  // window 2 stalled
    windows.push_back(xs);
  }
  windows.push_back({1e9});  // a partial trailing window is skipped
  EXPECT_DOUBLE_EQ(median_window_percentile(windows, 99, 100), 99);
  EXPECT_DOUBLE_EQ(median_window_percentile(windows, 99, 1000), 0);
}

TEST(Stats, BacklogGrowthRule) {
  EXPECT_FALSE(backlog_growing({3, 4, 3, 5, 4, 3, 4, 5}));
  EXPECT_FALSE(backlog_growing({0, 1, 0, 2, 9, 1, 0, 1}));  // one spike is no trend
  EXPECT_TRUE(backlog_growing({1, 5, 20, 40, 80, 120, 160, 200}));
  // Growth within the slack of a large steady queue is not growth.
  EXPECT_FALSE(backlog_growing({100, 102, 101, 103, 104, 103, 105, 106}));
  EXPECT_FALSE(backlog_growing({1, 100}));  // too few samples to tell
}

TEST(Stats, MaxRateIsHighestValidPassingStep) {
  std::vector<StepVerdict> steps = {
      {1000, 1000, 300, false, true},
      {2000, 2000, 400, false, true},
      {4000, 3990, 2500, false, true},   // p99 over the limit
      {8000, 5000, 900, true, true},     // backlog grows
      {16000, 9000, 100, false, false},  // generator fell behind: ignored
  };
  auto best = max_passing_step(steps, 2000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
  // A higher passing step after failing ones still counts.
  steps.push_back({32000, 31990, 1500, false, true});
  EXPECT_EQ(max_passing_step(steps, 2000), 5u);
  // The limit is inclusive.
  EXPECT_EQ(max_passing_step({{1000, 1000, 2000, false, true}}, 2000), 0u);
  EXPECT_FALSE(max_passing_step({{1000, 1000, 2001, false, true}}, 2000).has_value());
  EXPECT_FALSE(max_passing_step({}, 2000).has_value());
}

TEST(Spans, SelfTimeSubtractsCoveredChildTimeOnce) {
  // Parent [0,100); children [10,40) and [30,60) overlap (parallel shards)
  // and cover 50; an attribution of 20 with no interval is also charged.
  std::vector<Span> spans = {
      {1, 0, "study", "core.parallel", 0, 100},
      {2, 1, "shard 0", "core.parallel", 10, 40},
      {3, 1, "shard 1", "core.parallel", 30, 60},
      {4, 2, "late child", "store", 35, 45},  // clipped to its parent
  };
  std::vector<Attribution> attr = {{1, "merge", "core", 20}};
  const auto self = self_times_us(spans, attr);
  EXPECT_EQ(self[0], 100 - 50 - 20);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, DisabledLogRecordsNothing) {
  SpanLog off(1, false);
  EXPECT_EQ(off.begin("x", "core", 0), 0u);
  off.end(0);
  off.attribute(0, "y", "core", 5);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_TRUE(off.self_ms_by_layer().empty());
}

TEST(Checks, RepeatCheckFailsOnAPerturbedDigestOrSnapshot) {
  RepeatCheck r;
  EXPECT_TRUE(r.same_as_first(22, "abc", "{\"n\":1}"));
  EXPECT_TRUE(r.same_as_first(22, "abc", "{\"n\":1}"));
  EXPECT_FALSE(r.same_as_first(22, "abd", "{\"n\":1}"));
  EXPECT_FALSE(r.same_as_first(22, "abc", "{\"n\":2}"));
  EXPECT_TRUE(r.same_as_first(23, "xyz", "{}"));  // another seed, another first
}

TEST(Checks, OracleAcceptsOnlyBaseOrPushedPrefixStates) {
  const std::vector<std::vector<std::string>> states = {
      {"totals 10", "c2 a live_days=1"},
      {"totals 12", "c2 a live_days=1"},
      {"totals 15", "c2 a live_days=2"},
  };
  int loads = 0;
  AnswerOracle oracle({"totals", "c2 a"},
                      [&](std::size_t k, const std::vector<std::string>& qs) {
                        ++loads;
                        EXPECT_EQ(qs.size(), 2u);
                        return states.at(k);
                      });
  EXPECT_EQ(oracle.base_answer(0), "totals 10");
  EXPECT_TRUE(oracle.accepts(0, "totals 10", 0));
  EXPECT_FALSE(oracle.accepts(0, "totals 11", 2));  // perturbed answer
  EXPECT_FALSE(oracle.accepts(0, "totals 15", 1));  // state not reached yet
  EXPECT_TRUE(oracle.accepts(0, "totals 15", 2));
  EXPECT_TRUE(oracle.accepts(1, "c2 a live_days=2", 2));
  EXPECT_EQ(loads, 3);  // each state loaded once
}

TEST(Checks, SegmentSetCheckFailsWhenAPushedSegmentIsMissing) {
  const std::vector<std::string> pushed = {"h2", "h1"};
  EXPECT_TRUE(contains_all({"h3", "h1", "h2"}, pushed));
  EXPECT_FALSE(contains_all({"h3", "h1"}, pushed));
  EXPECT_FALSE(contains_all({"h3", "h1", "h2x"}, pushed));
  EXPECT_TRUE(contains_all({}, {}));
}

TEST(Checks, CheckLogCountsFailures) {
  CheckLog log;
  log.attempt(3);
  EXPECT_TRUE(log.expect(true, "fine"));
  EXPECT_FALSE(log.expect(false, "broken"));
  log.fail(0, "nothing");
  log.fail(2, "two lost");
  EXPECT_EQ(log.attempted(), 3u);
  EXPECT_EQ(log.failed(), 3u);
  ASSERT_EQ(log.failures().size(), 2u);
  EXPECT_EQ(log.failures()[0], "broken");
}

}  // namespace
}  // namespace perfbench
