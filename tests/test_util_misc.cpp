// Tests for str, stats, simtime, fsio and thread-pool helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <numeric>

#include "testkit/scratch.hpp"
#include "util/fsio.hpp"
#include "util/simtime.hpp"
#include "util/stats.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"

using namespace malnet::util;

// --- str ---------------------------------------------------------------------

TEST(Str, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Str, SplitWsCollapsesRuns) {
  EXPECT_EQ(split_ws("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Str, JoinInverseOfSplit) {
  EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
}

TEST(Str, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("AbC"), "ABC");
  EXPECT_TRUE(iequals("UDP", "udp"));
  EXPECT_FALSE(iequals("UDP", "ud"));
}

TEST(Str, ParseU64Strict) {
  EXPECT_EQ(parse_u64("123"), 123u);
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64(" 1"));
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Str, PercentFormatting) {
  EXPECT_EQ(percent(0.153), "15.3%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

// --- stats -------------------------------------------------------------------

TEST(Cdf, BasicQueries) {
  Cdf c;
  for (double x : {1.0, 1.0, 1.0, 2.0, 4.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.6);
  EXPECT_DOUBLE_EQ(c.at(3.0), 0.8);
  EXPECT_DOUBLE_EQ(c.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(c.mass_at(1.0), 0.6);
  EXPECT_DOUBLE_EQ(c.mean(), 1.8);
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

TEST(Cdf, StepsAreMonotone) {
  Cdf c;
  for (double x : {3.0, 1.0, 2.0, 2.0}) c.add(x);
  const auto steps = c.steps();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_DOUBLE_EQ(steps.back().second, 1.0);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GT(steps[i].first, steps[i - 1].first);
    EXPECT_GT(steps[i].second, steps[i - 1].second);
  }
}

TEST(Cdf, EmptyBehaviour) {
  // Empty distributions answer NaN, not throw: chaos-degraded studies can
  // legitimately produce empty CDFs, and figure emitters must keep going.
  Cdf c;
  EXPECT_TRUE(c.empty());
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.0);
  EXPECT_TRUE(std::isnan(c.min()));
  EXPECT_TRUE(std::isnan(c.max()));
}

// --- simtime -----------------------------------------------------------------

TEST(SimTime, DurationArithmetic) {
  EXPECT_EQ(Duration::days(1).us, 86'400'000'000LL);
  EXPECT_EQ((Duration::hours(1) * 24).us, Duration::days(1).us);
  EXPECT_EQ((Duration::minutes(90) - Duration::hours(1)).us, Duration::minutes(30).us);
}

TEST(SimTime, DayAndWeek) {
  const SimTime t{Duration::days(15).us + Duration::hours(3).us};
  EXPECT_EQ(t.day(), 15);
  EXPECT_EQ(t.week(), 3);  // days 14..20 are week 3 (1-based)
  EXPECT_EQ(SimTime{0}.week(), 1);
}

TEST(SimTime, Rendering) {
  const SimTime t = SimTime{} + Duration::days(2) + Duration::hours(3) +
                    Duration::minutes(4) + Duration::seconds(5);
  EXPECT_EQ(to_string(t), "d2 03:04:05");
  EXPECT_EQ(to_string(Duration::hours(26)), "1d2h");
  EXPECT_EQ(to_string(Duration::minutes(61)), "1h1m");
}

TEST(SimTime, StudyDateCalendar) {
  EXPECT_EQ(study_date(0), "2021-03-29");
  EXPECT_EQ(study_date(2), "2021-03-31");
  EXPECT_EQ(study_date(3), "2021-04-01");
  EXPECT_EQ(study_date(278), "2022-01-01");
  EXPECT_EQ(study_date(364), "2022-03-28");
}

TEST(SimTime, CivilToStudyDay) {
  EXPECT_EQ(civil_to_study_day(2021, 3, 29), 0);
  EXPECT_EQ(civil_to_study_day(2021, 3, 28), -1);
  EXPECT_EQ(civil_to_study_day(2022, 5, 7), 404);
  // Table 4 publication dates land well before the study.
  EXPECT_LT(civil_to_study_day(2015, 2, 23), -2000);
}

TEST(Cdf, CountIsStableAcrossSortStates) {
  // Regression: count() used to branch on the lazy-sort flag (a nonsense
  // ternary with identical arms); it must report the sample count in every
  // add()/query interleaving, sorted or not.
  Cdf c;
  EXPECT_EQ(c.count(), 0u);
  c.add(3.0);
  c.add(1.0);
  EXPECT_EQ(c.count(), 2u);  // unsorted state
  EXPECT_DOUBLE_EQ(c.max(), 3.0);
  EXPECT_EQ(c.count(), 2u);  // sorted state, unchanged
  c.add(2.0);
  EXPECT_EQ(c.count(), 3u);  // dirty again after another add
  EXPECT_DOUBLE_EQ(c.at(2.0), 2.0 / 3.0);
  EXPECT_EQ(c.count(), 3u);
}

// --- thread_pool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(ThreadPool, WaitIdleDrainsTheQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&done] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
  // The pool stays usable after an idle wait.
  pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 33);
}

TEST(ThreadPool, ParallelForRethrowsTheFirstError) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 16, [&](std::size_t i) {
      ++ran;
      if (i == 5 || i == 11) throw std::runtime_error("job " + std::to_string(i));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 5");  // lowest job index wins, deterministically
  }
  EXPECT_EQ(ran.load(), 16) << "a failed job must not cancel its siblings";
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_GE(ThreadPool::default_worker_count(), 1u);
}

// --- fsio --------------------------------------------------------------------

TEST(Fsio, TempNamingRoundTrip) {
  EXPECT_EQ(atomic_temp_path("/a/b/out.mds", 42), "/a/b/.out.mds.tmp42");
  EXPECT_EQ(atomic_temp_path("out.mds", 7), "./.out.mds.tmp7");
  EXPECT_TRUE(is_atomic_temp_name(".out.mds.tmp42"));
  EXPECT_TRUE(is_atomic_temp_name(".MANIFEST.tmp1"));
  EXPECT_FALSE(is_atomic_temp_name("out.mds"));
  EXPECT_FALSE(is_atomic_temp_name("MANIFEST"));
  EXPECT_FALSE(is_atomic_temp_name(".hidden"));
  EXPECT_FALSE(is_atomic_temp_name(".x.tmp"));     // no pid digits
  EXPECT_FALSE(is_atomic_temp_name(".x.tmp12a"));  // non-digit suffix
}

TEST(Fsio, WriteFileAtomicWritesAndReplaces) {
  const malnet::testkit::ScratchDir dir("fsio");
  const auto path = dir.file("fsio_target.bin");
  write_file_atomic(path, std::string_view("first"));
  write_file_atomic(path, std::string_view("second, longer content"));
  std::ifstream f(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "second, longer content");
  EXPECT_FALSE(std::ifstream(atomic_temp_path(path, static_cast<long>(getpid())))
                   .good());
}

TEST(Fsio, WriteFileAtomicThrowsOnMissingDirectory) {
  EXPECT_THROW(
      write_file_atomic("/nonexistent-dir-for-fsio-test/x", std::string_view("v")),
      std::runtime_error);
}
