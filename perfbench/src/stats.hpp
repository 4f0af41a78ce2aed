// Summary statistics the benchmark reports, and the rules it applies to
// them. Every timing is reported as a median plus the highest percentile
// that still has at least ten samples beyond it, with the sample count.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count).
/// Zero for an empty input.
[[nodiscard]] double median(std::vector<double> xs);

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Requires at least two values.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> xs);

/// Nearest-rank percentile (p in [0, 100]) of `xs`. Zero for empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Median across windows of each window's p-th percentile. One stall of
/// the host (a shared virtual machine is descheduled for milliseconds now
/// and then) spoils one window, not the statistic. Windows with fewer
/// than `min_samples` samples are skipped; zero when none qualify.
[[nodiscard]] double median_window_percentile(
    const std::vector<std::vector<double>>& windows, double p,
    std::size_t min_samples);

/// Highest percentile among {50, 90, 99, 99.9, 99.99} with at least ten
/// samples strictly above its rank, or nullopt when even the median has
/// fewer than ten samples beyond it (n < 20).
[[nodiscard]] std::optional<double> supported_tail_percentile(std::size_t n);

/// A timing summary: median, the supported tail percentile, sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_p = 0;      // which percentile `tail` is (0 = unsupported)
  double tail = 0;
  [[nodiscard]] std::string render(const std::string& unit) const;
};
[[nodiscard]] Summary summarize(const std::vector<double>& xs);

/// One step of the offered-rate ladder, as the max-rate rule sees it.
struct StepVerdict {
  double offered_rps = 0;
  double achieved_rps = 0;
  double p99_us = 0;
  bool backlog_growing = false;
  /// False when the load generator, not the server, fell behind schedule;
  /// such a step neither passes nor fails.
  bool valid = true;
};

/// True when the in-flight backlog sampled across a step grows: the mean
/// of the last quarter of samples exceeds the first quarter's mean by more
/// than `slack` requests and by more than the first quarter's mean itself.
[[nodiscard]] bool backlog_growing(const std::vector<double>& backlog,
                                   double slack = 8);

/// Index of the highest-rate valid step with p99 <= limit_us and no
/// growing backlog; nullopt when no step passes.
[[nodiscard]] std::optional<std::size_t> max_passing_step(
    const std::vector<StepVerdict>& steps, double limit_us);

}  // namespace perfbench
