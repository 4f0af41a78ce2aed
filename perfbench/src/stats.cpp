#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest-rank position of percentile p among n samples; the
/// epsilon keeps p*n/100 from rounding up past an exact integer rank.
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("quartiles: need two values");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<long>(xs.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4;
  }
  return {cut[0], cut[1], cut[2]};
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = nearest_rank(p, xs.size());
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double median_window_percentile(const std::vector<std::vector<double>>& windows,
                                double p, std::size_t min_samples) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (w.size() >= min_samples) per_window.push_back(percentile(w, p));
  }
  return median(std::move(per_window));
}

std::optional<double> supported_tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 50};
  for (const double p : kLadder) {
    // Samples strictly above the nearest-rank position of p.
    const double rank = nearest_rank(p, n);
    if (static_cast<double>(n) - rank >= 10) return p;
  }
  return std::nullopt;
}

std::string Summary::render(const std::string& unit) const {
  char buf[160];
  if (tail_p > 50) {
    std::snprintf(buf, sizeof buf, "p50 %.3f %s, p%g %.3f %s (n=%zu)", p50,
                  unit.c_str(), tail_p, tail, unit.c_str(), n);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.3f %s (n=%zu; too few for a higher percentile)",
                  p50, unit.c_str(), n);
  }
  return buf;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  s.p50 = median(xs);
  if (const auto p = supported_tail_percentile(xs.size())) {
    s.tail_p = *p;
    s.tail = percentile(xs, *p);
  }
  return s;
}

bool backlog_growing(const std::vector<double>& backlog, double slack) {
  if (backlog.size() < 4) return false;
  const std::size_t q = backlog.size() / 4;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += backlog[i];
    last += backlog[backlog.size() - 1 - i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last - first > std::max(slack, first);
}

std::optional<std::size_t> max_passing_step(const std::vector<StepVerdict>& steps,
                                            double limit_us) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    if (!s.valid || s.backlog_growing || s.p99_us > limit_us) continue;
    if (!best || s.offered_rps > steps[*best].offered_rps) best = i;
  }
  return best;
}

}  // namespace perfbench
