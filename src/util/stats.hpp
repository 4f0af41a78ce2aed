// Descriptive statistics used by the report module: empirical CDFs (the
// paper's Figures 2, 3, 5, 6, 7, 13 are all CDFs).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace malnet::util {

/// Empirical cumulative distribution over double samples.
class Cdf {
 public:
  void add(double x);

  /// Number of samples; independent of whether the lazy sort has run.
  [[nodiscard]] std::size_t count() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] double mean() const;
  /// Smallest/largest sample. NaN on an empty CDF — degraded/chaos studies
  /// legitimately produce empty datasets, and figure emitters must render
  /// a "no data" row rather than crash.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// P(X <= x). 0 for empty CDFs.
  [[nodiscard]] double at(double x) const;

  /// Fraction of samples exactly equal to x (useful for "80% have lifespan
  /// of exactly one day" style statements on integer-valued data).
  [[nodiscard]] double mass_at(double x) const;

  /// Renders "value  cumulative%" rows at each distinct sample value —
  /// the exact series a paper CDF figure plots.
  [[nodiscard]] std::vector<std::pair<double, double>> steps() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> data_;
  mutable bool sorted_ = true;
};

}  // namespace malnet::util
