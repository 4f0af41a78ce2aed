#include "util/stats.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace malnet::util {

void Cdf::add(double x) {
  data_.push_back(x);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
}

double Cdf::mean() const {
  if (data_.empty()) return 0.0;
  return std::accumulate(data_.begin(), data_.end(), 0.0) /
         static_cast<double>(data_.size());
}

double Cdf::min() const {
  if (data_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  return data_.front();
}

double Cdf::max() const {
  if (data_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  return data_.back();
}

double Cdf::at(double x) const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(data_.begin(), data_.end(), x);
  return static_cast<double>(it - data_.begin()) / static_cast<double>(data_.size());
}

double Cdf::mass_at(double x) const {
  if (data_.empty()) return 0.0;
  ensure_sorted();
  const auto lo = std::lower_bound(data_.begin(), data_.end(), x);
  const auto hi = std::upper_bound(data_.begin(), data_.end(), x);
  return static_cast<double>(hi - lo) / static_cast<double>(data_.size());
}

std::vector<std::pair<double, double>> Cdf::steps() const {
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  const auto n = static_cast<double>(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (i + 1 == data_.size() || data_[i + 1] != data_[i]) {
      out.emplace_back(data_[i], static_cast<double>(i + 1) / n);
    }
  }
  return out;
}

}  // namespace malnet::util
