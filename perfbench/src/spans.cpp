#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

SpanLog::SpanLog(std::uint64_t run_id, bool enabled)
    : run_id_(run_id),
      enabled_(enabled),
      t0_(std::chrono::steady_clock::now()),
      wall0_us_(malnet::obs::wall_now_us()) {}

std::int64_t SpanLog::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

std::uint64_t SpanLog::begin(std::string name, std::string layer,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  const auto start = now_us();
  std::lock_guard lock(mu_);
  spans_.push_back({spans_.size() + 1, parent, std::move(name), std::move(layer),
                    start, -1});
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const auto stop = now_us();
  std::lock_guard lock(mu_);
  spans_.at(id - 1).end_us = stop;
}

std::uint64_t SpanLog::add(std::string name, std::string layer, std::uint64_t parent,
                           std::int64_t start_us, std::int64_t end_us) {
  if (!enabled_) return 0;
  std::lock_guard lock(mu_);
  spans_.push_back({spans_.size() + 1, parent, std::move(name), std::move(layer),
                    start_us, end_us});
  return spans_.back().id;
}

void SpanLog::attribute(std::uint64_t parent, std::string name, std::string layer,
                        std::int64_t dur_us) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  attributions_.push_back({parent, std::move(name), std::move(layer), dur_us});
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<std::int64_t> self_times_us(const std::vector<Span>& spans,
                                        const std::vector<Attribution>& attributions) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  std::vector<std::int64_t> attributed(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent - 1].emplace_back(s.start_us, s.end_us);
    }
  }
  for (const auto& a : attributions) {
    if (a.parent != 0 && a.parent <= spans.size()) attributed[a.parent - 1] += a.dur_us;
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, s.end_us - s.start_us - covered - attributed[i]);
  }
  return self;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::lock_guard lock(mu_);
  const auto self = self_times_us(spans_, attributions_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) / 1000.0;
  }
  for (const auto& a : attributions_) {
    out[a.layer] += static_cast<double>(a.dur_us) / 1000.0;
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mu_);
  const auto self = self_times_us(spans_, attributions_);
  std::vector<malnet::obs::TraceEvent> events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    malnet::obs::TraceEvent ev;
    ev.name = s.name;
    ev.category = s.layer;
    ev.phase = 'X';
    ev.clock = 'w';
    ev.wall_us = wall0_us_ + s.start_us;
    ev.dur_us = s.end_us - s.start_us;
    ev.pid = static_cast<int>(run_id_);
    ev.trace_id = run_id_;
    ev.span_id = s.id;
    ev.args_json = "\"parent\":" + std::to_string(s.parent) +
                   ",\"self_us\":" + std::to_string(self[i]);
    for (const auto& a : attributions_) {
      if (a.parent == s.id) {
        ev.args_json += ",\"" + malnet::obs::json_escape(a.name) +
                        "_us\":" + std::to_string(a.dur_us);
      }
    }
    events.push_back(std::move(ev));
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  malnet::obs::write_chrome_trace(out, events);
}

}  // namespace perfbench
