#include "obs/slowlog.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace malnet::obs {

namespace {

/// Min-heap order: fastest entry on top; among equal latencies the oldest
/// is evicted first.
bool heap_after(const std::pair<std::uint64_t, SlowEntry>& a,
                const std::pair<std::uint64_t, SlowEntry>& b) {
  if (a.second.latency_us != b.second.latency_us) {
    return a.second.latency_us > b.second.latency_us;
  }
  return a.first > b.first;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (int i = 15; i >= 0; --i) out += kHex[(v >> (i * 4)) & 0xF];
  return out;
}

}  // namespace

SlowLog::SlowLog(std::size_t capacity, std::int64_t threshold_us)
    : capacity_(capacity == 0 ? 1 : capacity), threshold_us_(threshold_us) {}

std::int64_t SlowLog::threshold_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_us_;
}

void SlowLog::configure(std::size_t capacity, std::int64_t threshold_us) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  threshold_us_ = threshold_us;
  while (heap_.size() > capacity_) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }
}

void SlowLog::record(SlowEntry e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (e.latency_us < threshold_us_) return;
  ++seen_;
  const std::uint64_t seq = next_seq_++;
  if (heap_.size() >= capacity_) {
    const auto& fastest = heap_.front();
    if (e.latency_us <= fastest.second.latency_us) return;
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }
  heap_.emplace_back(seq, std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
}

std::vector<SlowEntry> SlowLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto sorted = heap_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              if (a.second.latency_us != b.second.latency_us) {
                return a.second.latency_us > b.second.latency_us;
              }
              return a.first > b.first;  // newest first among ties
            });
  std::vector<SlowEntry> out;
  out.reserve(sorted.size());
  for (auto& [seq, e] : sorted) out.push_back(std::move(e));
  return out;
}

std::uint64_t SlowLog::seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

std::string SlowLog::render_text() const {
  const auto rows = entries();
  std::ostringstream os;
  os << "slowlog threshold_us=" << threshold_us() << " seen=" << seen()
     << " retained=" << rows.size() << '\n';
  for (const auto& e : rows) {
    os << e.latency_us << "us op=" << (e.op.empty() ? "?" : e.op)
       << " peer=" << (e.peer.empty() ? "?" : e.peer) << " bytes=" << e.bytes
       << " trace=" << (e.trace_id == 0 ? std::string("-") : hex64(e.trace_id))
       << " wall_us=" << e.wall_us << '\n';
  }
  return os.str();
}

}  // namespace malnet::obs
