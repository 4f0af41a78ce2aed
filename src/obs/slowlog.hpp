// malnet::obs — bounded slow-request log.
//
// Keeps the N slowest requests at or above a latency threshold, with
// enough context (op, peer, bytes, trace id) to chase one down after the
// fact. Thread-safe: io threads record, the admin endpoint reads. The
// bound is on *retained* entries, not on traffic — record() is a mutex
// hold plus at most one heap sift, and requests under the threshold only
// pay the threshold compare.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace malnet::obs {

struct SlowEntry {
  std::string op;       // request kind, e.g. "query:count" or "sync:put"
  std::string peer;     // remote address, when known
  std::int64_t latency_us = 0;
  std::uint64_t bytes = 0;          // response payload size
  std::uint64_t trace_id = 0;       // 0 = untraced request
  std::uint64_t span_id = 0;
  std::int64_t wall_us = 0;         // completion time, epoch microseconds
};

class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity = 32, std::int64_t threshold_us = 10'000);

  [[nodiscard]] std::int64_t threshold_us() const;

  /// Re-bounds the log (evicting the fastest retained entries if the new
  /// capacity is smaller) and sets the threshold.
  void configure(std::size_t capacity, std::int64_t threshold_us);

  /// Records `e` if it is slow enough: at or above the threshold, and —
  /// once the log is full — slower than the current fastest retained entry
  /// (which it evicts).
  void record(SlowEntry e);

  /// Retained entries, slowest first; ties break newest first.
  [[nodiscard]] std::vector<SlowEntry> entries() const;

  /// Total record() calls that met the threshold (including evicted ones).
  [[nodiscard]] std::uint64_t seen() const;

  /// One line per entry, slowest first — the /slowz body.
  [[nodiscard]] std::string render_text() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::int64_t threshold_us_;
  std::uint64_t seen_ = 0;
  std::uint64_t next_seq_ = 0;
  // Min-heap on (latency, seq) so the cheapest retained entry is O(1) to
  // find and evict.
  std::vector<std::pair<std::uint64_t, SlowEntry>> heap_;  // first = seq
};

}  // namespace malnet::obs
