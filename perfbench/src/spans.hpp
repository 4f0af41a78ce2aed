// The traced run's span log. Spans are recorded from the benchmark's own
// code around its calls into each layer's public functions (nothing inside
// the program is instrumented), kept in memory, and written out as a
// Chrome trace at exit. A layer's self time is its spans' durations minus
// the parts of them covered by child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string layer;
  std::int64_t start_us = 0;  // since the log was created
  std::int64_t end_us = -1;   // -1 while open
};

/// A child known only by its duration, such as a phase of the program's
/// own wall-clock profile: it is charged to `layer` and subtracted from
/// the parent's self time, but has no interval of its own.
struct Attribution {
  std::uint64_t parent = 0;
  std::string name;
  std::string layer;
  std::int64_t dur_us = 0;
};

/// Thread-safe. A disabled log records nothing and hands out id 0.
class SpanLog {
 public:
  SpanLog(std::uint64_t run_id, bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::int64_t now_us() const;
  /// Converts an epoch wall-clock time (obs::wall_now_us) to log time.
  [[nodiscard]] std::int64_t from_wall_us(std::int64_t wall_us) const {
    return wall_us - wall0_us_;
  }

  std::uint64_t begin(std::string name, std::string layer, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Records a span with a known interval (for example one measured on
  /// another clock and converted).
  std::uint64_t add(std::string name, std::string layer, std::uint64_t parent,
                    std::int64_t start_us, std::int64_t end_us);
  void attribute(std::uint64_t parent, std::string name, std::string layer,
                 std::int64_t dur_us);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes every span through obs::write_chrome_trace; the run id is the
  /// trace id and the pid, the parent id and self time ride in args.
  void write_chrome_trace(const std::string& path) const;

 private:
  const std::uint64_t run_id_;
  const bool enabled_;
  const std::chrono::steady_clock::time_point t0_;
  const std::int64_t wall0_us_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  std::vector<Attribution> attributions_;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string layer,
             std::uint64_t parent = 0)
      : log_(log), id_(log.begin(std::move(name), std::move(layer), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to it) minus its attributed children. Indexed like
/// `spans`; exposed for the self-tests.
[[nodiscard]] std::vector<std::int64_t> self_times_us(
    const std::vector<Span>& spans, const std::vector<Attribution>& attributions);

}  // namespace perfbench
