// Open-loop query load generator. One thread drives a few persistent
// connections to a serve::Server: request i of a step is due at
// start + i / rate whatever the server is doing, and its latency is timed
// from when it was due, so a stall also charges the requests queued behind
// it. The generator reports how late it handed requests to the socket
// layer (its own lag, which invalidates a step when too large) separately
// from the in-flight backlog (which grows only when the server falls
// behind).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "serve/wire.hpp"
#include "util/socket.hpp"

namespace perfbench {

struct StepStats {
  double offered_rps = 0;
  double achieved_rps = 0;     // responses per second of the step
  std::vector<double> latency_us;  // response time minus due time
  std::vector<double> rtt_us;      // response time minus hand-off time
  std::vector<double> lag_us;      // hand-off time minus due time
  /// latency_us and lag_us again, split into consecutive windows of the
  /// step by due time.
  std::vector<std::vector<double>> latency_windows;
  std::vector<std::vector<double>> lag_windows;
  std::vector<double> backlog;     // in-flight requests, sampled every 5 ms
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;  // lost, refused, or answered wrongly
  double backlog_max = 0;
  /// Sending stopped early because the oldest unanswered request was more
  /// than kOverloadAgeMs overdue: the server is past its knee. The rest of
  /// the step's requests were never sent (nor counted as attempted).
  bool overloaded = false;
};

/// Generator lag (p99) above which a step is the generator's fault.
inline constexpr double kGeneratorLagLimitUs = 500;
/// Age of the oldest unanswered request at which a step stops sending, so
/// a step past the knee leaves a backlog that drains in a bounded time.
inline constexpr double kOverloadAgeMs = 500;

class LoadGenerator {
 public:
  /// `schedule` lists, in send order, indexes into the oracle's queries; it
  /// is cycled. `pushed` counts segments imported into the served store so
  /// far (null when nothing is pushed during the run).
  LoadGenerator(AnswerOracle& oracle, std::vector<std::size_t> schedule,
                const std::atomic<std::size_t>* pushed);

  /// Opens `connections` persistent connections. False on any failure.
  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port,
                             int connections);

  /// Runs one open-loop step at `rate` requests/s for `seconds`, then
  /// waits up to `drain_seconds` for the stragglers. Samples are also
  /// grouped into windows of `window_seconds` by due time.
  [[nodiscard]] StepStats run_step(double rate, double seconds, double window_seconds,
                                   double drain_seconds = 5.0);

  /// Answers that differed from the base state and were then checked
  /// against the prefix states: (checked, rejected).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> slow_path_checks() const {
    return {slow_checked_, slow_rejected_};
  }

 private:
  struct InFlight {
    std::uint64_t id;
    std::int64_t due_ns;
    std::int64_t sent_ns;
    std::size_t query;
  };
  struct Conn {
    malnet::util::Fd fd;
    malnet::util::Bytes out;
    std::size_t out_pos = 0;
    malnet::serve::FrameReader reader;
    std::vector<InFlight> inflight;  // FIFO; `head` is the oldest
    std::size_t head = 0;
    std::uint64_t next_id = 1;
    bool dead = false;
  };

  std::vector<double>& window_of(std::vector<std::vector<double>>& windows,
                                 std::int64_t due_ns) const;
  bool flush(Conn& c);
  void receive(Conn& c, std::int64_t now_ns, StepStats& st);

  AnswerOracle& oracle_;
  std::int64_t step_start_ns_ = 0;
  std::int64_t window_ns_ = 1;
  std::vector<std::size_t> schedule_;
  std::size_t cursor_ = 0;
  const std::atomic<std::size_t>* pushed_;
  std::vector<Conn> conns_;
  /// Distinct answers of this step that differ from the base state, with
  /// the most segments pushed by the time each arrived.
  std::map<std::pair<std::size_t, std::string>, std::size_t> pending_;
  std::uint64_t slow_checked_ = 0;
  std::uint64_t slow_rejected_ = 0;
};

}  // namespace perfbench
