// malnet::obs — the tracer: one span recorder for every plane.
//
// Lightweight span/event records: sim-clock events from the study pipeline
// (sample analysed, C2 probe, live run, DDoS detection, probe-campaign
// round, ...) and wall-clock spans from the serve and sync planes, each
// exportable as Chrome trace_event JSON (open in chrome://tracing or
// https://ui.perfetto.dev).
//
// The Chrome export maps simulated microseconds to the "ts"/"dur" fields,
// the shard index to "pid" and the event category to "tid", so a sharded
// study renders as one process lane per shard with per-subsystem tracks.
// Wall-clock is carried in args ("wall_us") — it is informational and NOT
// covered by the determinism contract (see obs/metrics.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace malnet::obs {

/// Current wall-clock, epoch microseconds (system_clock).
[[nodiscard]] std::int64_t wall_now_us();

/// "0x" + 16 lowercase hex digits — the rendering for trace/span ids.
[[nodiscard]] std::string hex_id(std::uint64_t v);

struct TraceEvent {
  std::string name;      // "sandbox:observe", "campaign-round", ...
  std::string category;  // track: "sandbox", "pipeline", "campaign", ...
  char phase = 'i';      // 'X' = complete (span), 'i' = instant
  char clock = 's';      // 's' = sim-time span, 'w' = wall-clock span
  std::int64_t sim_us = 0;   // simulated start time ('s' events)
  std::int64_t dur_us = 0;   // duration ('X' only; sim or wall per `clock`)
  std::int64_t wall_us = 0;  // wall-clock: record time ('s') / start ('w')
  int pid = 0;               // shard index (set by the study merge)
  std::uint64_t trace_id = 0;  // cross-node request correlation (0 = none)
  std::uint64_t span_id = 0;
  /// Extra fields, pre-rendered as the *inside* of a JSON object, e.g.
  /// "\"packets\":12,\"mode\":\"observe\"". Empty means no args.
  std::string args_json;
};

/// The one span recorder: a bounded, thread-safe buffer of TraceEvents.
/// The study pipeline records sim-clock events (instant, complete); the
/// serve and sync planes record wall-clock spans carrying trace and span
/// ids (span), which the admin thread snapshots for /tracez. Disabled by
/// default: a disabled tracer takes no lock and buffers nothing.
class Tracer {
 public:
  /// Records beyond `capacity` are counted as dropped instead of buffered
  /// (year-long traced studies and long-running servers stay bounded).
  explicit Tracer(std::size_t capacity = 1u << 20) : capacity_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The tracer reads simulated time through this hook (set by the owning
  /// pipeline to its scheduler's clock). Set once, before the first
  /// record. Unset == sim time 0.
  void set_sim_clock(std::function<std::int64_t()> clock) {
    sim_clock_ = std::move(clock);
  }
  [[nodiscard]] std::int64_t now_sim_us() const {
    return sim_clock_ ? sim_clock_() : 0;
  }

  /// Records an instant event at the current sim time.
  void instant(std::string name, std::string category, std::string args_json = {});

  /// Records a span from `start_sim_us` to the current sim time.
  void complete(std::string name, std::string category, std::int64_t start_sim_us,
                std::string args_json = {});

  /// Records a wall-clock span starting at `start_wall_us` (see
  /// wall_now_us()). Wall spans sit outside the determinism contract; the
  /// Chrome export places them on the wall timeline (`clock == 'w'`).
  void span(std::string name, std::string category, std::int64_t start_wall_us,
            std::int64_t dur_us, std::uint64_t trace_id, std::uint64_t span_id,
            std::string args_json = {});

  /// Copy of the buffer, taken under the lock.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Moves the buffer out (used at end-of-run to hand events to results).
  [[nodiscard]] std::vector<TraceEvent> take();
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  void push(TraceEvent ev);

  std::atomic<bool> enabled_{false};
  std::function<std::int64_t()> sim_clock_;
  const std::size_t capacity_;
  mutable std::mutex mu_;  // guards events_ and dropped_
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Chrome trace_event JSON ({"traceEvents":[...]}). Events are written in
/// the order given; Chrome/Perfetto sort by ts themselves.
void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events);

/// Same document as a string (convenience for the admin endpoint).
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Merges Chrome trace documents from several processes into one: node i's
/// events are re-stamped with pid=i and a process_name metadata event
/// carrying the node label, so a cross-node request renders as one trace
/// with one lane per process. Returns nullopt if any document fails to
/// parse or lacks a traceEvents array.
[[nodiscard]] std::optional<std::string> merge_chrome_traces(
    const std::vector<std::pair<std::string, std::string>>& node_docs);

/// JSON string escaping (shared with the exporters; exposed for reuse).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace malnet::obs
