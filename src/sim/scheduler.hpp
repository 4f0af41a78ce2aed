// Discrete-event scheduler: the single source of time for the simulation.
//
// Events fire in (time, id) order. Ids are issued in insertion order, so
// equal-time events fire in insertion order, which makes every run
// deterministic. The queue is a 4-ary min-heap of small plain entries
// (time, id, slot, tag); each names a slot in a reused vector that holds
// the event's callback, and a callback keeps closures of up to 80 bytes
// inline, so scheduling a typical event allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/simtime.hpp"

namespace malnet::sim {

using util::Duration;
using util::SimTime;

/// Token used to cancel a scheduled event.
using EventId = std::uint64_t;

/// An event's callback. The inline buffer holds the hot closures: a packet
/// delivery (network, address, 64-byte Packet) is 80 bytes, and a connect
/// timeout (host, connection key, lifetime guard) is 40.
using Callback = util::InlineFunction<void(), 80>;

/// Phase attribution tag (see obs/profile.hpp for the pipeline's mapping).
/// Events inherit the ambient tag at schedule time, and firing an event
/// restores its tag as ambient — so an asynchronous causality chain keeps
/// the tag of whatever phase started it.
using PhaseTag = std::uint8_t;
inline constexpr std::size_t kMaxPhaseTags = 8;

class EventScheduler {
 public:
  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  EventId at(SimTime t, Callback fn);
  /// Schedules `fn` after `d` from now.
  EventId after(Duration d, Callback fn);

  /// Cancels a pending event. No-op if already fired or cancelled.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(SimTime t);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // --- Phase attribution (observability) ---------------------------------
  [[nodiscard]] PhaseTag phase_tag() const { return current_tag_; }
  /// Sets the ambient tag stamped onto subsequently scheduled events.
  /// Out-of-range tags fold into tag 0 ("other").
  void set_phase_tag(PhaseTag tag) {
    current_tag_ = tag < kMaxPhaseTags ? tag : PhaseTag{0};
  }
  /// Per-event wall-clock attribution (two steady_clock reads per event);
  /// off by default — per-tag *event counts* are always maintained.
  void set_wall_profiling(bool on) { wall_profiling_ = on; }
  [[nodiscard]] bool wall_profiling() const { return wall_profiling_; }
  [[nodiscard]] std::uint64_t executed_by_tag(PhaseTag tag) const {
    return tag < kMaxPhaseTags ? executed_by_tag_[tag] : 0;
  }
  [[nodiscard]] std::uint64_t wall_ns_by_tag(PhaseTag tag) const {
    return tag < kMaxPhaseTags ? wall_ns_by_tag_[tag] : 0;
  }

 private:
  /// A heap entry; the callback waits in slots_[slot].
  struct Entry {
    SimTime t;
    EventId id;
    std::uint32_t slot;
    PhaseTag tag;
  };

  void push(const Entry& e);
  void pop_head();  // removes heap_[0]
  void prune();     // drops cancelled events from the head of the queue
  bool pop_one();   // fires the earliest event; false if queue empty

  std::vector<Entry> heap_;  // 4-ary min-heap on (t, id)
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  // One bit per issued id (ids are dense from 1; bit 0 stays unused), set
  // once the event fires or is cancelled. A cancelled event stays in the
  // heap, and its callback in its slot, until prune() reaches it.
  std::vector<bool> settled_ = std::vector<bool>(1);
  SimTime now_{0};
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  PhaseTag current_tag_ = 0;
  bool wall_profiling_ = false;
  std::array<std::uint64_t, kMaxPhaseTags> executed_by_tag_{};
  std::array<std::uint64_t, kMaxPhaseTags> wall_ns_by_tag_{};
};

/// RAII ambient-tag switch: events scheduled inside the scope (and their
/// whole downstream chains) are attributed to `tag`.
class ScopedPhaseTag {
 public:
  ScopedPhaseTag(EventScheduler& sched, PhaseTag tag)
      : sched_(sched), prev_(sched.phase_tag()) {
    sched_.set_phase_tag(tag);
  }
  ~ScopedPhaseTag() { sched_.set_phase_tag(prev_); }
  ScopedPhaseTag(const ScopedPhaseTag&) = delete;
  ScopedPhaseTag& operator=(const ScopedPhaseTag&) = delete;

 private:
  EventScheduler& sched_;
  PhaseTag prev_;
};

}  // namespace malnet::sim
