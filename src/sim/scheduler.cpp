#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>

namespace malnet::sim {

EventId EventScheduler::at(SimTime t, std::function<void()> fn) {
  const EventId id = next_id_++;
  settled_.push_back(false);
  queue_.push(Ev{std::max(t, now_), id, std::move(fn), current_tag_});
  ++live_;
  return id;
}

EventId EventScheduler::after(Duration d, std::function<void()> fn) {
  return at(now_ + d, std::move(fn));
}

void EventScheduler::cancel(EventId id) {
  if (id == 0 || id >= next_id_ || settled_[id]) return;
  settled_[id] = true;
  --live_;
}

void EventScheduler::prune() {
  while (!queue_.empty() && settled_[queue_.top().id]) queue_.pop();
}

bool EventScheduler::pop_one() {
  prune();
  if (queue_.empty()) return false;
  // const_cast to move the callback out; the element is popped immediately.
  Ev ev = std::move(const_cast<Ev&>(queue_.top()));
  queue_.pop();
  settled_[ev.id] = true;
  now_ = ev.t;
  --live_;
  ++executed_;
  // Restore the event's phase as ambient so anything it schedules inherits
  // the causality chain's attribution.
  current_tag_ = ev.tag;
  ++executed_by_tag_[ev.tag];
  if (wall_profiling_) {
    const auto t0 = std::chrono::steady_clock::now();
    ev.fn();
    wall_ns_by_tag_[ev.tag] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    ev.fn();
  }
  return true;
}

std::size_t EventScheduler::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && pop_one()) ++n;
  return n;
}

std::size_t EventScheduler::run_until(SimTime t) {
  std::size_t n = 0;
  prune();
  while (!queue_.empty() && queue_.top().t <= t) {
    if (!pop_one()) break;
    ++n;
    prune();
  }
  now_ = std::max(now_, t);
  return n;
}

}  // namespace malnet::sim
