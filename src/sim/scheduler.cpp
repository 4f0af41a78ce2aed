#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>

namespace malnet::sim {

namespace {

constexpr std::size_t kArity = 4;

// Ids are unique, so (t, id) is a strict total order and the firing order
// does not depend on the heap's shape.
template <typename Entry>
bool earlier(const Entry& a, const Entry& b) {
  return a.t != b.t ? a.t < b.t : a.id < b.id;
}

}  // namespace

EventId EventScheduler::at(SimTime t, Callback fn) {
  const EventId id = next_id_++;
  settled_.push_back(false);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  push(Entry{std::max(t, now_), id, slot, current_tag_});
  ++live_;
  return id;
}

EventId EventScheduler::after(Duration d, Callback fn) {
  return at(now_ + d, std::move(fn));
}

void EventScheduler::cancel(EventId id) {
  if (id == 0 || id >= next_id_ || settled_[id]) return;
  settled_[id] = true;
  --live_;
}

void EventScheduler::push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventScheduler::pop_head() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventScheduler::prune() {
  while (!heap_.empty() && settled_[heap_.front().id]) {
    const std::uint32_t slot = heap_.front().slot;
    pop_head();
    // Free the slot before the callback dies, so a destructor that
    // schedules sees consistent bookkeeping.
    const Callback dead = std::move(slots_[slot]);
    free_slots_.push_back(slot);
  }
}

bool EventScheduler::pop_one() {
  prune();
  if (heap_.empty()) return false;
  const Entry ev = heap_.front();
  pop_head();
  // Move the callback out before running it: it may schedule into this
  // slot or grow the slot vector.
  Callback fn = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
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
    fn();
    wall_ns_by_tag_[ev.tag] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    fn();
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
  while (!heap_.empty() && heap_.front().t <= t) {
    if (!pop_one()) break;
    ++n;
    prune();
  }
  now_ = std::max(now_, t);
  return n;
}

}  // namespace malnet::sim
