// malnet::obs — the per-phase profiler.
//
// The study pipeline is attributed to a small fixed set of phases. Two
// mechanisms feed them:
//
//  * RAII ScopedTimer — wall-clock for code that runs *outside* the event
//    loop (world building / day planning, result finalization, the shard
//    merge).
//  * Scheduler phase tags (sim::EventScheduler::ScopedPhaseTag) — events
//    carry the tag that was ambient when they were scheduled, and firing
//    an event restores its tag, so whole asynchronous causality chains
//    (a liveness probe and every packet it triggers) are attributed to
//    the phase that started them. Per-tag sim-event counts are always on
//    (one array increment per event); per-tag wall-clock attribution costs
//    two clock reads per event and is enabled only under --profile.
//
// ProfileSnapshot carries wall-clock and therefore is NOT part of the
// metrics determinism contract: the sim_events/ops columns are
// deterministic, the wall_ns column is not (see obs/metrics.hpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace malnet::obs {

/// Pipeline stages. Values double as sim::EventScheduler phase tags, so
/// they must stay within the scheduler's tag budget (8).
enum class Phase : std::uint8_t {
  kOther = 0,     // untagged events (infra timers, teardown)
  kCollect = 1,   // feed collection: world building + day planning
  kWorld = 2,     // botnet-world actor events (C2 lifecycle, commands)
  kSandbox = 3,   // observe-mode detonations
  kProbe = 4,     // liveness probing (weaponized runs + DNS resolution)
  kLiveWatch = 5, // restricted 2 h live runs + DDoS detection
  kCampaign = 6,  // the D-PC2 probing campaign
  kFinalize = 7,  // result finalization + metrics harvest
};
inline constexpr std::size_t kPhaseCount = 8;

[[nodiscard]] const char* to_string(Phase p);
[[nodiscard]] constexpr std::size_t phase_index(Phase p) {
  return static_cast<std::size_t>(p);
}

struct PhaseStats {
  std::uint64_t wall_ns = 0;     // attributed wall-clock
  std::uint64_t sim_events = 0;  // scheduler events executed under this phase
  std::uint64_t ops = 0;         // phase-defined operation count (runs, probes)
  std::uint64_t entries = 0;     // ScopedTimer activations

  void merge(const PhaseStats& other) {
    wall_ns += other.wall_ns;
    sim_events += other.sim_events;
    ops += other.ops;
    entries += other.entries;
  }
};

struct ProfileSnapshot {
  std::array<PhaseStats, kPhaseCount> phases{};

  [[nodiscard]] PhaseStats& operator[](Phase p) { return phases[phase_index(p)]; }
  [[nodiscard]] const PhaseStats& operator[](Phase p) const {
    return phases[phase_index(p)];
  }

  void merge(const ProfileSnapshot& other);

  [[nodiscard]] std::uint64_t total_wall_ns() const;
  [[nodiscard]] std::uint64_t total_sim_events() const;

  /// Fixed-width text table (the `malnetctl study --profile` output).
  [[nodiscard]] std::string render_table() const;
};

/// RAII wall-clock accumulator for non-event-loop work.
class ScopedTimer {
 public:
  explicit ScopedTimer(PhaseStats& stats)
      : stats_(stats), t0_(std::chrono::steady_clock::now()) {
    ++stats_.entries;
  }
  ~ScopedTimer() {
    stats_.wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  PhaseStats& stats_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace malnet::obs
