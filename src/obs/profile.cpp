#include "obs/profile.hpp"

#include <cstdio>

namespace malnet::obs {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kOther: return "other";
    case Phase::kCollect: return "collect";
    case Phase::kWorld: return "world";
    case Phase::kSandbox: return "sandbox";
    case Phase::kProbe: return "probe";
    case Phase::kLiveWatch: return "live-watch";
    case Phase::kCampaign: return "campaign";
    case Phase::kFinalize: return "finalize";
  }
  return "?";
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) phases[i].merge(other.phases[i]);
}

std::uint64_t ProfileSnapshot::total_wall_ns() const {
  std::uint64_t total = 0;
  for (const auto& s : phases) total += s.wall_ns;
  return total;
}

std::uint64_t ProfileSnapshot::total_sim_events() const {
  std::uint64_t total = 0;
  for (const auto& s : phases) total += s.sim_events;
  return total;
}

std::string ProfileSnapshot::render_table() const {
  const std::uint64_t wall_total = total_wall_ns();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %12s %7s %12s %12s %8s\n", "phase",
                "wall (ms)", "wall %", "sim events", "ops", "entries");
  out += line;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseStats& s = phases[i];
    if (s.wall_ns == 0 && s.sim_events == 0 && s.ops == 0 && s.entries == 0) {
      continue;
    }
    const double pct = wall_total == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(s.wall_ns) /
                                 static_cast<double>(wall_total);
    std::snprintf(line, sizeof(line), "%-12s %12.2f %6.1f%% %12llu %12llu %8llu\n",
                  to_string(static_cast<Phase>(i)),
                  static_cast<double>(s.wall_ns) / 1e6, pct,
                  static_cast<unsigned long long>(s.sim_events),
                  static_cast<unsigned long long>(s.ops),
                  static_cast<unsigned long long>(s.entries));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-12s %12.2f %6.1f%% %12llu\n", "total",
                static_cast<double>(wall_total) / 1e6, wall_total ? 100.0 : 0.0,
                static_cast<unsigned long long>(total_sim_events()));
  out += line;
  return out;
}

}  // namespace malnet::obs
