#include "core/prober.hpp"

#include <set>

#include "util/log.hpp"

namespace malnet::core {

void probe_liveness(emu::Sandbox& sandbox, const Weapon& weapon, net::Endpoint target,
                    std::function<void(LivenessResult)> done, sim::Duration duration,
                    ProbePolicy policy) {
  if (!done) throw std::invalid_argument("probe_liveness: null callback");
  emu::SandboxOptions opts;
  opts.mode = emu::SandboxMode::kWeaponized;
  opts.duration = duration;
  opts.c2_hint = weapon.c2_hint;
  opts.mitm_target = target;
  const int attempts_left = std::max(1, policy.attempts) - 1;
  sandbox.start(weapon.binary, opts,
                [&sandbox, weapon, target, duration, policy, attempts_left,
                 done = std::move(done)](const emu::SandboxReport& report) mutable {
                  LivenessResult res;
                  res.first_data = report.mitm_first_data;
                  // A well-known service banner means we reached something
                  // benign, not a C2 (§2.6 filtering).
                  res.engaged =
                      report.mitm_engaged &&
                      !inetsim::is_well_known_banner(util::to_string(res.first_data));
                  if (res.engaged || attempts_left <= 0) {
                    done(res);
                    return;
                  }
                  // Re-probe: a dead first attempt may just be injected loss.
                  ProbePolicy next = policy;
                  next.attempts = attempts_left;
                  sandbox.network().scheduler().after(
                      policy.retry_delay,
                      [&sandbox, weapon, target, duration, next,
                       done = std::move(done)]() mutable {
                        probe_liveness(sandbox, weapon, target, std::move(done),
                                       duration, next);
                      });
                });
}

// ---------------------------------------------------------------------------

struct ProbeCampaign::Round {
  int round = 0;
  std::int64_t start_sim_us = 0;
  std::vector<net::Endpoint> queue;
  std::size_t next = 0;
  int outstanding = 0;
  bool scouting_done = false;
  std::vector<net::Endpoint> candidates;
  std::size_t next_candidate = 0;
  std::size_t weapon_idx = 0;
  std::set<net::Endpoint> responsive;
};

ProbeCampaign::ProbeCampaign(sim::Network& net, emu::Sandbox& sandbox,
                             ProbeCampaignConfig cfg, std::vector<Weapon> weapons,
                             std::function<void(ProbeCampaignResult)> done)
    : net_(net),
      sandbox_(sandbox),
      cfg_(std::move(cfg)),
      weapons_(std::move(weapons)),
      done_(std::move(done)) {
  if (cfg_.subnets.empty() || cfg_.ports.empty() || weapons_.empty() || !done_) {
    throw std::invalid_argument("ProbeCampaign: incomplete configuration");
  }
  scout_ = std::make_unique<sim::Host>(net_, net::Ipv4{192, 0, 2, 9}, "prober-scout");
}

ProbeCampaign::~ProbeCampaign() = default;

void ProbeCampaign::start() { run_round(0); }

void ProbeCampaign::run_round(int round) {
  if (round >= cfg_.rounds) {
    result_.rounds = cfg_.rounds;
    for (auto& [ep, bits] : full_raster_) {
      bool any = false;
      for (const bool b : bits) any |= b;
      if (any) result_.raster.emplace(ep, bits);
    }
    done_(std::move(result_));
    return;
  }
  // Only one round runs at a time, and every closure that refers to it
  // has fired before it finishes: the round engages its candidates only
  // after every scout probe and banner wait has reported, and finishes
  // only after its last engagement has. So closures reach the round
  // through `this`, and the next round replaces it.
  round_ = std::make_unique<Round>();
  Round& state = *round_;
  state.round = round;
  state.start_sim_us = net_.now().us;
  for (const auto& subnet : cfg_.subnets) {
    for (std::uint32_t h = 1; h + 1 < subnet.size(); ++h) {
      for (const auto port : cfg_.ports) {
        state.queue.push_back({subnet.host(h), port});
      }
    }
  }
  scout_next();
}

void ProbeCampaign::scout_next() {
  Round& state = *round_;
  // Issue one 100 ms batch of scout probes: stateless SYNs that make a
  // connection only for a target that answers.
  const auto batch = static_cast<std::size_t>(cfg_.scout_rate_pps / 10.0) + 1;
  for (std::size_t i = 0; i < batch && state.next < state.queue.size(); ++i) {
    const net::Endpoint target = state.queue[state.next++];
    ++result_.scout_probes;
    ++state.outstanding;
    scout_->tcp_probe(
        target,
        [this, target](sim::ConnectOutcome outcome, sim::TcpConn* conn) {
          Round& state = *round_;
          if (outcome != sim::ConnectOutcome::kConnected || conn == nullptr) {
            --state.outstanding;
            if (state.scouting_done && state.outstanding == 0) {
              engage_candidates();
            }
            return;
          }
          // Listener found: wait briefly for a service banner.
          auto banner = std::make_shared<std::string>();
          conn->on_data([banner](sim::TcpConn&, util::BytesView data) {
            banner->append(reinterpret_cast<const char*>(data.data()), data.size());
          });
          sim::TcpConn* conn_ptr = conn;
          scout_->schedule_safe(cfg_.banner_wait, [this, target, banner, conn_ptr]() {
            Round& state = *round_;
            if (conn_ptr->established()) conn_ptr->close();
            if (!banner->empty() && inetsim::is_well_known_banner(*banner)) {
              ++result_.banner_filtered;
            } else {
              state.candidates.push_back(target);
            }
            --state.outstanding;
            if (state.scouting_done && state.outstanding == 0) {
              engage_candidates();
            }
          });
        },
        sim::Duration::seconds(2));
  }
  if (state.next < state.queue.size()) {
    scout_->schedule_safe(sim::Duration::millis(100), [this]() { scout_next(); });
  } else {
    state.scouting_done = true;
    if (state.outstanding == 0) engage_candidates();
  }
}

void ProbeCampaign::engage_candidates() {
  Round& state = *round_;
  if (state.next_candidate >= state.candidates.size()) {
    finish_round();
    return;
  }
  const net::Endpoint target = state.candidates[state.next_candidate];
  if (state.weapon_idx >= weapons_.size()) {
    // No weapon engaged this target; move on.
    state.weapon_idx = 0;
    ++state.next_candidate;
    engage_candidates();
    return;
  }
  const Weapon& weapon = weapons_[state.weapon_idx];
  ++result_.weapon_runs;
  probe_liveness(sandbox_, weapon, target, [this, target](LivenessResult res) {
    Round& state = *round_;
    if (res.engaged) {
      state.responsive.insert(target);
      state.weapon_idx = 0;
      ++state.next_candidate;
    } else {
      ++state.weapon_idx;
    }
    engage_candidates();
  });
}

void ProbeCampaign::finish_round() {
  const Round& state = *round_;
  // Record this round's outcome for every target we have ever seen listen.
  for (const auto& ep : state.candidates) {
    full_raster_.try_emplace(ep, std::vector<bool>(static_cast<std::size_t>(cfg_.rounds)));
  }
  for (auto& [ep, bits] : full_raster_) {
    bits[static_cast<std::size_t>(state.round)] = state.responsive.count(ep) > 0;
  }
  if (cfg_.obs != nullptr) {
    cfg_.obs->registry.counter("campaign.rounds").inc();
    if (cfg_.obs->tracer.enabled()) {
      std::string args = "\"round\":" + std::to_string(state.round) +
                         ",\"candidates\":" + std::to_string(state.candidates.size()) +
                         ",\"responsive\":" + std::to_string(state.responsive.size());
      cfg_.obs->tracer.complete("campaign:round " + std::to_string(state.round),
                                "campaign", state.start_sim_us, args);
    }
  }
  const int next_round = state.round + 1;
  scout_->schedule_safe(cfg_.interval, [this, next_round]() { run_round(next_round); });
}

}  // namespace malnet::core
