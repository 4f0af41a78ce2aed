// Active probing (§2.1 mode 2 + §2.3b).
//
//  * probe_liveness — one weaponized sandbox run whose C2 flow is MITM-
//    redirected at a target endpoint; reports whether the target engaged
//    with the malware's protocol. The pipeline uses this to liveness-check
//    every referred C2 on its discovery day.
//
//  * ProbeCampaign — the two-week D-PC2 study: every 4 hours, sweep 6
//    subnets x 12 ports for listeners (respecting §2.6: no second packet
//    to hosts that do not listen; banner-identified benign services are
//    skipped), then engage remaining candidates with the weaponized
//    binaries and record which respond.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "emu/sandbox.hpp"
#include "inetsim/services.hpp"
#include "sim/network.hpp"

namespace malnet::core {

/// Result of one weaponized engagement attempt.
struct LivenessResult {
  bool engaged = false;
  util::Bytes first_data;  // what the target said first (protocol evidence)
};

/// One weapon: a binary plus the C2 flow inside it to hijack.
struct Weapon {
  util::Bytes binary;
  net::Endpoint c2_hint;
};

/// Re-probe policy for liveness checks. The default (one attempt) is the
/// classic behaviour; chaos studies raise `attempts` so a probe that died
/// to injected loss gets another shot before the C2 is declared dead.
struct ProbePolicy {
  int attempts = 1;
  sim::Duration retry_delay = sim::Duration::seconds(30);
};

/// Fires a weaponized run at `target`. `done` is invoked once.
void probe_liveness(emu::Sandbox& sandbox, const Weapon& weapon, net::Endpoint target,
                    std::function<void(LivenessResult)> done,
                    sim::Duration duration = sim::Duration::seconds(90),
                    ProbePolicy policy = {});

struct ProbeCampaignConfig {
  std::vector<net::Subnet> subnets;
  std::vector<net::Port> ports;
  sim::Duration interval = sim::Duration::hours(4);
  int rounds = 84;  // 6 probes/day for two weeks
  double scout_rate_pps = 120.0;
  sim::Duration banner_wait = sim::Duration::millis(1500);
  /// Observability sink (owned by the enclosing pipeline; may be null):
  /// counts rounds and emits one trace span per campaign round.
  obs::Observer* obs = nullptr;
};

struct ProbeCampaignResult {
  int rounds = 0;
  /// Response raster (Figure 4): for each ever-responsive target, one bool
  /// per probe round.
  std::map<net::Endpoint, std::vector<bool>> raster;
  std::uint64_t scout_probes = 0;
  std::uint64_t weapon_runs = 0;
  std::uint64_t banner_filtered = 0;
};

/// Runs the campaign; `done` fires after the final round. The campaign
/// object must stay alive until then.
class ProbeCampaign {
 public:
  ProbeCampaign(sim::Network& net, emu::Sandbox& sandbox, ProbeCampaignConfig cfg,
                std::vector<Weapon> weapons,
                std::function<void(ProbeCampaignResult)> done);
  ~ProbeCampaign();
  ProbeCampaign(const ProbeCampaign&) = delete;
  ProbeCampaign& operator=(const ProbeCampaign&) = delete;

  void start();

 private:
  struct Round;

  void run_round(int round);
  void scout_next();
  void engage_candidates();
  void finish_round();

  sim::Network& net_;
  emu::Sandbox& sandbox_;
  ProbeCampaignConfig cfg_;
  std::vector<Weapon> weapons_;
  std::function<void(ProbeCampaignResult)> done_;
  std::unique_ptr<sim::Host> scout_;
  std::unique_ptr<Round> round_;  // the round in progress
  ProbeCampaignResult result_;
  std::map<net::Endpoint, std::vector<bool>> full_raster_;  // all candidates
};

}  // namespace malnet::core
