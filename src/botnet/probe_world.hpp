// The active-probing study environment (§2.3b, D-PC2): six /24 subnets
// "with a history of malicious activity" containing 7 elusive C2 servers,
// a sprinkle of benign banner-serving services the prober must filter out
// (§2.6), and dark space everywhere else.
#pragma once

#include <memory>
#include <vector>

#include "botnet/c2server.hpp"
#include "inetsim/services.hpp"
#include "net/ipv4.hpp"
#include "sim/network.hpp"

namespace malnet::botnet {

/// The 12 probed ports of Table 5.
[[nodiscard]] const std::vector<net::Port>& table5_ports();

struct ProbeWorldConfig {
  std::uint64_t seed = 5;
  int subnet_count = 6;
  int c2_count = 7;
  int banner_hosts_per_subnet = 5;
  double accept_prob = 0.65;
  sim::Duration mean_dormancy = sim::Duration::hours(30);
};

struct ProbeWorld {
  std::vector<net::Subnet> subnets;
  std::vector<std::unique_ptr<C2Server>> c2s;
  std::vector<std::unique_ptr<inetsim::BannerHost>> banners;
};

/// Builds the environment on `net`. C2 families alternate Gafgyt/Mirai so
/// both study weapons get engagements.
[[nodiscard]] ProbeWorld build_probe_world(sim::Network& net,
                                           const ProbeWorldConfig& cfg = {});

}  // namespace malnet::botnet
