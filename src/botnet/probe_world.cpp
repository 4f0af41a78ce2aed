#include "botnet/probe_world.hpp"

#include "util/rng.hpp"

namespace malnet::botnet {

const std::vector<net::Port>& table5_ports() {
  static const std::vector<net::Port> kPorts{1312, 666,  1791, 9506, 606,  6738,
                                             5555, 1014, 3074, 6969, 42516, 81};
  return kPorts;
}

ProbeWorld build_probe_world(sim::Network& net, const ProbeWorldConfig& cfg) {
  ProbeWorld world;
  util::Rng rng(cfg.seed, util::fnv1a64("probe-world"));

  // 198.18.0.0/15 (RFC 2544 benchmark space): explicitly unrelated to the
  // main study's AS-allocated address plan.
  for (int i = 0; i < cfg.subnet_count; ++i) {
    world.subnets.push_back(
        net::Subnet{net::Ipv4{198, 18, static_cast<std::uint8_t>(i), 0}, 24});
  }

  // Draws host numbers in [lo, hi] until one is unoccupied; the retry draws
  // only after a collision, so collision-free seeds keep their addresses.
  const auto free_host = [&](const net::Subnet& subnet, std::uint64_t lo,
                             std::uint64_t hi) {
    net::Ipv4 ip;
    do {
      ip = subnet.host(static_cast<std::uint32_t>(rng.uniform(lo, hi)));
    } while (net.host_at(ip) != nullptr);
    return ip;
  };

  const auto& ports = table5_ports();
  for (int i = 0; i < cfg.c2_count; ++i) {
    C2ServerConfig sc;
    sc.family = (i % 2 == 0) ? proto::Family::kGafgyt : proto::Family::kMirai;
    sc.ip = free_host(
        world.subnets[static_cast<std::size_t>(i) % world.subnets.size()], 10,
        250);
    sc.port = ports[static_cast<std::size_t>(i) % ports.size()];
    sc.accept_prob = cfg.accept_prob;
    sc.mean_dormancy = cfg.mean_dormancy;
    world.c2s.push_back(std::make_unique<C2Server>(
        net, sc, rng.fork("c2" + std::to_string(i))));
  }

  static const std::vector<std::string> kBanners{
      "HTTP/1.1 400 Bad Request\r\nServer: Apache/2.4.41\r\n\r\n",
      "SSH-2.0-OpenSSH_7.4\r\n",
      "HTTP/1.1 200 OK\r\nServer: nginx/1.18.0\r\n\r\n",
      "220 ProFTPD Server ready.\r\n",
      "SSH-2.0-dropbear_2019.78\r\n",
  };
  for (const auto& subnet : world.subnets) {
    for (int b = 0; b < cfg.banner_hosts_per_subnet; ++b) {
      const auto ip = free_host(subnet, 2, 253);
      world.banners.push_back(std::make_unique<inetsim::BannerHost>(
          net, ip, ports[static_cast<std::size_t>(rng.uniform(0, ports.size() - 1))],
          rng.pick(kBanners)));
    }
  }
  return world;
}

}  // namespace malnet::botnet
