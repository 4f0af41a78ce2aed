// A simulated authoritative/recursive DNS server host. Serves an explicit
// zone map; optionally answers *every* name with a fixed address (wildcard
// mode — this is what InetSim does to keep malware happy offline).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/network.hpp"

namespace malnet::dns {

/// Server-side fate of one decoded query, chosen by the fault hook.
enum class QueryFault {
  kNone,      // answer normally
  kServfail,  // reply SERVFAIL (resolver infrastructure hiccup)
  kDrop,      // swallow the query silently (reply never sent)
};

/// Installed by the fault-injection layer; consulted once per well-formed
/// query. Must be deterministic.
using QueryFaultHook = std::function<QueryFault()>;

class DnsServer : public sim::Host {
 public:
  DnsServer(sim::Network& net, net::Ipv4 addr, std::string name = "dns");

  /// Adds or replaces an A record.
  void add_record(const std::string& name, net::Ipv4 address);

  /// In wildcard mode every unknown name resolves to `address`.
  void set_wildcard(std::optional<net::Ipv4> address) { wildcard_ = address; }

  void set_query_fault_hook(QueryFaultHook h) { fault_hook_ = std::move(h); }

  [[nodiscard]] std::uint64_t queries_served() const { return queries_; }

 private:
  void handle_query(const net::Packet& p);

  std::unordered_map<std::string, net::Ipv4> zone_;
  std::optional<net::Ipv4> wildcard_;
  QueryFaultHook fault_hook_;
  std::uint64_t queries_ = 0;
};

}  // namespace malnet::dns
