// Asynchronous stub resolver for simulated hosts.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "sim/network.hpp"

namespace malnet::dns {

using ResolveCallback = std::function<void(std::optional<net::Ipv4>)>;

/// Retry/timeout policy for one resolution. The defaults reproduce the
/// classic single-shot behaviour; bounded retry exists for chaos studies
/// where queries and replies are injected-dropped in flight.
struct ResolveOptions {
  sim::Duration timeout = sim::Duration::seconds(5);
  /// Retransmissions after the first query times out (0 = single shot).
  int max_retries = 0;
  /// Exponential backoff: each retransmission waits `backoff` times longer
  /// than the previous attempt.
  double backoff = 2.0;
  /// Invoked once per retransmission (metrics hook; may be null).
  std::function<void()> on_retry;
};

/// Sends one A query from `host` to `server` and invokes `cb` exactly once
/// with the answer, NXDOMAIN (nullopt), or nullopt after every attempt
/// timed out. The transaction id is drawn from the network RNG; a
/// mismatched id or a malformed response counts as no reply. The timeout
/// timer is lifetime-guarded and defused when the reply wins, so the
/// reply/timeout race can neither double-fire the callback nor touch a
/// destroyed host.
void resolve(sim::Host& host, net::Endpoint server, const std::string& name,
             ResolveCallback cb, ResolveOptions opts = {});

}  // namespace malnet::dns
