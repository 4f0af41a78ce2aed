#include "dns/resolver.hpp"

#include <memory>

#include "dns/message.hpp"

namespace malnet::dns {

namespace {

// Shared completion state: whichever fires first (reply or timeout) wins.
struct Txn {
  bool done = false;
  int retries_left = 0;
  sim::Duration timeout{};
  double backoff = 2.0;
  std::function<void()> on_retry;
  ResolveCallback cb;
};

/// Arms (or re-arms) the timeout for the current attempt. The event lives
/// in the scheduler, which outlives the host, so it must carry its own
/// lifetime guard: a host destroyed mid-flight (e.g. a sandbox guest torn
/// down before its query resolves) silently orphans the transaction. When
/// the reply wins the race the timer is deliberately left to fire as a
/// guarded no-op rather than cancelled — cancelled events are never counted
/// as executed, so cancellation would make the scheduler's event totals
/// depend on which side of the race won.
void arm_timeout(sim::Host& host, net::Endpoint server, const std::string& name,
                 std::uint16_t id, net::Port src_port,
                 const std::shared_ptr<Txn>& txn) {
  host.scheduler().after(
      txn->timeout,
      [hp = &host, w = host.lifetime_guard(), server, name, id, src_port, txn]() {
        if (w.expired() || txn->done) return;
        if (txn->retries_left > 0) {
          --txn->retries_left;
          txn->timeout = sim::Duration{static_cast<std::int64_t>(
              static_cast<double>(txn->timeout.us) * txn->backoff)};
          if (txn->on_retry) txn->on_retry();
          // Retransmit with the same id and port: a straggling reply to an
          // earlier attempt still completes the transaction.
          hp->udp_send(server, encode(make_query(id, name)), src_port);
          arm_timeout(*hp, server, name, id, src_port, txn);
          return;
        }
        txn->done = true;
        hp->udp_unbind(src_port);
        txn->cb(std::nullopt);
      });
}

}  // namespace

void resolve(sim::Host& host, net::Endpoint server, const std::string& name,
             ResolveCallback cb, ResolveOptions opts) {
  if (!cb) throw std::invalid_argument("resolve: null callback");
  const auto id = static_cast<std::uint16_t>(host.network().rng()());
  const net::Port src_port = host.alloc_ephemeral_port();

  auto txn = std::make_shared<Txn>();
  txn->cb = std::move(cb);
  txn->retries_left = std::max(0, opts.max_retries);
  txn->timeout = opts.timeout;
  txn->backoff = opts.backoff;
  txn->on_retry = std::move(opts.on_retry);

  // The reply handler is owned by the host, so capturing it by reference is
  // safe here (unlike the scheduler-owned timeout above).
  host.udp_bind(src_port, [&host, src_port, id, txn](const net::Packet& p) {
    if (txn->done) return;
    const auto reply = decode(p.payload);
    if (!reply || !reply->is_response || reply->id != id) return;
    txn->done = true;
    host.udp_unbind(src_port);
    std::optional<net::Ipv4> result;
    if (reply->rcode == Rcode::kNoError && !reply->answers.empty()) {
      result = reply->answers.front().address;
    }
    txn->cb(result);
  });

  arm_timeout(host, server, name, id, src_port, txn);
  host.udp_send(server, encode(make_query(id, name)), src_port);
}

}  // namespace malnet::dns
