#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace malnet::sim {

Network::Network(EventScheduler& sched, NetworkConfig cfg)
    : sched_(sched), cfg_(cfg), rng_(cfg.seed, util::fnv1a64("network")) {
  if (cfg_.min_latency > cfg_.max_latency) {
    throw std::invalid_argument("NetworkConfig: min_latency > max_latency");
  }
  if (cfg_.loss < 0.0 || cfg_.loss >= 1.0) {
    throw std::invalid_argument("NetworkConfig: loss out of [0, 1)");
  }
}

void Network::attach(Host& h) {
  const auto [it, inserted] = hosts_.emplace(h.addr(), &h);
  if (!inserted) {
    throw std::logic_error("Network::attach: duplicate address " +
                           net::to_string(h.addr()));
  }
}

void Network::detach(Host& h) { hosts_.erase(h.addr()); }

Host* Network::host_at(net::Ipv4 addr) const {
  const auto it = hosts_.find(addr);
  return it == hosts_.end() ? nullptr : it->second;
}

Duration Network::latency(net::Ipv4 a, net::Ipv4 b) const {
  // Deterministic hash of the ordered pair -> [min, max] latency. Stable
  // across runs and independent of traffic history.
  std::uint64_t h = (static_cast<std::uint64_t>(a.value) << 32) | b.value;
  std::uint64_t s = h;
  h = util::splitmix64(s);
  const auto span =
      static_cast<std::uint64_t>(cfg_.max_latency.us - cfg_.min_latency.us + 1);
  return Duration{cfg_.min_latency.us + static_cast<std::int64_t>(h % span)};
}

void Network::transmit(net::Packet p) {
  p.time = now();
  ++tx_count_;
  if (p.proto == net::Protocol::kUdp && p.dst_port == 53) ++dns_count_;
  if (tap_) tap_(p);

  if (cfg_.loss > 0.0 && rng_.chance(cfg_.loss)) {
    ++loss_count_;
    return;  // congestion: dropped in flight
  }

  // The fault hook draws from its own RNG stream, so installing one never
  // perturbs the network's congestion-loss stream.
  FaultVerdict verdict;
  if (fault_hook_) verdict = fault_hook_(p);
  if (verdict.drop) {
    ++loss_count_;
    return;
  }

  Host* dst = host_at(p.dst);
  if (dst == nullptr) {
    ++dark_count_;
    return;  // dark address space: the packet vanishes
  }

  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(p.src.value) << 32) | p.dst.value;
  SimTime deliver_at = now() + latency(p.src, p.dst) + verdict.extra_latency;
  if (!verdict.reorder) {
    auto& last = last_delivery_[pair_key];
    if (deliver_at <= last) deliver_at = last + Duration::micros(1);
    last = deliver_at;
  }

  // Duplicates trail the original by a whisker; they deliberately bypass
  // the FIFO clamp update so they model duplicated deliveries of the same
  // send, not new sends.
  for (int i = 0; i < verdict.duplicates; ++i) {
    schedule_delivery(deliver_at + Duration::micros(i + 1), p);
  }
  schedule_delivery(deliver_at, std::move(p));
}

void Network::schedule_delivery(SimTime at, net::Packet p) {
  const net::Ipv4 dst_addr = p.dst;
  auto deliver = [this, dst_addr, pkt = std::move(p)]() mutable {
    // Re-resolve: the host may have detached while the packet was in flight.
    Host* h = host_at(dst_addr);
    if (h == nullptr) return;
    ++rx_count_;
    h->deliver(pkt);
  };
  static_assert(Callback::stores_inline<decltype(deliver)>);
  sched_.at(at, std::move(deliver));
}

// ---------------------------------------------------------------------------
// Host

Host::Host(Network& net, net::Ipv4 addr, std::string name)
    : net_(net), addr_(addr), name_(std::move(name)) {
  if (addr.is_unspecified()) throw std::invalid_argument("Host: unspecified address");
  net_.attach(*this);
}

Host::~Host() { net_.detach(*this); }

net::Port Host::alloc_ephemeral_port() {
  for (std::size_t attempts = 0; attempts < kEphemeralPorts; ++attempts) {
    const net::Port p = next_ephemeral_;
    next_ephemeral_ = (next_ephemeral_ >= 65535) ? kEphemeralFirst : next_ephemeral_ + 1;
    // Skip ports with live connection state or bindings.
    const bool used = udp_handlers_.count(p) > 0 || tcp_listeners_.count(p) > 0 ||
                      (ephemeral_conns_ && ephemeral_conns_[p - kEphemeralFirst] > 0);
    if (!used) return p;
  }
  throw std::runtime_error("Host: ephemeral port space exhausted");
}

void Host::send_out(net::Packet p) {
  p.time = net_.now();  // captures get real timestamps even if dropped below
  if (tap_) tap_(p, /*outbound=*/true);
  if (filter_ && !filter_(p)) return;  // dropped by containment / rewritten
  net_.transmit(std::move(p));
}

void Host::send_raw(net::Packet p) {
  p.src = addr_;
  send_out(std::move(p));
}

// --- TCP --------------------------------------------------------------------

void Host::tcp_listen(net::Port port, AcceptHandler on_accept) {
  if (!on_accept) throw std::invalid_argument("tcp_listen: null handler");
  tcp_listeners_[port] = std::move(on_accept);
}

void Host::tcp_unlisten(net::Port port) { tcp_listeners_.erase(port); }

bool Host::tcp_listening(net::Port port) const { return tcp_listeners_.count(port) > 0; }

void Host::tcp_connect(net::Endpoint remote, ConnectHandler cb, Duration timeout) {
  if (!cb) throw std::invalid_argument("tcp_connect: null handler");
  const net::Port local_port = alloc_ephemeral_port();
  const ConnKey key{local_port, remote};
  const std::uint32_t iss = net_.rng()();
  TcpConn& conn = add_conn(key, std::unique_ptr<TcpConn>(new TcpConn(
                                    *this, {addr_, local_port}, remote,
                                    /*inbound=*/false, iss)));
  conn.on_connect_ = std::move(cb);
  auto time_out = [this, key, w = std::weak_ptr<const bool>(lifetime_)]() {
    if (w.expired()) return;
    const auto it = conns_.find(key);
    if (it == conns_.end() || !it->second->on_connect_) return;
    ConnectHandler handler = std::move(it->second->on_connect_);
    erase_conn(it);  // abandon the half-open connection silently
    handler(ConnectOutcome::kTimeout, nullptr);
  };
  static_assert(Callback::stores_inline<decltype(time_out)>);
  conn.connect_timeout_ = scheduler().after(timeout, std::move(time_out));

  conn.emit(net::TcpFlags{.syn = true, .ack = false, .fin = false, .rst = false,
                          .psh = false});
}

void Host::tcp_probe(net::Endpoint remote, ConnectHandler cb, Duration timeout) {
  if (!cb) throw std::invalid_argument("tcp_probe: null handler");
  const SimTime deadline = now() + timeout;
  const Probe* last = probe_count_ > 0 ? &probe_at(probe_count_ - 1) : nullptr;
  if (timeout <= Duration{} || (last != nullptr && deadline < last->deadline)) {
    throw std::invalid_argument(
        "tcp_probe: timeout not positive or deadline before the previous probe's");
  }
  // tcp_connect's order: the port, the ISS, the timeout event, then the SYN.
  const net::Port local_port = alloc_ephemeral_port();
  const std::uint32_t iss = net_.rng()();
  hold_port(local_port);

  // A probe sent at the same time as the previous one, with the same
  // deadline, joins that probe's group. Otherwise it starts a group, whose
  // one timer is scheduled here, before the SYN, so it takes the event id
  // this probe's own timeout would have had under tcp_connect. The group's
  // later probes would each have had a timeout at the same time a few ids
  // on, so sharing is exact when nothing scheduled between the group's
  // probes fires at the deadline. The scout's batches meet this: between
  // their probes only the batch's SYN deliveries are scheduled, and each
  // lands at most max_latency (120 ms) plus a fault-injected latency spike
  // (1.5 s) after sending, before the 2 s timeout; the fault hook
  // schedules nothing.
  if (last == nullptr || last->sent_at != now() || last->deadline != deadline) {
    auto time_out = [this, sent_at = now(), deadline,
                     w = std::weak_ptr<const bool>(lifetime_)]() {
      if (!w.expired()) expire_probes(sent_at, deadline, w);
    };
    static_assert(Callback::stores_inline<decltype(time_out)>);
    scheduler().at(deadline, std::move(time_out));
  }
  if (probe_count_ == probes_.size()) {
    std::vector<Probe> grown(std::max<std::size_t>(16, 2 * probes_.size()));
    for (std::size_t i = 0; i < probe_count_; ++i) grown[i] = std::move(probe_at(i));
    probes_ = std::move(grown);
    probe_head_ = 0;
  }
  probe_at(probe_count_++) = Probe{remote, local_port, iss, now(), deadline, std::move(cb)};
  send_out(tcp_segment({addr_, local_port}, remote,
                       net::TcpFlags{.syn = true, .ack = false, .fin = false,
                                     .rst = false, .psh = false},
                       iss, 0));
}

void Host::expire_probes(SimTime sent_at, SimTime deadline,
                         const std::weak_ptr<const bool>& guard) {
  // Timers fire in deadline order, and equal deadlines in send order, so
  // the group this timer expires is at the front of the ring. Its probes
  // time out in send order, as their own timeouts would have fired.
  while (probe_count_ > 0 && probe_at(0).sent_at == sent_at &&
         probe_at(0).deadline == deadline) {
    Probe& front = probe_at(0);
    const net::Port port = front.local_port;
    ConnectHandler handler = std::move(front.on_connect);
    probe_head_ = (probe_head_ + 1) & (probes_.size() - 1);
    --probe_count_;
    if (!handler) continue;  // answered: its connection holds the port now
    release_port(port);
    handler(ConnectOutcome::kTimeout, nullptr);
    if (guard.expired()) return;  // the handler destroyed this host
  }
}

Host::Probe* Host::find_probe(const ConnKey& key) {
  // An answer comes back within a round trip or so, which puts its probe
  // among the newest few batches: search from the back.
  for (std::size_t i = probe_count_; i-- > 0;) {
    Probe& probe = probe_at(i);
    if (probe.local_port == key.first && probe.remote == key.second && probe.on_connect) {
      return &probe;
    }
  }
  return nullptr;
}

void Host::close_all_connections() {
  for (TcpConn* conn : conns_by_key()) {
    if (conn->established()) conn->close();
  }
}

void Host::abort_all_connections() {
  // reset() only schedules the table erase, so every pointer stays valid.
  for (TcpConn* conn : conns_by_key()) {
    if (conn->state() != TcpConn::State::kClosed) conn->reset();
  }
}

std::size_t Host::ConnKeyHash::operator()(const ConnKey& k) const noexcept {
  std::uint64_t x = (std::uint64_t{k.first} << 48) |
                    (std::uint64_t{k.second.ip.value} << 16) | k.second.port;
  // MurmurHash3's 64-bit finaliser.
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

TcpConn* Host::find_conn(const ConnKey& key) {
  const auto it = conns_.find(key);
  return it == conns_.end() ? nullptr : it->second.get();
}

TcpConn& Host::add_conn(const ConnKey& key, std::unique_ptr<TcpConn> conn) {
  TcpConn& ref = *conn;
  conns_.emplace(key, std::move(conn));
  hold_port(key.first);
  return ref;
}

void Host::erase_conn(ConnTable::iterator it) {
  release_port(it->first.first);
  conns_.erase(it);
}

void Host::hold_port(net::Port port) {
  if (port < kEphemeralFirst) return;
  if (!ephemeral_conns_) ephemeral_conns_ = std::make_unique<std::uint16_t[]>(kEphemeralPorts);
  std::uint16_t& held = ephemeral_conns_[port - kEphemeralFirst];
  if (held == UINT16_MAX) throw std::length_error("Host: too many connections on one port");
  ++held;
}

void Host::release_port(net::Port port) {
  if (port >= kEphemeralFirst) --ephemeral_conns_[port - kEphemeralFirst];
}

std::vector<TcpConn*> Host::conns_by_key() const {
  std::vector<TcpConn*> out;
  out.reserve(conns_.size());
  for (const auto& entry : conns_) out.push_back(entry.second.get());
  // A connection's key is its (local port, remote).
  std::sort(out.begin(), out.end(), [](const TcpConn* a, const TcpConn* b) {
    return ConnKey{a->local().port, a->remote()} < ConnKey{b->local().port, b->remote()};
  });
  return out;
}

void Host::schedule_conn_erase(const ConnKey& key) {
  schedule_safe(Duration::seconds(60), [this, key]() {
    const auto it = conns_.find(key);
    // A connection reset while its connect is pending is left for the
    // connect's timeout, which erases it and fires the handler.
    if (it != conns_.end() && it->second->state() == TcpConn::State::kClosed &&
        !it->second->on_connect_) {
      erase_conn(it);
    }
  });
}

void Host::handle_tcp(const net::Packet& p) {
  const ConnKey key{p.dst_port, {p.src, p.src_port}};
  TcpConn* conn = find_conn(key);

  if (conn == nullptr && probe_count_ > 0) {
    if (Probe* probe = find_probe(key)) {
      // A SYN-SENT connection acts only on a SYN-ACK or a RST and ignores
      // anything else, so only those give the probe its connection: the
      // one tcp_connect would hold, which then takes the answer below.
      if (!p.flags.rst && !(p.flags.syn && p.flags.ack)) return;
      release_port(probe->local_port);  // the connection holds it instead
      conn = &add_conn(key, std::unique_ptr<TcpConn>(new TcpConn(
                                *this, {addr_, probe->local_port}, probe->remote,
                                /*inbound=*/false, probe->iss + 1)));
      conn->opened_at_ = probe->sent_at;
      conn->on_connect_ = std::move(probe->on_connect);
    }
  }

  if (conn == nullptr) {
    if (p.flags.rst) return;  // RST to nothing: ignore, so RSTs never bounce
    if (p.flags.syn && !p.flags.ack && tcp_listening(p.dst_port)) {
      // Passive open.
      const std::uint32_t iss = net_.rng()();
      TcpConn& nc = add_conn(key, std::unique_ptr<TcpConn>(new TcpConn(
                                      *this, {addr_, p.dst_port}, {p.src, p.src_port},
                                      /*inbound=*/true, iss)));
      nc.rcv_next_ = p.seq + 1;
      nc.emit(net::TcpFlags{.syn = true, .ack = true, .fin = false, .rst = false,
                            .psh = false});
      return;
    }
    // No connection to deliver to: a SYN to a closed port, or a stray
    // segment such as a SYN-ACK that arrives after its connect timed out.
    // Answer with RST (RFC 793 §3.4), which also frees the peer's
    // half-open connection.
    const net::TcpFlags flags{.syn = false, .ack = !p.flags.ack, .fin = false,
                              .rst = true, .psh = false};
    const std::uint32_t seq = p.flags.ack ? p.ack_num : 0;
    const std::uint32_t ack_num =
        p.flags.ack ? 0
                    : p.seq + static_cast<std::uint32_t>(p.payload.size()) +
                          (p.flags.syn ? 1 : 0) + (p.flags.fin ? 1 : 0);
    send_out(tcp_segment({addr_, p.dst_port}, p.source(), flags, seq, ack_num));
    return;
  }

  const TcpConn::State before = conn->state();
  conn->handle(p);
  const TcpConn::State after = conn->state();

  if (before == TcpConn::State::kSynSent) {
    // The handshake resolved: connected on SYN-ACK, refused on RST.
    if ((after == TcpConn::State::kEstablished || after == TcpConn::State::kClosed) &&
        conn->on_connect_) {
      ConnectHandler handler = std::move(conn->on_connect_);
      scheduler().cancel(conn->connect_timeout_);
      if (after == TcpConn::State::kEstablished) {
        handler(ConnectOutcome::kConnected, conn);
      } else {
        handler(ConnectOutcome::kRefused, nullptr);
      }
    }
  } else if (before == TcpConn::State::kSynRcvd &&
             after == TcpConn::State::kEstablished) {
    const auto lit = tcp_listeners_.find(p.dst_port);
    if (lit != tcp_listeners_.end()) {
      lit->second(*conn);
    } else {
      // The service closed between SYN-ACK and the final ACK; refuse the
      // half-accepted connection so the peer sees a clean RST instead of a
      // silent, handler-less session.
      conn->reset();
    }
  }
}

// --- UDP / ICMP ---------------------------------------------------------------

void Host::udp_bind(net::Port port, UdpHandler h) {
  if (!h) throw std::invalid_argument("udp_bind: null handler");
  udp_handlers_[port] = std::move(h);
}

void Host::udp_unbind(net::Port port) { udp_handlers_.erase(port); }

void Host::udp_send(net::Endpoint remote, util::BytesView payload, net::Port src_port) {
  net::Packet p;
  p.src = addr_;
  p.dst = remote.ip;
  p.proto = net::Protocol::kUdp;
  p.src_port = src_port == 0 ? alloc_ephemeral_port() : src_port;
  p.dst_port = remote.port;
  p.payload.assign(payload.begin(), payload.end());
  send_out(std::move(p));
}

void Host::icmp_send(net::Ipv4 dst, std::uint8_t type, std::uint8_t code,
                     util::BytesView payload) {
  net::Packet p;
  p.src = addr_;
  p.dst = dst;
  p.proto = net::Protocol::kIcmp;
  p.icmp = {type, code};
  p.payload.assign(payload.begin(), payload.end());
  send_out(std::move(p));
}

void Host::deliver(net::Packet p) {
  if (rewriter_) rewriter_(p);
  if (tap_) tap_(p, /*outbound=*/false);
  switch (p.proto) {
    case net::Protocol::kTcp:
      handle_tcp(p);
      break;
    case net::Protocol::kUdp: {
      const auto it = udp_handlers_.find(p.dst_port);
      if (it != udp_handlers_.end()) {
        // Copy before invoking: handlers may unbind themselves (one-shot
        // transactions like DNS queries or DHT crawls), which would
        // otherwise destroy the callable mid-execution.
        const UdpHandler handler = it->second;
        handler(p);
      }
      break;  // unbound UDP port: silently dropped
    }
    case net::Protocol::kIcmp:
      if (icmp_handler_) icmp_handler_(p);
      break;
  }
}

}  // namespace malnet::sim
