// Simplified-but-stateful TCP connection machine.
//
// Models what a network-level malware study observes: the three-way
// handshake (the "handshaker" trick of §2.4 hinges on completing it),
// PSH/ACK data segments, FIN teardown and RST refusal. A host answers RST
// to a SYN for a closed port and to any other segment for a connection it
// does not have, such as a SYN-ACK that arrives after its connect timed
// out (RFC 793 §3.4); a RST to nothing is ignored. Retransmission and
// windowing are out of scope; the default network delivers in order and
// does not drop packets (server elusiveness is modelled at the application
// layer, where the paper observed it). Under fault injection
// (malnet::faultsim) segments can be duplicated or reordered, so receive
// processing validates sequence numbers: stale duplicates are dropped and
// a one-deep buffer absorbs single-segment reordering.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/inline_function.hpp"
#include "util/simtime.hpp"

namespace malnet::sim {

class Host;

/// Result of a connect attempt, surfaced to the ConnectHandler.
enum class ConnectOutcome {
  kConnected,  // three-way handshake completed
  kRefused,    // peer answered RST (port closed / service declined)
  kTimeout,    // no answer at all (dark address or dead host)
};

[[nodiscard]] std::string to_string(ConnectOutcome o);

class TcpConn;

/// Fires exactly once per Host::tcp_connect or Host::tcp_probe, unless the
/// host is destroyed first. The inline buffer holds the sandbox guests'
/// connect closures and the probe campaign's scout closure (campaign and
/// target: 16 bytes).
using ConnectHandler = util::InlineFunction<void(ConnectOutcome, TcpConn*), 48>;

/// Builds one TCP segment from `from` to `to`. Every segment the hosts' TCP
/// stack sends is made here: a connection's, a probe's SYN and the RST
/// answering a segment no connection owns.
[[nodiscard]] net::Packet tcp_segment(net::Endpoint from, net::Endpoint to,
                                      net::TcpFlags flags, std::uint32_t seq,
                                      std::uint32_t ack_num,
                                      util::BytesView payload = {});

/// One TCP connection endpoint. Owned by its Host; user code holds a
/// non-owning pointer which stays valid until shortly after on_close fires.
class TcpConn {
 public:
  enum class State { kSynSent, kSynRcvd, kEstablished, kClosed };

  using DataHandler = std::function<void(TcpConn&, util::BytesView)>;
  using CloseHandler = std::function<void(TcpConn&)>;

  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Sends application data (PSH/ACK segment). No-op if not established.
  void send(util::BytesView data);
  void send(std::string_view data);

  /// Polite close: sends FIN. The peer's on_close fires when it arrives.
  void close();

  /// Abortive close: sends RST.
  void reset();

  void on_data(DataHandler h) { on_data_ = std::move(h); }
  void on_close(CloseHandler h) { on_close_ = std::move(h); }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] net::Endpoint local() const { return local_; }
  [[nodiscard]] net::Endpoint remote() const { return remote_; }
  /// True if this side accepted the connection (passive open).
  [[nodiscard]] bool inbound() const { return inbound_; }
  [[nodiscard]] util::SimTime opened_at() const { return opened_at_; }
  /// Total application bytes received on this connection.
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_rx_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_tx_; }

 private:
  friend class Host;

  TcpConn(Host& host, net::Endpoint local, net::Endpoint remote, bool inbound,
          std::uint32_t iss);

  void handle(const net::Packet& p);  // driven by Host::deliver
  void emit(net::TcpFlags flags, util::BytesView payload = {});
  void become_closed(bool notify);

  Host& host_;
  net::Endpoint local_;
  net::Endpoint remote_;
  bool inbound_;
  State state_;
  std::uint32_t snd_next_;
  std::uint32_t rcv_next_ = 0;
  /// One-deep reorder buffer: a sequence-consuming segment that arrived
  /// ahead of rcv_next_ waits here until the gap closes. Stale duplicates
  /// (seq behind rcv_next_) are dropped outright — see handle().
  std::optional<net::Packet> ooo_buffer_;
  bool fin_sent_ = false;
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t bytes_tx_ = 0;
  util::SimTime opened_at_;
  DataHandler on_data_;
  CloseHandler on_close_;
  /// An active open's handler and timeout event, held until the connect
  /// resolves. While the handler is set, the connection stays in its
  /// host's table even if reset, so the timeout can still fire it. A
  /// connection made for an answered probe resolves on that answer and
  /// has no timeout event.
  ConnectHandler on_connect_;
  EventId connect_timeout_ = 0;
};

}  // namespace malnet::sim
