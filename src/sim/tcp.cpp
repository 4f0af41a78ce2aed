#include "sim/tcp.hpp"

#include "sim/network.hpp"

namespace malnet::sim {

std::string to_string(ConnectOutcome o) {
  switch (o) {
    case ConnectOutcome::kConnected: return "connected";
    case ConnectOutcome::kRefused: return "refused";
    case ConnectOutcome::kTimeout: return "timeout";
  }
  return "?";
}

TcpConn::TcpConn(Host& host, net::Endpoint local, net::Endpoint remote, bool inbound,
                 std::uint32_t iss)
    : host_(host),
      local_(local),
      remote_(remote),
      inbound_(inbound),
      state_(inbound ? State::kSynRcvd : State::kSynSent),
      snd_next_(iss),
      opened_at_(host.now()) {}

net::Packet tcp_segment(net::Endpoint from, net::Endpoint to, net::TcpFlags flags,
                        std::uint32_t seq, std::uint32_t ack_num,
                        util::BytesView payload) {
  net::Packet p;
  p.src = from.ip;
  p.dst = to.ip;
  p.proto = net::Protocol::kTcp;
  p.src_port = from.port;
  p.dst_port = to.port;
  p.flags = flags;
  p.seq = seq;
  p.ack_num = ack_num;
  p.payload.assign(payload.begin(), payload.end());
  return p;
}

void TcpConn::emit(net::TcpFlags flags, util::BytesView payload) {
  net::Packet p = tcp_segment(local_, remote_, flags, snd_next_, rcv_next_, payload);
  // SYN and FIN each consume one sequence number; data consumes its length.
  snd_next_ += static_cast<std::uint32_t>(payload.size());
  if (flags.syn || flags.fin) ++snd_next_;
  host_.send_out(std::move(p));
}

void TcpConn::send(util::BytesView data) {
  if (state_ != State::kEstablished || data.empty()) return;
  bytes_tx_ += data.size();
  emit(net::TcpFlags{.syn = false, .ack = true, .fin = false, .rst = false, .psh = true},
       data);
}

void TcpConn::send(std::string_view data) {
  send(util::BytesView{reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

void TcpConn::close() {
  if (state_ == State::kClosed) return;
  if (state_ == State::kEstablished && !fin_sent_) {
    fin_sent_ = true;
    emit(net::TcpFlags{.syn = false, .ack = true, .fin = true, .rst = false, .psh = false});
  }
  become_closed(/*notify=*/false);
}

void TcpConn::reset() {
  if (state_ == State::kClosed) return;
  emit(net::TcpFlags{.syn = false, .ack = false, .fin = false, .rst = true, .psh = false});
  become_closed(/*notify=*/false);
}

void TcpConn::become_closed(bool notify) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (notify && on_close_) on_close_(*this);
  host_.schedule_conn_erase({local_.port, remote_});
}

void TcpConn::handle(const net::Packet& p) {
  if (p.flags.rst) {
    become_closed(/*notify=*/true);
    return;
  }
  switch (state_) {
    case State::kSynSent:
      if (p.flags.syn && p.flags.ack) {
        rcv_next_ = p.seq + 1;
        state_ = State::kEstablished;
        emit(net::TcpFlags{.syn = false, .ack = true, .fin = false, .rst = false,
                           .psh = false});
        // Host resolves the pending-connect callback after we return.
      }
      break;
    case State::kSynRcvd:
      if (p.flags.ack && !p.flags.syn) {
        state_ = State::kEstablished;
        // Fall through to possible piggy-backed data below.
      }
      [[fallthrough]];
    case State::kEstablished: {
      if (state_ != State::kEstablished) break;
      // Sequence validation for segments that consume sequence space (data
      // and FIN). A duplicated or retransmitted segment sits behind
      // rcv_next_ and must not re-deliver its payload or re-close; a future
      // segment waits in the one-deep reorder buffer until the gap closes.
      const bool consumes = !p.payload.empty() || p.flags.fin;
      if (consumes) {
        const auto delta = static_cast<std::int32_t>(p.seq - rcv_next_);
        if (delta < 0) break;  // stale duplicate: drop
        if (delta > 0) {
          // Out of order: keep the earliest future segment seen.
          if (!ooo_buffer_ ||
              static_cast<std::int32_t>(p.seq - ooo_buffer_->seq) < 0) {
            ooo_buffer_ = p;
          }
          break;
        }
      }
      if (!p.payload.empty()) {
        rcv_next_ = p.seq + static_cast<std::uint32_t>(p.payload.size());
        bytes_rx_ += p.payload.size();
        if (on_data_) on_data_(*this, p.payload);
        if (state_ == State::kClosed) return;  // handler closed us
      }
      if (p.flags.fin) {
        rcv_next_ = p.seq + static_cast<std::uint32_t>(p.payload.size()) + 1;
        if (!fin_sent_) {
          fin_sent_ = true;
          emit(net::TcpFlags{.syn = false, .ack = true, .fin = true, .rst = false,
                             .psh = false});
        }
        become_closed(/*notify=*/true);
        return;
      }
      // The gap may have closed: replay the buffered segment if it is next.
      if (ooo_buffer_ &&
          static_cast<std::int32_t>(ooo_buffer_->seq - rcv_next_) <= 0) {
        const net::Packet buffered = *std::move(ooo_buffer_);
        ooo_buffer_.reset();
        handle(buffered);
        return;
      }
      break;
    }
    case State::kClosed:
      break;  // late segment after close: ignore
  }
}

}  // namespace malnet::sim
