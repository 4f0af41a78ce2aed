#include "botnet/c2server.hpp"

#include "profile/registry.hpp"
#include "profile/wire.hpp"
#include "proto/irc.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace malnet::botnet {

C2Server::C2Server(sim::Network& net, C2ServerConfig cfg, util::Rng rng)
    : sim::Host(net, cfg.ip, "c2-" + proto::to_string(cfg.family)),
      cfg_(std::move(cfg)),
      profile_(cfg_.profile != nullptr
                   ? cfg_.profile
                   : profile::Registry::builtin().active(cfg_.family)),
      rng_(std::move(rng)) {
  reroll_listening();
  arm_toggle();
}

void C2Server::arm_toggle() {
  // Periodic duty-cycle re-roll for the server's whole lifetime.
  schedule_safe(cfg_.toggle_period, [this]() {
    reroll_listening();
    arm_toggle();
  });
}

void C2Server::reroll_listening() {
  if (dormant_ || crashed_) return;
  force_listening(rng_.chance(cfg_.accept_prob));
}

void C2Server::force_listening(bool on) {
  if (on && !tcp_listening(cfg_.port)) {
    tcp_listen(cfg_.port, [this](sim::TcpConn& conn) { on_accept(conn); });
  } else if (!on && tcp_listening(cfg_.port)) {
    tcp_unlisten(cfg_.port);
  }
}

void C2Server::on_accept(sim::TcpConn& conn) {
  ++sessions_;
  Session session;
  session.serial = next_serial_++;
  sessions_state_[&conn] = session;
  conn.on_data([this](sim::TcpConn& c, util::BytesView data) { on_conn_data(c, data); });
  // Hygiene: peers that never speak the protocol get kicked, freeing the
  // slot (and telling cross-family probes there is nothing for them here).
  sim::TcpConn* conn_ptr = &conn;
  const std::uint64_t serial = session.serial;
  schedule_safe(sim::Duration::minutes(2), [this, conn_ptr, serial]() {
    const auto it = sessions_state_.find(conn_ptr);
    if (it != sessions_state_.end() && it->second.serial == serial &&
        !it->second.registered) {
      sessions_state_.erase(conn_ptr);
      conn_ptr->reset();
    }
  });
  conn.on_close([this](sim::TcpConn& c) {
    const auto it = sessions_state_.find(&c);
    if (it == sessions_state_.end()) return;
    const bool was_registered = it->second.registered;
    sessions_state_.erase(it);
    // Serving a full session tips the server into its cautious cooldown.
    if (was_registered) enter_dormancy();
  });
}

void C2Server::on_conn_data(sim::TcpConn& conn, util::BytesView data) {
  const auto it = sessions_state_.find(&conn);
  if (it == sessions_state_.end()) return;
  Session& s = it->second;

  if (!profile_->is_text_like()) {
    handle_binary(conn, s, data);
    return;
  }
  s.rx_buffer += util::to_string(data);
  std::size_t nl;
  while ((nl = s.rx_buffer.find('\n')) != std::string::npos) {
    std::string line = s.rx_buffer.substr(0, nl);
    s.rx_buffer.erase(0, nl + 1);
    handle_text_line(conn, s, line);
    if (sessions_state_.find(&conn) == sessions_state_.end()) return;  // closed
  }
}

void C2Server::handle_binary(sim::TcpConn& conn, Session& s, util::BytesView data) {
  switch (profile_->framing) {
    case profile::Framing::kBinary: {
      if (const auto hs = profile::wire::decode_handshake(*profile_, data)) {
        register_bot(conn, s, hs->bot_id);
        conn.send(util::BytesView{profile::wire::encode_keepalive()});
      } else if (profile::wire::is_keepalive(data)) {
        conn.send(util::BytesView{profile::wire::encode_keepalive()});
      }
      break;
    }
    case profile::Framing::kTlsBeacon: {
      // TLS-flavoured beacon: any client hello gets a canned server hello.
      if (!s.registered) {
        conn.send(util::BytesView{profile_->tls_server_hello});
        register_bot(conn, s, profile_->tls_peer_id);
      }
      break;
    }
    default:
      break;  // P2P families never reach a TCP C2
  }
}

void C2Server::handle_text_line(sim::TcpConn& conn, Session& s,
                                const std::string& line) {
  switch (profile_->framing) {
    case profile::Framing::kText: {
      if (const auto arg = profile::wire::decode_hello(*profile_, line)) {
        register_bot(conn, s, *arg);
        conn.send(profile::wire::encode_ping(*profile_));
      }
      // PONGs and unknown chatter are ignored.
      break;
    }
    case profile::Framing::kIrc: {
      const auto msg = proto::irc::parse(line);
      if (!msg) return;
      if (msg->command == "NICK" && !msg->params.empty()) {
        s.bot_id = msg->params.front();
      } else if (msg->command == "USER") {
        conn.send(proto::irc::welcome(s.bot_id.empty() ? "bot" : s.bot_id).serialize());
      } else if (msg->command == "JOIN") {
        register_bot(conn, s, s.bot_id.empty() ? "bot" : s.bot_id);
      } else if (msg->command == "PING") {
        conn.send(proto::irc::pong(msg->trailing).serialize());
      }
      break;
    }
    default:
      break;
  }
}

void C2Server::register_bot(sim::TcpConn& conn, Session& s, std::string bot_id) {
  util::log_line(util::LogLevel::kDebug, "c2server",
                 net::to_string(endpoint()) + " register " + bot_id +
                 " plan=" + std::to_string(cfg_.attack_plan.size()));
  if (s.registered) return;
  s.registered = true;
  s.bot_id = std::move(bot_id);
  if (!cfg_.attack_plan.empty()) schedule_attacks(conn);
}

void C2Server::schedule_attacks(sim::TcpConn& conn) {
  // Spread the plan across the bot's session; the pipeline's restricted
  // observation window is 2 h, so everything lands inside it.
  sim::TcpConn* conn_ptr = &conn;
  const std::uint64_t serial = sessions_state_.at(conn_ptr).serial;
  sim::Duration at = sim::Duration::minutes(
      static_cast<std::int64_t>(rng_.uniform(2, 15)));
  for (std::size_t i = 0; i < cfg_.attack_plan.size(); ++i) {
    schedule_safe(at, [this, conn_ptr, serial, i]() {
      // The serial check defeats TcpConn pointer reuse across sessions: a
      // command scheduled for a dead session must never fire on a new one.
      const auto it = sessions_state_.find(conn_ptr);
      if (it == sessions_state_.end() || !it->second.registered ||
          it->second.serial != serial) {
        return;
      }
      if (!conn_ptr->established()) return;
      proto::AttackCommand cmd = cfg_.attack_plan[i];
      cmd.family = cfg_.family;
      switch (profile_->framing) {
        case profile::Framing::kBinary: {
          const auto wire = profile::wire::encode_binary_attack(*profile_, cmd);
          cmd.raw = wire;
          conn_ptr->send(util::BytesView{wire});
          break;
        }
        case profile::Framing::kText: {
          const auto wire = profile::wire::encode_text_attack(*profile_, cmd);
          cmd.raw = util::to_bytes(wire);
          conn_ptr->send(wire);
          break;
        }
        case profile::Framing::kIrc: {
          // A "new variant" (§2.5b): the command rides inside IRC PRIVMSG,
          // which the analyst's profile decoder does not frame — only the
          // behavioural heuristic can recover it.
          const auto body = profile::wire::encode_text_attack(*profile_, cmd);
          const auto wire = proto::irc::privmsg(
              profile_->irc_channel, body.substr(0, body.size() - 1)).serialize();
          cmd.raw = util::to_bytes(wire);
          conn_ptr->send(wire);
          break;
        }
        default:
          return;  // P2P / tls-beacon servers issue no attacks in the study
      }
      issued_.push_back(IssuedCommand{now(), std::move(cmd)});
    });
    at = at + sim::Duration::minutes(static_cast<std::int64_t>(rng_.uniform(8, 25)));
  }
}

void C2Server::crash(sim::Duration outage) {
  util::log_line(util::LogLevel::kDebug, "c2server",
                 net::to_string(endpoint()) + " crash at " +
                 util::to_string(now()) + " outage=" +
                 std::to_string(outage.us / 1'000'000) + "s");
  ++crashes_;
  crashed_ = true;
  // reset() does not fire the local on_close handler, so the session table
  // must be dropped by hand — and before the aborts, so no handler that
  // does run can observe a half-dead session.
  sessions_state_.clear();
  abort_all_connections();
  force_listening(false);
  schedule_safe(outage, [this]() {
    crashed_ = false;
    reroll_listening();  // no-op if the crash overlapped a dormancy window
  });
}

void C2Server::enter_dormancy() {
  util::log_line(util::LogLevel::kDebug, "c2server",
                 net::to_string(endpoint()) + " dormant at " +
                 util::to_string(now()));
  dormant_ = true;
  force_listening(false);
  const auto cooldown = sim::Duration::seconds(static_cast<std::int64_t>(
      rng_.exponential(1.0 / static_cast<double>(cfg_.mean_dormancy.us / 1'000'000))));
  schedule_safe(cooldown, [this]() {
    dormant_ = false;
    reroll_listening();
  });
}

}  // namespace malnet::botnet
