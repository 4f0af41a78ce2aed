// sim: scheduler semantics, network delivery, host hooks, TCP machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "testkit/check.hpp"
#include "testkit/gen.hpp"

using namespace malnet;
using namespace malnet::sim;

// --- scheduler ---------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  EventScheduler s;
  std::vector<int> order;
  s.after(Duration::seconds(3), [&] { order.push_back(3); });
  s.after(Duration::seconds(1), [&] { order.push_back(1); });
  s.after(Duration::seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(3));
}

TEST(Scheduler, EqualTimesFireInInsertionOrder) {
  EventScheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(SimTime{1000}, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  EventScheduler s;
  bool fired = false;
  const auto id = s.after(Duration::seconds(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelIsIdempotentAndIgnoresBogusIds) {
  EventScheduler s;
  const auto id = s.after(Duration::seconds(1), [] {});
  s.cancel(id);
  s.cancel(id);
  s.cancel(9999);
  s.cancel(0);
  EXPECT_EQ(s.run(), 0u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  EventScheduler s;
  int count = 0;
  s.after(Duration::seconds(1), [&] { ++count; });
  s.after(Duration::seconds(5), [&] { ++count; });
  s.run_until(SimTime{} + Duration::seconds(2));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(2));
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, RunUntilSkipsCancelledHead) {
  EventScheduler s;
  bool late_fired = false;
  const auto early = s.after(Duration::seconds(1), [] { FAIL(); });
  s.after(Duration::seconds(10), [&] { late_fired = true; });
  s.cancel(early);
  s.run_until(SimTime{} + Duration::seconds(5));
  EXPECT_FALSE(late_fired);
  s.run_until(SimTime{} + Duration::seconds(20));
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  EventScheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(Duration::seconds(1), recurse);
  };
  s.after(Duration::seconds(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(Scheduler, PastTimesClampToNow) {
  EventScheduler s;
  s.run_until(SimTime{} + Duration::seconds(10));
  bool fired = false;
  s.at(SimTime{} + Duration::seconds(1), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), SimTime{} + Duration::seconds(10));
}

namespace {

/// One step of a random scheduler session. `arg` is a time offset in ms for
/// the scheduling ops and run_until, a target pick for cancel, and an event
/// limit for run.
struct SchedOp {
  enum Kind : std::uint8_t { kAt, kAfter, kCancel, kRun, kRunUntil };
  Kind kind = kAt;
  std::uint32_t arg = 0;
  bool operator==(const SchedOp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SchedOp& op) {
  static const char* const kNames[] = {"at", "after", "cancel", "run",
                                       "run_until"};
  return os << kNames[op.kind] << '(' << op.arg << ')';
}

/// Replays `ops` on an EventScheduler and on a naive model: pending events
/// in a vector sorted by (time, issue order), fired from the front. Every
/// event logs its issue index when it fires. After each step the firing
/// logs, the clock, pending() and empty() must agree with the model.
bool scheduler_matches_model(const std::vector<SchedOp>& ops) {
  struct Pending {
    SimTime t;
    std::size_t index;  // issue order
  };
  EventScheduler s;
  std::vector<EventId> ids;  // scheduler id of each issued event
  std::vector<std::size_t> fired;
  std::vector<std::size_t> want;
  std::vector<Pending> model;
  SimTime now{};

  const auto schedule = [&](SimTime t) {
    const std::size_t index = ids.size();
    const SimTime at = std::max(t, now);
    model.insert(std::upper_bound(model.begin(), model.end(), at,
                                  [](SimTime x, const Pending& p) {
                                    return x < p.t;
                                  }),
                 Pending{at, index});
    ids.push_back(s.at(t, [&fired, index] { fired.push_back(index); }));
  };
  const auto fire_model = [&] {
    now = model.front().t;
    want.push_back(model.front().index);
    model.erase(model.begin());
  };
  const auto agrees = [&] {
    return fired == want && s.now() == now && s.pending() == model.size() &&
           s.empty() == model.empty();
  };

  for (const auto& op : ops) {
    const auto offset = Duration::millis(op.arg % 16);
    switch (op.kind) {
      case SchedOp::kAt:
        schedule(SimTime{} + offset);  // may lie in the past: clamps to now
        break;
      case SchedOp::kAfter:
        schedule(now + offset);
        break;
      case SchedOp::kCancel: {
        // Picks an issued id (pending, fired or already cancelled), the null
        // id 0, or the next id, which has not been issued yet.
        const std::size_t pick = op.arg % (ids.size() + 2);
        if (pick < ids.size()) {
          std::erase_if(model,
                        [pick](const Pending& p) { return p.index == pick; });
          s.cancel(ids[pick]);
        } else {
          s.cancel(pick == ids.size() ? 0 : (ids.empty() ? 1 : ids.back() + 1));
        }
        break;
      }
      case SchedOp::kRun: {
        const std::size_t limit = op.arg % 4;
        const std::size_t expect = std::min(limit, model.size());
        for (std::size_t i = 0; i < expect; ++i) fire_model();
        if (s.run(limit) != expect) return false;
        break;
      }
      case SchedOp::kRunUntil: {
        const SimTime until = now + offset;
        std::size_t expect = 0;
        for (; !model.empty() && model.front().t <= until; ++expect) {
          fire_model();
        }
        now = until;
        if (s.run_until(until) != expect) return false;
        break;
      }
    }
    if (!agrees()) return false;
  }
  // Drain: run() executes exactly the events pending() reported.
  const std::size_t expect = model.size();
  while (!model.empty()) fire_model();
  return s.run() == expect && agrees();
}

}  // namespace

TEST(SchedulerProps, MatchesSortedVectorModel) {
  const auto ops = testkit::vectors_of(
      testkit::apply(
          [](SchedOp::Kind kind, std::uint32_t arg) {
            return SchedOp{kind, arg};
          },
          testkit::weighted<SchedOp::Kind>({{3, SchedOp::kAt},
                                            {3, SchedOp::kAfter},
                                            {3, SchedOp::kCancel},
                                            {2, SchedOp::kRun},
                                            {1, SchedOp::kRunUntil}}),
          testkit::ints<std::uint32_t>(0, 1000)),
      0, 48);
  testkit::CheckConfig cfg;
  cfg.name = "scheduler vs sorted-vector model";
  const auto r = testkit::check(ops, scheduler_matches_model, cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- network -----------------------------------------------------------------

namespace {
struct TestWorld {
  EventScheduler sched;
  Network net{sched};
};
}  // namespace

TEST(Network, DuplicateAddressThrows) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  EXPECT_THROW(Host(w.net, net::Ipv4{10, 0, 0, 1}), std::logic_error);
}

TEST(Network, DetachOnDestruction) {
  TestWorld w;
  {
    Host a(w.net, net::Ipv4{10, 0, 0, 1});
    EXPECT_EQ(w.net.host_count(), 1u);
  }
  EXPECT_EQ(w.net.host_count(), 0u);
  Host b(w.net, net::Ipv4{10, 0, 0, 1});  // address is reusable
  EXPECT_EQ(w.net.host_count(), 1u);
}

TEST(Network, LatencyIsDeterministicAndBounded) {
  TestWorld w;
  const net::Ipv4 a{1, 1, 1, 1}, b{2, 2, 2, 2};
  const auto l1 = w.net.latency(a, b);
  const auto l2 = w.net.latency(a, b);
  EXPECT_EQ(l1.us, l2.us);
  EXPECT_GE(l1.us, Duration::millis(5).us);
  EXPECT_LE(l1.us, Duration::millis(120).us);
}

TEST(Network, UdpDelivery) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  std::string got;
  b.udp_bind(5000, [&](const net::Packet& p) { got = util::to_string(p.payload); });
  a.udp_send({b.addr(), 5000}, util::to_bytes("ping"));
  w.sched.run();
  EXPECT_EQ(got, "ping");
}

TEST(Network, UdpToUnboundPortIsDropped) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  a.udp_send({b.addr(), 1234}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(w.net.packets_delivered(), 1u);  // delivered to host, then dropped
}

TEST(Network, DarkAddressSwallowsPackets) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_send({net::Ipv4{99, 99, 99, 99}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(w.net.packets_transmitted(), 1u);
  EXPECT_EQ(w.net.packets_delivered(), 0u);
}

TEST(Network, FifoPerPair) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  std::vector<int> got;
  b.udp_bind(1, [&](const net::Packet& p) { got.push_back(p.payload[0]); });
  for (int i = 0; i < 10; ++i) {
    a.udp_send({b.addr(), 1}, util::Bytes{static_cast<std::uint8_t>(i)});
  }
  w.sched.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Network, IcmpHandler) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  int type = -1;
  b.set_icmp_handler([&](const net::Packet& p) { type = p.icmp.type; });
  a.icmp_send(b.addr(), 3, 3);
  w.sched.run();
  EXPECT_EQ(type, 3);
}

TEST(Network, GlobalTapSeesTransmits) {
  TestWorld w;
  int tapped = 0;
  w.net.set_global_tap([&](const net::Packet&) { ++tapped; });
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(tapped, 1);
}

TEST(Host, TapSeesDroppedOutbound) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  int taps = 0;
  a.set_tap([&](const net::Packet&, bool outbound) { taps += outbound ? 1 : 0; });
  a.set_outbound_filter([](net::Packet&) { return false; });  // drop all
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 1}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(w.net.packets_transmitted(), 0u);
}

TEST(Host, OutboundFilterCanRewriteDestination) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  bool got = false;
  b.udp_bind(7, [&](const net::Packet&) { got = true; });
  a.set_outbound_filter([&](net::Packet& p) {
    p.dst = b.addr();  // DNAT
    return true;
  });
  a.udp_send({net::Ipv4{99, 0, 0, 1}, 7}, util::to_bytes("x"));
  w.sched.run();
  EXPECT_TRUE(got);
}

TEST(Host, EphemeralPortsSkipBoundOnes) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  a.udp_bind(49152, [](const net::Packet&) {});
  const auto p = a.alloc_ephemeral_port();
  EXPECT_NE(p, 49152);
  EXPECT_GE(p, 49152);
}

// --- TCP ---------------------------------------------------------------------

TEST(Tcp, HandshakeAndData) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});

  std::string server_got, client_got;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_data([&](TcpConn& c, util::BytesView d) {
      server_got = util::to_string(d);
      c.send(std::string_view("pong"));
    });
  });
  TcpConn* client_conn = nullptr;
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    client_conn = c;
    c->on_data([&](TcpConn&, util::BytesView d) { client_got = util::to_string(d); });
    c->send(std::string_view("ping"));
  });
  w.sched.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
  ASSERT_NE(client_conn, nullptr);
  EXPECT_TRUE(client_conn->established());
  EXPECT_EQ(client_conn->bytes_sent(), 4u);
  EXPECT_EQ(client_conn->bytes_received(), 4u);
}

TEST(Tcp, RefusedWhenNotListening) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  ConnectOutcome outcome{};
  client.tcp_connect({server.addr(), 81},
                     [&](ConnectOutcome o, TcpConn*) { outcome = o; });
  w.sched.run();
  EXPECT_EQ(outcome, ConnectOutcome::kRefused);
}

TEST(Tcp, TimeoutOnDarkAddress) {
  TestWorld w;
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  ConnectOutcome outcome{};
  client.tcp_connect({net::Ipv4{66, 0, 0, 1}, 80},
                     [&](ConnectOutcome o, TcpConn*) { outcome = o; },
                     Duration::seconds(2));
  w.sched.run();
  EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
  EXPECT_EQ(client.open_connections(), 0u);
}

TEST(Tcp, LateSynAckAfterConnectTimeoutIsReset) {
  // The connect gives up before the SYN-ACK can arrive (one-way latency is
  // at least 5 ms). The client has forgotten the connection, so it must
  // answer the late SYN-ACK with RST; otherwise the server's half-open
  // connection lives forever.
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  server.tcp_listen(80, [&](TcpConn&) { FAIL() << "accept must not fire"; });
  int callbacks = 0;
  ConnectOutcome outcome{};
  client.tcp_connect({server.addr(), 80},
                     [&](ConnectOutcome o, TcpConn*) {
                       ++callbacks;
                       outcome = o;
                     },
                     Duration::millis(1));
  w.sched.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
  EXPECT_EQ(client.open_connections(), 0u);
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(Tcp, CloseNotifiesPeer) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  bool server_closed = false;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { server_closed = true; });
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->close();
  });
  w.sched.run();
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, ResetNotifiesPeer) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  bool server_closed = false;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { server_closed = true; });
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->reset();
  });
  w.sched.run();
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, ListenerRemovedBetweenSynAckAndAckRefuses) {
  // Regression: a C2 toggling its listener off mid-handshake must RST the
  // half-accepted connection, not leave a silent handler-less session.
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  server.tcp_listen(80, [&](TcpConn&) { FAIL() << "accept must not fire"; });

  bool client_saw_close = false;
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome o, TcpConn* c) {
    // The client completes the handshake first...
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->on_close([&](TcpConn&) { client_saw_close = true; });
  });
  // Unlisten exactly after the SYN-ACK leaves but before the ACK arrives:
  // run only until the SYN has been delivered to the server.
  w.sched.run(2);  // SYN transmit event + server delivery (sends SYN-ACK)
  server.tcp_unlisten(80);
  w.sched.run();
  EXPECT_TRUE(client_saw_close);
}

TEST(Tcp, InboundFlagAndEndpoints) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  server.tcp_listen(80, [&](TcpConn& conn) {
    EXPECT_TRUE(conn.inbound());
    EXPECT_EQ(conn.local().ip, server.addr());
    EXPECT_EQ(conn.remote().ip, client.addr());
  });
  client.tcp_connect({server.addr(), 80}, [&](ConnectOutcome, TcpConn* c) {
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->inbound());
  });
  w.sched.run();
}

TEST(Tcp, CloseAllConnections) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  Host client(w.net, net::Ipv4{10, 0, 0, 2});
  int server_closes = 0;
  server.tcp_listen(80, [&](TcpConn& conn) {
    conn.on_close([&](TcpConn&) { ++server_closes; });
  });
  for (int i = 0; i < 3; ++i) {
    client.tcp_connect({server.addr(), 80}, [](ConnectOutcome, TcpConn*) {});
  }
  w.sched.run();
  client.close_all_connections();
  w.sched.run();
  EXPECT_EQ(server_closes, 3);
}

TEST(Tcp, InboundRewriterRestoresAddresses) {
  // Simulate the sandbox NAT: client sends to X, filter rewrites to B, the
  // inbound rewriter restores B's replies to X so the client's TCP state
  // machine matches.
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 2});
  Host client(w.net, net::Ipv4{10, 0, 0, 3});
  const net::Ipv4 phantom{99, 0, 0, 9};
  server.tcp_listen(23, [](TcpConn& conn) { conn.send(std::string_view("hi")); });
  client.set_outbound_filter([&](net::Packet& p) {
    if (p.dst == phantom) p.dst = server.addr();
    return true;
  });
  client.set_inbound_rewriter([&](net::Packet& p) {
    if (p.src == server.addr()) p.src = phantom;
  });
  std::string got;
  client.tcp_connect({phantom, 23}, [&](ConnectOutcome o, TcpConn* c) {
    ASSERT_EQ(o, ConnectOutcome::kConnected);
    c->on_data([&](TcpConn&, util::BytesView d) { got = util::to_string(d); });
  });
  w.sched.run();
  EXPECT_EQ(got, "hi");
}

TEST(Network, PacketLossDropsConfiguredFraction) {
  EventScheduler sched;
  NetworkConfig cfg;
  cfg.loss = 0.3;
  Network net(sched, cfg);
  Host a(net, net::Ipv4{10, 0, 0, 1});
  Host b(net, net::Ipv4{10, 0, 0, 2});
  int got = 0;
  b.udp_bind(9, [&](const net::Packet&) { ++got; });
  for (int i = 0; i < 2000; ++i) {
    a.udp_send({b.addr(), 9}, util::to_bytes("x"));
  }
  sched.run();
  EXPECT_NEAR(static_cast<double>(got) / 2000.0, 0.7, 0.05);
  EXPECT_EQ(net.packets_lost() + static_cast<std::uint64_t>(got), 2000u);
}

TEST(Network, RejectsInvalidLoss) {
  EventScheduler sched;
  NetworkConfig cfg;
  cfg.loss = 1.0;
  EXPECT_THROW(Network(sched, cfg), std::invalid_argument);
}
