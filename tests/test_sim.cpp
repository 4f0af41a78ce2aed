// sim: scheduler semantics, network delivery, host hooks, TCP machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <tuple>

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
/// limit for run. kSpawn and kCancelFromEvent schedule an event (offset
/// `arg % 16` ms) that acts when it fires: it schedules a child after
/// `arg / 16 % 16` ms, or cancels the pick `arg / 16`.
struct SchedOp {
  enum Kind : std::uint8_t {
    kAt,
    kAfter,
    kCancel,
    kRun,
    kRunUntil,
    kSpawn,
    kCancelFromEvent
  };
  Kind kind = kAt;
  std::uint32_t arg = 0;
  bool operator==(const SchedOp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SchedOp& op) {
  static const char* const kNames[] = {"at",    "after",     "cancel",
                                       "run",   "run_until", "spawn",
                                       "cancel_from_event"};
  return os << kNames[op.kind] << '(' << op.arg << ')';
}

/// Replays `ops` on an EventScheduler and on a naive model: pending events
/// in a vector sorted by (time, issue order), fired from the front. Every
/// event logs its issue index when it fires; spawning and cancelling
/// events then act from inside their callback, so children take slots
/// while the scheduler is firing and cancels reach pending, fired and
/// unissued ids. After each step the firing logs, the clock, pending() and
/// empty() must agree with the model.
bool scheduler_matches_model(const std::vector<SchedOp>& ops) {
  /// What an event does when it fires, after logging its index: kSpawn or
  /// kCancelFromEvent act on `arg`; any other kind does nothing.
  struct Action {
    SchedOp::Kind kind = SchedOp::kAt;
    std::uint32_t arg = 0;
  };
  struct Pending {
    SimTime t;
    std::size_t index;  // issue order
    Action action;
  };
  EventScheduler s;
  std::vector<EventId> ids;  // scheduler id of each issued event
  std::vector<std::size_t> fired;
  std::vector<std::size_t> want;
  std::vector<Pending> model;
  std::size_t issued = 0;  // events the model has issued
  SimTime now{};

  const auto child_offset = [](std::uint32_t arg) {
    return Duration::millis(arg / 16 % 16);
  };
  // Picks an issued id (pending, fired or already cancelled), the null id
  // 0, or the next id, which has not been issued yet.
  const auto cancel_pick = [&](std::uint32_t arg) {
    const std::size_t pick = arg % (ids.size() + 2);
    if (pick < ids.size()) {
      s.cancel(ids[pick]);
    } else {
      s.cancel(pick == ids.size() ? 0 : (ids.empty() ? 1 : ids.back() + 1));
    }
  };
  const auto issue_child = [&](SimTime t) {
    const std::size_t index = ids.size();
    ids.push_back(s.at(t, [&fired, index] { fired.push_back(index); }));
  };
  const auto issue = [&](SimTime t, Action action) {
    const std::size_t index = ids.size();
    ids.push_back(s.at(t, [&, index, action] {
      fired.push_back(index);
      if (action.kind == SchedOp::kSpawn) {
        issue_child(s.now() + child_offset(action.arg));
      } else if (action.kind == SchedOp::kCancelFromEvent) {
        cancel_pick(action.arg / 16);
      }
    }));
  };

  const auto model_insert = [&](SimTime t, Action action) {
    const SimTime at = std::max(t, now);
    model.insert(std::upper_bound(model.begin(), model.end(), at,
                                  [](SimTime x, const Pending& p) {
                                    return x < p.t;
                                  }),
                 Pending{at, issued++, action});
  };
  const auto model_cancel = [&](std::uint32_t arg) {
    const std::size_t pick = arg % (issued + 2);
    std::erase_if(model, [pick](const Pending& p) { return p.index == pick; });
  };
  const auto fire_model = [&] {
    const Pending p = model.front();
    model.erase(model.begin());
    now = p.t;
    want.push_back(p.index);
    if (p.action.kind == SchedOp::kSpawn) {
      model_insert(now + child_offset(p.action.arg), Action{});
    } else if (p.action.kind == SchedOp::kCancelFromEvent) {
      model_cancel(p.action.arg / 16);
    }
  };
  const auto schedule = [&](SimTime t, Action action) {
    model_insert(t, action);
    issue(t, action);
  };
  const auto agrees = [&] {
    return fired == want && ids.size() == issued && s.now() == now &&
           s.pending() == model.size() && s.empty() == model.empty();
  };

  for (const auto& op : ops) {
    const auto offset = Duration::millis(op.arg % 16);
    switch (op.kind) {
      case SchedOp::kAt:
        schedule(SimTime{} + offset, {});  // may lie in the past: clamps to now
        break;
      case SchedOp::kAfter:
        schedule(now + offset, {});
        break;
      case SchedOp::kSpawn:
      case SchedOp::kCancelFromEvent:
        schedule(now + offset, Action{op.kind, op.arg});
        break;
      case SchedOp::kCancel:
        model_cancel(op.arg);
        cancel_pick(op.arg);
        break;
      case SchedOp::kRun: {
        const std::size_t limit = op.arg % 4;
        std::size_t expect = 0;
        for (; expect < limit && !model.empty(); ++expect) fire_model();
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
  // Drain: run() executes exactly the events pending() reported, plus the
  // children they spawn.
  std::size_t expect = 0;
  for (; !model.empty(); ++expect) fire_model();
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
                                            {1, SchedOp::kRunUntil},
                                            {2, SchedOp::kSpawn},
                                            {2, SchedOp::kCancelFromEvent}}),
          testkit::ints<std::uint32_t>(0, 1000)),
      0, 48);
  testkit::CheckConfig cfg;
  cfg.name = "scheduler vs sorted-vector model";
  const auto r = testkit::check(ops, scheduler_matches_model, cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(Scheduler, CallbacksReleaseCapturesOnce) {
  // Each callback holds one reference to `token`. It must drop it exactly
  // once: after the event fires, once a cancelled event is drained, and when
  // the scheduler is destroyed with the event still pending. The small
  // closure lives in the callback's inline buffer, the large one on the heap.
  const auto check_release = [](auto make_callback) {
    auto token = std::make_shared<int>(0);
    {
      EventScheduler s;
      s.after(Duration::seconds(1), make_callback(token));
      EXPECT_EQ(token.use_count(), 2);
      s.run();
      EXPECT_EQ(*token, 1);
      EXPECT_EQ(token.use_count(), 1);

      s.cancel(s.after(Duration::seconds(1), make_callback(token)));
      s.run();
      EXPECT_EQ(*token, 1);
      EXPECT_EQ(token.use_count(), 1);

      s.after(Duration::seconds(1), make_callback(token));
      EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
  };
  const auto small = [](std::shared_ptr<int> t) { return [t] { ++*t; }; };
  const auto large = [](std::shared_ptr<int> t) {
    return [t, pad = std::array<char, 256>{}] { *t += 1 + pad[0]; };
  };
  static_assert(Callback::stores_inline<decltype(small(nullptr))>);
  static_assert(!Callback::stores_inline<decltype(large(nullptr))>);
  check_release(small);
  check_release(large);
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

TEST(Host, EphemeralPortsSkipPortsHeldByConnections) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host peer(w.net, net::Ipv4{10, 0, 0, 2});
  peer.tcp_listen(80, [](TcpConn&) {});
  // Outbound: a's first connect takes the first ephemeral port.
  TcpConn* outbound = nullptr;
  a.tcp_connect({peer.addr(), 80},
                [&](ConnectOutcome, TcpConn* c) { outbound = c; });
  // Inbound: the peer connects to an ephemeral-range port that a then stops
  // listening on, so only the connection holds the port.
  constexpr net::Port kListened = 50000;
  TcpConn* inbound = nullptr;
  a.tcp_listen(kListened, [&](TcpConn& c) { inbound = &c; });
  peer.tcp_connect({a.addr(), kListened}, [](ConnectOutcome, TcpConn*) {});
  w.sched.run();
  ASSERT_NE(outbound, nullptr);
  ASSERT_NE(inbound, nullptr);
  ASSERT_EQ(outbound->local().port, 49152);
  a.tcp_unlisten(kListened);

  // Ports a hands out, read from its SYNs. One cycle runs enough
  // connect-and-timeout rounds to a dark address to wrap the counter.
  std::multiset<net::Port> handed;
  a.set_tap([&](const net::Packet& p, bool outbound_packet) {
    if (outbound_packet && p.flags.syn) handed.insert(p.src_port);
  });
  const auto cycle = [&] {
    handed.clear();
    for (int i = 0; i < 16384; ++i) {
      a.tcp_connect({net::Ipv4{66, 0, 0, 1}, 80}, [](ConnectOutcome, TcpConn*) {},
                    Duration::millis(1));
      w.sched.run();
    }
  };
  cycle();
  EXPECT_EQ(handed.count(49152), 0u);
  EXPECT_EQ(handed.count(kListened), 0u);
  EXPECT_EQ(std::set<net::Port>(handed.begin(), handed.end()).size(), 16382u);

  outbound->close();
  inbound->close();
  w.sched.run();  // the FIN exchange, then the 60 s erase sweep
  ASSERT_EQ(a.open_connections(), 0u);
  cycle();
  EXPECT_EQ(handed.count(49152), 1u);
  EXPECT_EQ(handed.count(kListened), 1u);
  EXPECT_EQ(std::set<net::Port>(handed.begin(), handed.end()).size(), 16384u);
}

TEST(Host, EphemeralPortsSkipPortsHeldByProbes) {
  // An outstanding probe holds its port until it times out. A refused one
  // hands it to a closed connection, which holds it until the 60 s erase,
  // as a refused tcp_connect does.
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host peer(w.net, net::Ipv4{10, 0, 0, 2});  // listens nowhere, so it refuses
  std::vector<ConnectOutcome> outcomes;
  const auto record = [&](ConnectOutcome o, TcpConn*) { outcomes.push_back(o); };
  a.tcp_probe({net::Ipv4{66, 0, 0, 1}, 80}, record, Duration::seconds(2));  // 49152
  a.tcp_probe({peer.addr(), 81}, record, Duration::seconds(2));             // 49153
  // The ports one full cycle of the allocator hands out.
  const auto cycle = [&] {
    std::set<net::Port> handed;
    for (std::size_t i = 0; i < 16384; ++i) handed.insert(a.alloc_ephemeral_port());
    return handed;
  };

  w.sched.run_until(SimTime{} + Duration::seconds(1));
  ASSERT_EQ(outcomes, std::vector<ConnectOutcome>{ConnectOutcome::kRefused});
  EXPECT_EQ(a.open_connections(), 1u);  // the refused probe's, closed
  auto handed = cycle();
  EXPECT_EQ(handed.count(49152), 0u);
  EXPECT_EQ(handed.count(49153), 0u);
  EXPECT_EQ(handed.size(), 16382u);

  w.sched.run_until(SimTime{} + Duration::seconds(3));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1], ConnectOutcome::kTimeout);
  handed = cycle();
  EXPECT_EQ(handed.count(49152), 1u);
  EXPECT_EQ(handed.count(49153), 0u);
  EXPECT_EQ(handed.size(), 16383u);

  w.sched.run();  // the 60 s erase
  EXPECT_EQ(a.open_connections(), 0u);
  EXPECT_EQ(cycle().size(), 16384u);
}

TEST(Host, ProbesSentTogetherShareOneTimer) {
  // A dark probe makes no connection and schedules no event of its own:
  // probes sent at one sim time with one timeout share one timer, which
  // times them out in send order.
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  std::vector<int> timed_out;
  const auto probe_dark = [&](int i) {
    a.tcp_probe({net::Ipv4{66, 0, 0, static_cast<std::uint8_t>(1 + i)}, 80},
                [&timed_out, i](ConnectOutcome o, TcpConn* c) {
                  EXPECT_EQ(o, ConnectOutcome::kTimeout);
                  EXPECT_EQ(c, nullptr);
                  timed_out.push_back(i);
                },
                Duration::seconds(2));
  };
  for (int i = 0; i < 13; ++i) probe_dark(i);
  EXPECT_EQ(w.sched.pending(), 1u);
  EXPECT_EQ(a.open_connections(), 0u);
  EXPECT_EQ(w.net.packets_dark(), 13u);
  EXPECT_EQ(w.sched.run(), 1u);
  EXPECT_EQ(w.sched.now(), SimTime{} + Duration::seconds(2));

  // Thirteen sent at two sim times: two timers.
  for (int i = 13; i < 20; ++i) probe_dark(i);
  w.sched.run_until(w.sched.now() + Duration::millis(100));
  for (int i = 20; i < 26; ++i) probe_dark(i);
  EXPECT_EQ(w.sched.pending(), 2u);
  EXPECT_EQ(a.open_connections(), 0u);
  EXPECT_EQ(w.sched.run(), 2u);

  std::vector<int> sent(26);
  for (int i = 0; i < 26; ++i) sent[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(timed_out, sent);
}

TEST(Host, ProbeRejectsFallingDeadlinesAndNonPositiveTimeouts) {
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  std::vector<net::Port> syn_ports;
  a.set_tap([&](const net::Packet& p, bool) { syn_ports.push_back(p.src_port); });
  const net::Endpoint dark{net::Ipv4{66, 0, 0, 1}, 80};
  int calls = 0;
  const auto count = [&calls](ConnectOutcome, TcpConn*) { ++calls; };
  a.tcp_probe(dark, count, Duration::seconds(2));
  EXPECT_THROW(a.tcp_probe(dark, count, Duration::seconds(1)), std::invalid_argument);
  EXPECT_THROW(a.tcp_probe(dark, count, Duration{}), std::invalid_argument);
  EXPECT_THROW(a.tcp_probe(dark, ConnectHandler{}, Duration::seconds(3)),
               std::invalid_argument);
  a.tcp_probe(dark, count, Duration::seconds(3));
  // A rejected probe took no port and sent nothing.
  EXPECT_EQ(syn_ports, (std::vector<net::Port>{49152, 49153}));
  w.sched.run();
  EXPECT_EQ(calls, 2);
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
  // connection lives forever. A probe that timed out is forgotten alike.
  for (const bool probe : {false, true}) {
    SCOPED_TRACE(probe ? "tcp_probe" : "tcp_connect");
    TestWorld w;
    Host server(w.net, net::Ipv4{10, 0, 0, 1});
    Host client(w.net, net::Ipv4{10, 0, 0, 2});
    server.tcp_listen(80, [&](TcpConn&) { FAIL() << "accept must not fire"; });
    int callbacks = 0;
    ConnectOutcome outcome{};
    ConnectHandler handler = [&](ConnectOutcome o, TcpConn*) {
      ++callbacks;
      outcome = o;
    };
    if (probe) {
      client.tcp_probe({server.addr(), 80}, std::move(handler), Duration::millis(1));
    } else {
      client.tcp_connect({server.addr(), 80}, std::move(handler), Duration::millis(1));
    }
    w.sched.run();
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
    EXPECT_EQ(client.open_connections(), 0u);
    EXPECT_EQ(server.open_connections(), 0u);
  }
}

TEST(Tcp, ProbeIgnoresStraySegments) {
  // A SYN-SENT connection acts only on a SYN-ACK or a RST, so a bare ACK or
  // a data segment to an outstanding probe gets no reply and no outcome.
  TestWorld w;
  Host prober(w.net, net::Ipv4{10, 0, 0, 1});
  Host target(w.net, net::Ipv4{10, 0, 0, 2});
  // Nothing listens on the target; drop its RST so the probe stays open.
  target.set_outbound_filter([](net::Packet& p) { return !p.flags.rst; });
  std::vector<net::Packet> sent;
  prober.set_tap([&](const net::Packet& p, bool outbound) {
    if (outbound) sent.push_back(p);
  });
  int callbacks = 0;
  ConnectOutcome outcome{};
  SimTime resolved{};
  prober.tcp_probe({target.addr(), 80},
                   [&](ConnectOutcome o, TcpConn*) {
                     ++callbacks;
                     outcome = o;
                     resolved = w.sched.now();
                   },
                   Duration::seconds(2));
  ASSERT_EQ(sent.size(), 1u);
  const net::Packet syn = sent[0];

  w.sched.run_until(SimTime{} + Duration::millis(500));
  const net::Endpoint from{target.addr(), 80};
  const net::Endpoint to{prober.addr(), syn.src_port};
  target.send_raw(tcp_segment(from, to,
                              net::TcpFlags{.syn = false, .ack = true, .fin = false,
                                            .rst = false, .psh = false},
                              7, syn.seq + 1));
  target.send_raw(tcp_segment(from, to,
                              net::TcpFlags{.syn = false, .ack = true, .fin = false,
                                            .rst = false, .psh = true},
                              7, syn.seq + 1, util::to_bytes("hi")));
  w.sched.run_until(SimTime{} + Duration::millis(1999));
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(w.net.packets_delivered(), 3u);  // the SYN and both stray segments

  w.sched.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
  EXPECT_EQ(resolved, SimTime{} + Duration::seconds(2));
  EXPECT_EQ(sent.size(), 1u);  // no reply to either stray segment
  EXPECT_EQ(prober.open_connections(), 0u);
}

TEST(Tcp, DestroyingAHostWithProbesOutstandingFiresNoHandler) {
  TestWorld w;
  Host server(w.net, net::Ipv4{10, 0, 0, 1});
  server.tcp_listen(80, [](TcpConn&) {});
  int callbacks = 0;
  const auto count = [&callbacks](ConnectOutcome, TcpConn*) { ++callbacks; };

  // Destroyed outright: a probe the server will answer, dark ones in two
  // groups. The answer and both timers find no host.
  auto prober = std::make_unique<Host>(w.net, net::Ipv4{10, 0, 0, 2});
  prober->tcp_probe({server.addr(), 80}, count, Duration::seconds(2));
  prober->tcp_probe({net::Ipv4{66, 0, 0, 1}, 80}, count, Duration::seconds(2));
  prober->tcp_probe({net::Ipv4{66, 0, 0, 2}, 80}, count, Duration::seconds(3));
  prober.reset();
  w.sched.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_TRUE(w.sched.empty());

  // Destroyed by the first handler its group's timer fires: the rest of
  // the group and the next group stay silent.
  prober = std::make_unique<Host>(w.net, net::Ipv4{10, 0, 0, 2});
  for (std::uint8_t i = 1; i <= 3; ++i) {
    prober->tcp_probe({net::Ipv4{66, 0, 0, i}, 80},
                      [&](ConnectOutcome, TcpConn*) {
                        ++callbacks;
                        prober.reset();
                      },
                      Duration::seconds(2));
  }
  prober->tcp_probe({net::Ipv4{66, 0, 0, 4}, 80}, count, Duration::seconds(3));
  w.sched.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(w.sched.empty());
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

TEST(Tcp, TeardownVisitsConnectionsInKeyOrder) {
  // Teardown packets leave in (local port, remote) order, whatever order
  // the connections were opened in, so the simulation stays deterministic.
  TestWorld w;
  Host a(w.net, net::Ipv4{10, 0, 0, 1});
  Host b(w.net, net::Ipv4{10, 0, 0, 2});
  Host c(w.net, net::Ipv4{10, 0, 0, 3});
  for (Host* h : {&a, &b, &c}) {
    h->tcp_listen(23, [](TcpConn&) {});
    h->tcp_listen(80, [](TcpConn&) {});
  }
  const auto dial = [](Host& from, Host& to, net::Port port) {
    from.tcp_connect({to.addr(), port}, [](ConnectOutcome o, TcpConn*) {
      ASSERT_EQ(o, ConnectOutcome::kConnected);
    });
  };
  for (Host* x : {&a, &b}) {
    Host& other = x == &a ? b : a;
    dial(c, *x, 80);
    dial(*x, c, 80);
    dial(other, *x, 23);
    dial(*x, other, 23);
    dial(*x, c, 23);
    dial(c, *x, 23);
    dial(other, *x, 80);
  }
  w.sched.run();

  using Key = std::pair<net::Port, net::Endpoint>;
  const auto teardown_order = [](Host& h, auto teardown) {
    std::vector<Key> sent;
    h.set_tap([&sent](const net::Packet& p, bool outbound) {
      if (outbound) sent.push_back({p.src_port, {p.dst, p.dst_port}});
    });
    teardown(h);
    h.clear_tap();
    return sent;
  };
  const auto fins = teardown_order(a, [](Host& h) { h.close_all_connections(); });
  const auto rsts = teardown_order(b, [](Host& h) { h.abort_all_connections(); });
  EXPECT_EQ(fins.size(), 10u);
  EXPECT_EQ(rsts.size(), 10u);
  EXPECT_TRUE(std::is_sorted(fins.begin(), fins.end()));
  EXPECT_TRUE(std::is_sorted(rsts.begin(), rsts.end()));
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

namespace {

/// One step of a random TCP session across three hosts. `a` and `b` pick
/// the host, target, port, connection, size or run length each kind needs.
struct TcpOp {
  enum Kind : std::uint8_t {
    kListen,
    kUnlisten,
    kConnect,
    kSend,
    kClose,
    kReset,
    kAbortAll,
    kRun
  };
  Kind kind = kListen;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool operator==(const TcpOp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TcpOp& op) {
  static const char* const kNames[] = {"listen", "unlisten", "connect",
                                       "send",   "close",    "reset",
                                       "abort_all", "run"};
  return os << kNames[op.kind] << '(' << op.a << ',' << op.b << ')';
}

/// Replays `ops` on three hosts of a lossless network, each listening on
/// port 80 to begin with, then closes every connection, one host at a time,
/// and drains the scheduler. Every connect handler must have
/// fired exactly once, every host's connection table must be empty, and
/// each connection that its peer closed with FIN (FIN both ways, no RST
/// either way) must have received every byte the peer sent. The side that
/// sent the first FIN is not checked: the model has no half-close, so it
/// drops data that crosses its FIN.
bool connections_settle(const std::vector<TcpOp>& ops) {
  EventScheduler sched;
  Network net(sched);
  Host h0(net, net::Ipv4{10, 0, 0, 1});
  Host h1(net, net::Ipv4{10, 0, 0, 2});
  Host h2(net, net::Ipv4{10, 0, 0, 3});
  const std::array<Host*, 3> hosts{&h0, &h1, &h2};
  // 50000 lies in the ephemeral range, so inbound connections hold ports
  // the allocator must skip.
  const std::array<net::Port, 3> ports{80, 23, 50000};

  struct Flow {
    std::uint64_t bytes = 0;
    bool fin = false;
    bool rst = false;
  };
  std::map<std::pair<net::Endpoint, net::Endpoint>, Flow> flows;  // (src, dst)
  net.set_global_tap([&](const net::Packet& p) {
    Flow& f = flows[{{p.src, p.src_port}, {p.dst, p.dst_port}}];
    f.bytes += p.payload.size();
    f.fin |= p.flags.fin;
    f.rst |= p.flags.rst;
  });

  struct Live {
    std::size_t host;
    TcpConn* conn;
  };
  struct PeerClosed {
    net::Endpoint local;
    net::Endpoint remote;
    std::uint64_t received;
  };
  std::vector<Live> live;  // open connections the test may act on
  std::vector<PeerClosed> peer_closed;
  std::vector<int> handler_calls;  // per connect
  bool draining = false;
  const auto adopt = [&](std::size_t host, TcpConn& conn) {
    if (draining) {
      conn.close();
      return;
    }
    conn.on_close([&](TcpConn& c) {
      peer_closed.push_back({c.local(), c.remote(), c.bytes_received()});
      std::erase_if(live, [&c](const Live& l) { return l.conn == &c; });
    });
    live.push_back({host, &conn});
  };
  const auto take = [&](std::uint32_t pick) {
    const std::size_t i = pick % live.size();
    TcpConn* conn = live[i].conn;
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    return conn;
  };

  const auto listen = [&](std::size_t h, net::Port port) {
    hosts[h]->tcp_listen(port, [&adopt, h](TcpConn& c) { adopt(h, c); });
  };
  for (std::size_t h = 0; h < hosts.size(); ++h) listen(h, ports[0]);

  for (const auto& op : ops) {
    const std::size_t h = op.a % hosts.size();
    switch (op.kind) {
      case TcpOp::kListen:
        listen(h, ports[op.b % ports.size()]);
        break;
      case TcpOp::kUnlisten:
        hosts[h]->tcp_unlisten(ports[op.b % ports.size()]);
        break;
      case TcpOp::kConnect: {
        // Targets: the three hosts (a host may dial itself) and a dark
        // address. Timeouts fall below one round trip (10 ms at least),
        // in between, or past the 60 s erase delay.
        // Port 80, which every host listens on at first, is picked twice
        // as often as the others.
        const net::Ipv4 dst =
            op.b % 4 < hosts.size() ? hosts[op.b % 4]->addr() : net::Ipv4{10, 9, 9, 9};
        const net::Port port = ports[op.b / 4 % 4 % ports.size()];
        const Duration timeouts[] = {Duration::millis(1 + op.b / 48 % 9),
                                     Duration::seconds(2),
                                     Duration::seconds(61 + op.b / 48)};
        const std::size_t index = handler_calls.size();
        handler_calls.push_back(0);
        hosts[h]->tcp_connect(
            {dst, port},
            [&handler_calls, &adopt, h, index](ConnectOutcome o, TcpConn* c) {
              ++handler_calls[index];
              if (o == ConnectOutcome::kConnected) adopt(h, *c);
            },
            timeouts[op.b / 16 % 3]);
        break;
      }
      case TcpOp::kSend:
        if (!live.empty()) {
          live[op.a % live.size()].conn->send(
              util::Bytes(1 + op.b % 64, static_cast<std::uint8_t>(op.b)));
        }
        break;
      case TcpOp::kClose:
        if (!live.empty()) take(op.a)->close();
        break;
      case TcpOp::kReset:
        if (!live.empty()) take(op.a)->reset();
        break;
      case TcpOp::kAbortAll:
        hosts[h]->abort_all_connections();
        std::erase_if(live, [h](const Live& l) { return l.host == h; });
        break;
      case TcpOp::kRun:
        if (op.b % 4 == 3) {
          sched.run_until(sched.now() + Duration::seconds(61));
        } else if (op.b % 2 == 1) {
          sched.run_until(sched.now() + Duration::millis(op.a % 300));
        } else {
          sched.run(op.a % 8);
        }
        break;
    }
  }

  // Close one host's connections at a time, so their peers close on FIN.
  draining = true;
  live.clear();
  for (Host* host : hosts) {
    host->close_all_connections();
    sched.run();
  }

  for (const int calls : handler_calls) {
    if (calls != 1) return false;
  }
  for (const Host* host : hosts) {
    if (host->open_connections() != 0) return false;
  }
  for (const auto& c : peer_closed) {
    const Flow in = flows[{c.remote, c.local}];
    const Flow out = flows[{c.local, c.remote}];
    if (!in.fin || !out.fin || in.rst || out.rst) continue;
    if (c.received != in.bytes) return false;
  }
  return true;
}

}  // namespace

TEST(TcpProps, ConnectionsSettleAtLossZero) {
  const auto ops = testkit::vectors_of(
      testkit::apply(
          [](TcpOp::Kind kind, std::uint32_t a, std::uint32_t b) {
            return TcpOp{kind, a, b};
          },
          testkit::weighted<TcpOp::Kind>({{2, TcpOp::kListen},
                                          {1, TcpOp::kUnlisten},
                                          {4, TcpOp::kConnect},
                                          {4, TcpOp::kSend},
                                          {1, TcpOp::kClose},
                                          {1, TcpOp::kReset},
                                          {1, TcpOp::kAbortAll},
                                          {5, TcpOp::kRun}}),
          testkit::ints<std::uint32_t>(0, 1000),
          testkit::ints<std::uint32_t>(0, 1000)),
      0, 64);
  testkit::CheckConfig cfg;
  cfg.name = "TCP connections settle at loss 0";
  const auto r = testkit::check(ops, connections_settle, cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

namespace {

/// One target of a probe-versus-connect case. `kind` says what answers the
/// SYN; `a` picks the host and the gap since the previous target's send,
/// `timeout_us` the timeout and `c` whether the prober closes a connection
/// it gets and which port a meddler is sent to.
struct ProbeTarget {
  enum Kind : std::uint8_t { kListening, kClosed, kDark, kMeddler };
  Kind kind = kListening;
  std::uint32_t a = 0;
  std::uint32_t timeout_us = 0;
  std::uint32_t c = 0;
  bool operator==(const ProbeTarget&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ProbeTarget& t) {
  static const char* const kNames[] = {"listening", "closed", "dark", "meddler"};
  return os << kNames[t.kind] << '(' << t.a << ',' << t.timeout_us << ',' << t.c << ')';
}

struct ProbeCase {
  std::uint32_t loss_permille = 0;
  std::uint32_t fault_seed = 0;
  std::vector<ProbeTarget> targets;
  bool operator==(const ProbeCase&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ProbeCase& c) {
  os << "loss=" << c.loss_permille << "/1000 fault_seed=" << c.fault_seed << " targets=[";
  for (std::size_t i = 0; i < c.targets.size(); ++i) {
    os << (i == 0 ? "" : ", ") << c.targets[i];
  }
  return os << ']';
}

/// What one world saw: each target's outcomes (outcome, time, and the
/// connection's opened_at or -1), every packet the network accepted, the
/// network's next random draw and each host's connection count.
struct SweepTrace {
  using Outcome = std::tuple<ConnectOutcome, std::int64_t, std::int64_t>;
  using Wire = std::tuple<std::int64_t, std::uint32_t, std::uint32_t, net::Port, net::Port,
                          std::uint8_t, std::uint32_t, std::uint32_t, std::size_t>;
  std::vector<std::vector<Outcome>> outcomes;
  std::vector<Wire> packets;
  std::uint32_t next_draw = 0;
  std::vector<std::size_t> open_connections;
  bool operator==(const SweepTrace&) const = default;
};

/// Sends one SYN per target from one prober, by tcp_probe or tcp_connect,
/// at the same sim times either way, and drains the network.
SweepTrace sweep(const ProbeCase& c, bool probe) {
  EventScheduler sched;
  NetworkConfig cfg;
  cfg.loss = c.loss_permille / 1000.0;
  Network net(sched, cfg);
  SweepTrace trace;
  net.set_global_tap([&trace](const net::Packet& p) {
    trace.packets.emplace_back(p.time.us, p.src.value, p.dst.value, p.src_port, p.dst_port,
                               p.flags.to_byte(), p.seq, p.ack_num, p.payload.size());
  });
  // Duplicates, reorders and latency spikes up to the hostile chaos
  // profile's largest (1.5 s), drawn from the hook's own stream.
  util::Rng fault_rng(c.fault_seed);
  net.set_fault_hook([&fault_rng](net::Packet&) {
    FaultVerdict v;
    const std::uint64_t roll = fault_rng.uniform(0, 99);
    if (roll < 5) {
      v.duplicates = 1 + static_cast<int>(roll % 2);
    } else if (roll < 10) {
      v.reorder = true;
    } else if (roll < 15) {
      v.extra_latency =
          Duration::micros(static_cast<std::int64_t>(fault_rng.uniform(0, 1'500'000)));
    }
    return v;
  });

  Host prober(net, net::Ipv4{10, 0, 0, 1});
  Host h1(net, net::Ipv4{10, 0, 1, 1});
  Host h2(net, net::Ipv4{10, 0, 1, 2});
  Host h3(net, net::Ipv4{10, 0, 1, 3});
  Host meddler(net, net::Ipv4{10, 0, 2, 1});
  const std::array<Host*, 3> live{&h1, &h2, &h3};
  for (Host* h : {&h1, &h2, &h3, &meddler}) {
    h->tcp_listen(80, [](TcpConn& conn) { conn.send(std::string_view("banner")); });
  }
  // The meddler meets each SYN with a stray segment before its own answer:
  // a bare ACK or a data segment.
  meddler.set_tap([&meddler](const net::Packet& p, bool outbound) {
    if (outbound || !p.flags.syn || p.flags.ack) return;
    const bool data = p.src_port % 2 == 1;
    meddler.send_raw(tcp_segment(
        p.destination(), p.source(),
        net::TcpFlags{.syn = false, .ack = true, .fin = false, .rst = false, .psh = data},
        p.seq ^ 0x5a5a5a5aU, p.seq + 1, data ? util::to_bytes("x") : util::Bytes{}));
  });

  trace.outcomes.resize(c.targets.size());
  SimTime at{};
  SimTime last_deadline{};
  for (std::size_t i = 0; i < c.targets.size(); ++i) {
    const ProbeTarget& t = c.targets[i];
    // A third of the timeouts are the scout's 2 s; the rest span 1 ms-5 s.
    const Duration timeout = t.timeout_us % 3 == 0
                                 ? Duration::seconds(2)
                                 : Duration::micros(1000 + t.timeout_us % 4'999'001);
    // Half the targets go out with the previous one. Deadlines may not
    // fall from one probe to the next, so a target whose timeout would end
    // before the previous one's waits until it does not.
    const Duration gap = t.a % 2 == 0 ? Duration{} : Duration::millis(t.a % 300);
    at = std::max(at + gap, last_deadline - timeout);
    last_deadline = at + timeout;
    sched.run_until(at);

    net::Endpoint remote;
    switch (t.kind) {
      case ProbeTarget::kListening:
        remote = {live[t.a % 3]->addr(), 80};
        break;
      case ProbeTarget::kClosed:
        remote = {live[t.a % 3]->addr(), 81};
        break;
      case ProbeTarget::kDark:
        remote = {net::Ipv4{10, 9, 9, static_cast<std::uint8_t>(1 + t.a % 3)}, 80};
        break;
      case ProbeTarget::kMeddler:
        remote = {meddler.addr(), static_cast<net::Port>(t.c % 4 < 2 ? 80 : 81)};
        break;
    }
    ConnectHandler handler = [&trace, &sched, i, close = t.c % 2 == 1](ConnectOutcome o,
                                                                       TcpConn* conn) {
      trace.outcomes[i].emplace_back(o, sched.now().us,
                                     conn != nullptr ? conn->opened_at().us : -1);
      if (conn != nullptr && close) conn->close();
    };
    if (probe) {
      prober.tcp_probe(remote, std::move(handler), timeout);
    } else {
      prober.tcp_connect(remote, std::move(handler), timeout);
    }
  }
  sched.run();
  trace.next_draw = net.rng()();
  for (const Host* h : {&prober, &h1, &h2, &h3, &meddler}) {
    trace.open_connections.push_back(h->open_connections());
  }
  return trace;
}

/// tcp_probe is tcp_connect without the up-front connection: the same
/// outcome at the same time for every target, the same packets on the
/// wire, the same random draws and the same connections left behind.
bool probe_reports_what_connect_reports(const ProbeCase& c) {
  const SweepTrace connected = sweep(c, false);
  const SweepTrace probed = sweep(c, true);
  for (const auto& outcomes : probed.outcomes) {
    if (outcomes.size() != 1) return false;
  }
  return probed == connected;
}

}  // namespace

TEST(TcpProps, ProbeReportsWhatConnectReports) {
  const auto targets = testkit::vectors_of(
      testkit::apply(
          [](ProbeTarget::Kind kind, std::uint32_t a, std::uint32_t timeout_us,
             std::uint32_t c) {
            return ProbeTarget{kind, a, timeout_us, c};
          },
          testkit::weighted<ProbeTarget::Kind>({{3, ProbeTarget::kListening},
                                                {2, ProbeTarget::kClosed},
                                                {3, ProbeTarget::kDark},
                                                {2, ProbeTarget::kMeddler}}),
          testkit::ints<std::uint32_t>(0, 1000),
          testkit::ints<std::uint32_t>(0, 5'000'000),
          testkit::ints<std::uint32_t>(0, 1000)),
      0, 40);
  // One case in five is lossless; the rest lose up to 40% of packets.
  const auto cases = testkit::apply(
      [](std::uint32_t loss, std::uint32_t fault_seed, std::vector<ProbeTarget> t) {
        return ProbeCase{loss < 100 ? 0 : loss - 100, fault_seed, std::move(t)};
      },
      testkit::ints<std::uint32_t>(0, 500), testkit::ints<std::uint32_t>(0, 1'000'000),
      targets);
  testkit::CheckConfig cfg;
  cfg.name = "tcp_probe reports what tcp_connect reports";
  cfg.cases = 500;
  const auto r = testkit::check(cases, probe_reports_what_connect_reports, cfg);
  EXPECT_TRUE(r.ok) << r.summary();
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
