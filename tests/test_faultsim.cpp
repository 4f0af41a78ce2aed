// Fault-injection layer (DESIGN.md §11): injector determinism, the TCP
// duplicate/reorder regression the duplicator fault exposed, resolver
// hardening under injected DNS failures, C2 crash/restart, and the chaos
// metamorphic properties (jobs-invariance under every profile, shards=1
// equivalence, loss monotonicity).
#include <gtest/gtest.h>

#include <memory>

#include "botnet/c2server.hpp"
#include "core/parallel_study.hpp"
#include "core/pipeline.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "fault/fault.hpp"
#include "report/dataset_io.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::faultsim;

namespace {

struct TestWorld {
  sim::EventScheduler sched;
  sim::Network net{sched};
};

net::Packet make_udp(std::uint32_t n) {
  net::Packet p;
  p.src = net::Ipv4{10, 0, 0, 1};
  p.dst = net::Ipv4{10, 0, 0, 2};
  p.proto = net::Protocol::kUdp;
  p.src_port = 1000;
  p.dst_port = 2000;
  p.payload = util::Bytes{static_cast<std::uint8_t>(n),
                          static_cast<std::uint8_t>(n >> 8), 3, 4, 5, 6};
  return p;
}

core::PipelineConfig small_config(std::uint64_t seed, Profile chaos,
                                  int samples = 100) {
  core::PipelineConfig cfg;
  cfg.seed = seed;
  cfg.world.total_samples = samples;
  cfg.run_probe_campaign = false;
  cfg.chaos = chaos;
  cfg.chaos_seed = 7;
  return cfg;
}

util::Bytes run_sharded(const core::PipelineConfig& base, int shards, int jobs) {
  core::ParallelStudyConfig cfg;
  cfg.base = base;
  cfg.shards = shards;
  cfg.jobs = jobs;
  return report::serialize_datasets(core::ParallelStudy(cfg).run());
}

}  // namespace

// --- profiles ----------------------------------------------------------------

TEST(FaultProfiles, RoundTripAndShape) {
  for (const Profile p : {Profile::kNone, Profile::kFlaky, Profile::kHostile}) {
    EXPECT_EQ(profile_from_string(to_string(p)), p);
  }
  EXPECT_FALSE(profile_from_string("catastrophic"));
  EXPECT_FALSE(make_fault_config(Profile::kNone).enabled());
  EXPECT_TRUE(make_fault_config(Profile::kFlaky).enabled());
  EXPECT_TRUE(make_fault_config(Profile::kHostile).enabled());
}

// --- injector determinism ----------------------------------------------------

TEST(FaultInjector, VerdictStreamIsReproducible) {
  const FaultConfig cfg = make_fault_config(Profile::kHostile);
  FaultInjector a(cfg, 22, 7);
  FaultInjector b(cfg, 22, 7);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    net::Packet pa = make_udp(i);
    net::Packet pb = make_udp(i);
    const sim::SimTime now{static_cast<std::int64_t>(i) * 1000};
    const auto va = a.on_packet(pa, now);
    const auto vb = b.on_packet(pb, now);
    ASSERT_EQ(va.drop, vb.drop);
    ASSERT_EQ(va.duplicates, vb.duplicates);
    ASSERT_EQ(va.reorder, vb.reorder);
    ASSERT_EQ(va.extra_latency.us, vb.extra_latency.us);
    ASSERT_EQ(pa.payload, pb.payload);  // identical truncation/corruption
    ASSERT_EQ(a.on_dns_query(), b.on_dns_query());
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
  EXPECT_GT(a.stats().total(), 0u);
}

TEST(FaultInjector, ChaosSeedVariesTheSchedule) {
  const FaultConfig cfg = make_fault_config(Profile::kHostile);
  FaultInjector a(cfg, 22, 7);
  FaultInjector b(cfg, 22, 8);
  bool diverged = false;
  for (std::uint32_t i = 0; i < 500 && !diverged; ++i) {
    net::Packet pa = make_udp(i);
    net::Packet pb = make_udp(i);
    const sim::SimTime now{static_cast<std::int64_t>(i) * 1000};
    const auto va = a.on_packet(pa, now);
    const auto vb = b.on_packet(pb, now);
    diverged = va.drop != vb.drop || va.duplicates != vb.duplicates ||
               pa.payload != pb.payload;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, C2CrashDrawIsCallOrderIndependent) {
  const FaultConfig cfg = make_fault_config(Profile::kHostile);
  FaultInjector a(cfg, 22, 7);
  FaultInjector b(cfg, 22, 7);
  // Same (server, day) set queried in opposite orders must agree draw-wise.
  for (std::uint64_t key = 0; key < 50; ++key) {
    const auto fwd = a.maybe_crash_c2(key, 3);
    const auto rev = b.maybe_crash_c2(49 - key, 3);
    const auto chk = b.maybe_crash_c2(key, 3);
    (void)rev;
    ASSERT_EQ(fwd.has_value(), chk.has_value());
    if (fwd) {
      ASSERT_EQ(fwd->us, chk->us);
    }
  }
}

TEST(FaultInjector, TruncationIsUdpOnly) {
  FaultConfig cfg;
  cfg.truncate_prob = 1.0;
  FaultInjector inj(cfg, 1, 1);
  net::Packet tcp = make_udp(0);
  tcp.proto = net::Protocol::kTcp;
  const auto before = tcp.payload;
  (void)inj.on_packet(tcp, sim::SimTime{});
  EXPECT_EQ(tcp.payload, before);  // TCP has no retransmit; never truncated
  net::Packet udp = make_udp(0);
  (void)inj.on_packet(udp, sim::SimTime{});
  EXPECT_LT(udp.payload.size(), before.size());
}

// --- TCP hardening (the duplicate/reorder bugfix) ----------------------------

TEST(TcpChaos, DuplicatedSegmentIsCountedOnce) {
  // Regression: TcpConn::handle used to trust p.seq unconditionally, so a
  // duplicated data segment re-invoked on_data and double-counted bytes_rx.
  TestWorld w;
  sim::Host server(w.net, net::Ipv4{10, 0, 0, 1});
  sim::Host client(w.net, net::Ipv4{10, 0, 0, 2});
  w.net.set_fault_hook([](net::Packet& p) {
    sim::FaultVerdict v;
    if (p.proto == net::Protocol::kTcp && !p.payload.empty()) v.duplicates = 1;
    return v;
  });

  std::string server_got;
  int data_events = 0;
  sim::TcpConn* server_conn = nullptr;
  server.tcp_listen(80, [&](sim::TcpConn& conn) {
    server_conn = &conn;
    conn.on_data([&](sim::TcpConn&, util::BytesView d) {
      ++data_events;
      server_got += util::to_string(d);
    });
  });
  client.tcp_connect({server.addr(), 80},
                     [&](sim::ConnectOutcome o, sim::TcpConn* c) {
                       ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
                       c->send(std::string_view("ping"));
                     });
  w.sched.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(data_events, 1);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->bytes_received(), 4u);
}

TEST(TcpChaos, ReorderedSegmentsDeliverInOrder) {
  // The overtaken segment parks in the one-deep out-of-order buffer and is
  // replayed once the gap closes.
  TestWorld w;
  sim::Host server(w.net, net::Ipv4{10, 0, 0, 1});
  sim::Host client(w.net, net::Ipv4{10, 0, 0, 2});
  int client_data_seen = 0;
  w.net.set_fault_hook([&](net::Packet& p) {
    sim::FaultVerdict v;
    if (p.proto == net::Protocol::kTcp && !p.payload.empty() &&
        p.src == net::Ipv4{10, 0, 0, 2}) {
      v.reorder = true;  // exempt from the pair-FIFO clamp
      if (++client_data_seen == 1) v.extra_latency = sim::Duration::millis(5);
    }
    return v;
  });

  std::string server_got;
  server.tcp_listen(80, [&](sim::TcpConn& conn) {
    conn.on_data([&](sim::TcpConn&, util::BytesView d) {
      server_got += util::to_string(d);
    });
  });
  client.tcp_connect({server.addr(), 80},
                     [&](sim::ConnectOutcome o, sim::TcpConn* c) {
                       ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
                       c->send(std::string_view("ab"));
                       c->send(std::string_view("cd"));
                     });
  w.sched.run();
  EXPECT_EQ(server_got, "abcd");
}

TEST(TcpChaos, HandshakeMonotoneUnderLoss) {
  // More injected loss can never complete *more* handshakes (the packet
  // fault analogue of the pipeline's loss-monotonicity law).
  auto completed_at = [](double p) {
    TestWorld w;
    sim::Host server(w.net, net::Ipv4{10, 0, 0, 1});
    sim::Host client(w.net, net::Ipv4{10, 0, 0, 2});
    FaultConfig cfg;
    cfg.burst_start_prob = p;
    cfg.burst_min_len = 1;
    cfg.burst_max_len = 1;
    FaultInjector inj(cfg, 5, 5);
    w.net.set_fault_hook([&](net::Packet& pk) {
      return inj.on_packet(pk, w.net.now());
    });
    server.tcp_listen(80, [](sim::TcpConn&) {});
    int ok = 0;
    for (int i = 0; i < 60; ++i) {
      w.sched.after(sim::Duration::seconds(i * 10), [&]() {
        client.tcp_connect({server.addr(), 80},
                           [&ok](sim::ConnectOutcome o, sim::TcpConn* c) {
                             if (o == sim::ConnectOutcome::kConnected) {
                               ++ok;
                               c->close();
                             }
                           },
                           sim::Duration::seconds(5));
      });
    }
    w.sched.run();
    return ok;
  };
  int prev = -1;
  // Descending loss grid: completions must be non-decreasing left to right.
  for (const double p : {0.5, 0.2, 0.05, 0.0}) {
    const int ok = completed_at(p);
    EXPECT_GE(ok, prev) << "loss " << p;
    prev = ok;
  }
  EXPECT_EQ(prev, 60);  // no faults => every handshake completes
}

// --- resolver hardening ------------------------------------------------------

namespace {
struct DnsWorld {
  sim::EventScheduler sched;
  sim::Network net{sched};
  dns::DnsServer server{net, net::Ipv4{9, 9, 9, 9}};
  sim::Host client{net, net::Ipv4{10, 0, 0, 5}};
};
}  // namespace

TEST(ResolverChaos, RetriesThroughDroppedQueries) {
  DnsWorld w;
  w.server.add_record("c2.example", net::Ipv4{5, 6, 7, 8});
  int drops = 0;
  w.server.set_query_fault_hook([&]() {
    return drops++ < 2 ? dns::QueryFault::kDrop : dns::QueryFault::kNone;
  });
  dns::ResolveOptions opts;
  opts.timeout = sim::Duration::seconds(1);
  opts.max_retries = 2;
  int retries = 0;
  opts.on_retry = [&]() { ++retries; };
  std::optional<net::Ipv4> got;
  dns::resolve(w.client, {w.server.addr(), 53}, "c2.example",
               [&](std::optional<net::Ipv4> ip) { got = ip; }, opts);
  w.sched.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (net::Ipv4{5, 6, 7, 8}));
  EXPECT_EQ(retries, 2);
}

TEST(ResolverChaos, ExhaustedRetriesFailOnce) {
  DnsWorld w;
  w.server.add_record("c2.example", net::Ipv4{5, 6, 7, 8});
  w.server.set_query_fault_hook([]() { return dns::QueryFault::kDrop; });
  dns::ResolveOptions opts;
  opts.timeout = sim::Duration::seconds(1);
  opts.max_retries = 2;
  int calls = 0;
  std::optional<net::Ipv4> got = net::Ipv4{1, 1, 1, 1};
  dns::resolve(w.client, {w.server.addr(), 53}, "c2.example",
               [&](std::optional<net::Ipv4> ip) {
                 ++calls;
                 got = ip;
               },
               opts);
  w.sched.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(got);
}

TEST(ResolverChaos, ServfailAnswersWithoutAddress) {
  DnsWorld w;
  w.server.add_record("c2.example", net::Ipv4{5, 6, 7, 8});
  w.server.set_query_fault_hook([]() { return dns::QueryFault::kServfail; });
  int calls = 0;
  std::optional<net::Ipv4> got = net::Ipv4{1, 1, 1, 1};
  dns::resolve(w.client, {w.server.addr(), 53}, "c2.example",
               [&](std::optional<net::Ipv4> ip) {
                 ++calls;
                 got = ip;
               });
  w.sched.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(got);
}

TEST(ResolverChaos, LateReplyAfterTimeoutIsIgnored) {
  // The other side of the reply/timeout race: delay every reply past the
  // timeout; the callback must fire exactly once, with nullopt, and the
  // straggling reply must land on a dead (unbound) port.
  DnsWorld w;
  w.server.add_record("c2.example", net::Ipv4{5, 6, 7, 8});
  w.net.set_fault_hook([](net::Packet& p) {
    sim::FaultVerdict v;
    if (p.src_port == 53) v.extra_latency = sim::Duration::seconds(3);
    return v;
  });
  dns::ResolveOptions opts;
  opts.timeout = sim::Duration::seconds(1);
  int calls = 0;
  std::optional<net::Ipv4> got = net::Ipv4{1, 1, 1, 1};
  dns::resolve(w.client, {w.server.addr(), 53}, "c2.example",
               [&](std::optional<net::Ipv4> ip) {
                 ++calls;
                 got = ip;
               },
               opts);
  w.sched.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(got);
}

TEST(ResolverChaos, HostDestroyedBeforeTimeoutIsSafe) {
  // Regression: the timeout event used to capture the host by reference
  // with no lifetime guard — a host destroyed mid-flight was a
  // use-after-free when the timer fired.
  sim::EventScheduler sched;
  sim::Network net{sched};
  auto client = std::make_unique<sim::Host>(net, net::Ipv4{10, 0, 0, 5});
  int calls = 0;
  dns::ResolveOptions opts;
  opts.timeout = sim::Duration::seconds(2);
  dns::resolve(*client, {net::Ipv4{8, 8, 8, 8}, 53}, "x.y",
               [&](std::optional<net::Ipv4>) { ++calls; }, opts);
  client.reset();  // guest torn down before its query resolves
  sched.run();     // the orphaned timer must fire as a no-op
  EXPECT_EQ(calls, 0);
}

TEST(ResolverChaos, ReplyAndTimeoutRaceProperty) {
  // Property over injected reply delays: for any delay, the callback fires
  // exactly once, and it carries the address iff the reply beat the timeout.
  testkit::CheckConfig cfg;
  cfg.cases = 30;
  cfg.name = "resolver reply/timeout race";
  const auto r = testkit::check(
      testkit::ints<std::int64_t>(0, 4'000'000),  // 0..4 s in µs
      [](std::int64_t delay_us) {
        DnsWorld w;
        w.server.add_record("c2.example", net::Ipv4{5, 6, 7, 8});
        w.net.set_fault_hook([delay_us](net::Packet& p) {
          sim::FaultVerdict v;
          if (p.src_port == 53) v.extra_latency = sim::Duration::micros(delay_us);
          return v;
        });
        dns::ResolveOptions opts;
        opts.timeout = sim::Duration::seconds(2);
        int calls = 0;
        std::optional<net::Ipv4> got;
        dns::resolve(w.client, {w.server.addr(), 53}, "c2.example",
                     [&](std::optional<net::Ipv4> ip) {
                       ++calls;
                       got = ip;
                     },
                     opts);
        w.sched.run();
        if (calls != 1) return false;
        // Near the boundary either side may win (base latency is seeded);
        // well inside each regime the outcome is forced.
        if (delay_us < 1'500'000 && !got) return false;
        if (delay_us > 2'500'000 && got) return false;
        return true;
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- C2 crash/restart --------------------------------------------------------

TEST(C2Chaos, CrashAbortsSessionsAndRestarts) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kGafgyt;
  cfg.ip = net::Ipv4{60, 1, 2, 3};
  cfg.port = 23;
  cfg.accept_prob = 1.0;  // every re-roll brings the listener up
  botnet::C2Server server(net, cfg, util::Rng(1));
  ASSERT_TRUE(server.currently_listening());

  sim::Host bot(net, net::Ipv4{10, 0, 0, 9});
  bool closed = false;
  bot.tcp_connect({cfg.ip, cfg.port}, [&](sim::ConnectOutcome o, sim::TcpConn* c) {
    ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
    c->on_close([&](sim::TcpConn&) { closed = true; });
  });
  sched.run_until(sim::SimTime{} + sim::Duration::seconds(30));

  server.crash(sim::Duration::minutes(5));
  EXPECT_EQ(server.crashes(), 1u);
  EXPECT_FALSE(server.currently_listening());
  sched.run_until(sched.now() + sim::Duration::minutes(1));
  EXPECT_TRUE(closed);  // the session died with the server
  // Still down mid-outage (duty-cycle re-rolls are crash-gated)...
  EXPECT_FALSE(server.currently_listening());
  // ...and back up after the outage.
  sched.run_until(sched.now() + sim::Duration::minutes(10));
  EXPECT_TRUE(server.currently_listening());
}

// --- degraded-results dataset ------------------------------------------------

TEST(DegradedDataset, V2RoundTripAndV1Compat) {
  core::StudyResults clean;
  const auto v1 = report::serialize_datasets(clean);
  EXPECT_EQ(v1[4], 1u);  // empty degraded section keeps the v1 format

  core::StudyResults chaos;
  chaos.degraded.push_back({"deadbeef", 5, "dns:cnc.evil.example"});
  chaos.degraded.push_back({"cafef00d", 9, "exception:stall"});
  const auto v2 = report::serialize_datasets(chaos);
  EXPECT_EQ(v2[4], 2u);
  const auto parsed = report::parse_datasets(v2);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed->degraded.size(), 2u);
  EXPECT_EQ(parsed->degraded[0].sha256, "deadbeef");
  EXPECT_EQ(parsed->degraded[0].day, 5);
  EXPECT_EQ(parsed->degraded[0].reason, "dns:cnc.evil.example");
  EXPECT_EQ(parsed->degraded[1].reason, "exception:stall");

  ASSERT_TRUE(report::parse_datasets(v1));  // v1 artifacts still load
}

// --- chaos study properties --------------------------------------------------

TEST(ChaosProps, JobsInvarianceUnderEveryProfile) {
  // The whole point of drawing faults from the shard RNG: a chaos study is
  // byte-identical across worker counts, exactly like a clean one.
  for (const Profile profile : {Profile::kFlaky, Profile::kHostile}) {
    const auto base = small_config(22, profile);
    for (const int shards : {1, 3}) {
      const auto serial = run_sharded(base, shards, 1);
      const auto parallel = run_sharded(base, shards, 4);
      EXPECT_EQ(serial, parallel)
          << "profile " << to_string(profile) << " shards " << shards;
    }
  }
}

TEST(ChaosProps, SingleShardMatchesPlainPipeline) {
  const auto base = small_config(22, Profile::kHostile);
  const auto plain = report::serialize_datasets(core::Pipeline(base).run());
  EXPECT_EQ(run_sharded(base, 1, 2), plain);
}

TEST(ChaosProps, ChaosOffMatchesChaosAbsent) {
  // chaos=none must not perturb a clean study: same bytes as a config that
  // never mentions chaos at all.
  core::PipelineConfig with_field = small_config(22, Profile::kNone);
  with_field.chaos_seed = 99;  // ignored when the profile is kNone
  core::PipelineConfig without = small_config(22, Profile::kNone);
  without.chaos_seed = 0;
  EXPECT_EQ(report::serialize_datasets(core::Pipeline(with_field).run()),
            report::serialize_datasets(core::Pipeline(without).run()));
}

TEST(ChaosSmoke, HostileStudyCompletesAndCounts) {
  const auto base = small_config(22, Profile::kHostile, 120);
  core::ParallelStudyConfig cfg;
  cfg.base = base;
  cfg.shards = 2;
  cfg.jobs = 2;
  const auto results = core::ParallelStudy(cfg).run();
  EXPECT_FALSE(results.d_samples.empty());
  // The chaos counters exist and faults actually flowed.
  const auto counter = [&](const std::string& key) -> std::uint64_t {
    const auto it = results.metrics.counters.find(key);
    return it == results.metrics.counters.end() ? 0u : it->second;
  };
  EXPECT_GT(counter("faults_injected"), 0u);
  EXPECT_GT(counter("chaos.dns_servfails") + counter("chaos.dns_drops") +
                counter("chaos.packets_dropped_burst"),
            0u);
  EXPECT_TRUE(results.metrics.counters.count("samples_degraded"));
}
