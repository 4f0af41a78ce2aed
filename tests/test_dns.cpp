#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"

using namespace malnet;
using namespace malnet::dns;

TEST(DnsMessage, QueryRoundTrip) {
  const Message q = make_query(0x1234, "cnc.evil.example");
  const auto decoded = decode(encode(q));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->id, 0x1234);
  EXPECT_FALSE(decoded->is_response);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, "cnc.evil.example");
}

TEST(DnsMessage, ResponseRoundTrip) {
  const Message q = make_query(7, "a.b.c");
  const Message r = make_response(q, net::Ipv4{1, 2, 3, 4});
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->is_response);
  EXPECT_EQ(decoded->rcode, Rcode::kNoError);
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(decoded->answers[0].address, (net::Ipv4{1, 2, 3, 4}));
  EXPECT_EQ(decoded->answers[0].name, "a.b.c");
}

TEST(DnsMessage, NxDomain) {
  const Message q = make_query(7, "no.such.name");
  const Message r = make_response(q, std::nullopt);
  const auto decoded = decode(encode(r));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->rcode, Rcode::kNxDomain);
  EXPECT_TRUE(decoded->answers.empty());
}

TEST(DnsMessage, RejectsBadNames) {
  EXPECT_THROW((void)encode(make_query(1, "")), std::invalid_argument);
  EXPECT_THROW((void)encode(make_query(1, "a..b")), std::invalid_argument);
  EXPECT_THROW((void)encode(make_query(1, std::string(64, 'x') + ".com")),
               std::invalid_argument);
  EXPECT_THROW((void)encode(make_query(1, std::string(300, 'x'))),
               std::invalid_argument);
}

TEST(DnsMessage, DecodeRejectsJunk) {
  EXPECT_FALSE(decode(util::Bytes{}));
  EXPECT_FALSE(decode(util::from_hex("0001")));
  // Compression pointers are unsupported by design.
  Message q = make_query(1, "x.y");
  auto wire = encode(q);
  wire[12] = 0xC0;
  EXPECT_FALSE(decode(wire));
}

namespace {
struct DnsWorld {
  sim::EventScheduler sched;
  sim::Network net{sched};
  DnsServer server{net, net::Ipv4{9, 9, 9, 9}};
  sim::Host client{net, net::Ipv4{10, 0, 0, 5}};
};
}  // namespace

TEST(DnsServer, AnswersZoneRecords) {
  DnsWorld w;
  w.server.add_record("C2.Example.COM", net::Ipv4{5, 6, 7, 8});
  std::optional<net::Ipv4> got;
  resolve(w.client, {w.server.addr(), 53}, "c2.example.com",
          [&](std::optional<net::Ipv4> ip) { got = ip; });
  w.sched.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (net::Ipv4{5, 6, 7, 8}));
  EXPECT_EQ(w.server.queries_served(), 1u);
}

TEST(DnsServer, NxDomainForUnknownNames) {
  DnsWorld w;
  bool called = false;
  std::optional<net::Ipv4> got = net::Ipv4{1, 1, 1, 1};
  resolve(w.client, {w.server.addr(), 53}, "unknown.example",
          [&](std::optional<net::Ipv4> ip) {
            called = true;
            got = ip;
          });
  w.sched.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(got);
}

TEST(DnsServer, WildcardMode) {
  DnsWorld w;
  w.server.set_wildcard(net::Ipv4{10, 99, 7, 7});
  std::optional<net::Ipv4> got;
  resolve(w.client, {w.server.addr(), 53}, "anything.at.all",
          [&](std::optional<net::Ipv4> ip) { got = ip; });
  w.sched.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (net::Ipv4{10, 99, 7, 7}));
}

TEST(DnsServer, DropsQueriesWhoseNameCannotBeEchoed) {
  // A bit-flipped query: the 'o' of "echo" became '.', so the decoded name
  // holds an empty label that encode() cannot write back into a reply.
  DnsWorld w;
  w.server.set_wildcard(net::Ipv4{10, 99, 7, 7});
  auto wire = encode(make_query(7, "api.ip-echo.net"));
  wire[23] = '.';  // 12-byte header, 3 "api", 7 "ip-ech" then 'o'
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->questions[0].name, "api.ip-ech..net");

  int replies = 0;
  w.client.udp_bind(5353, [&](const net::Packet&) { ++replies; });
  for (const auto fault : {QueryFault::kNone, QueryFault::kServfail}) {
    w.server.set_query_fault_hook([fault] { return fault; });
    w.client.udp_send({w.server.addr(), 53}, wire, 5353);
    EXPECT_NO_THROW(w.sched.run());
  }
  EXPECT_EQ(w.server.queries_served(), 2u);
  EXPECT_EQ(replies, 0);

  // A well-formed query is still answered.
  w.server.set_query_fault_hook(nullptr);
  w.client.udp_send({w.server.addr(), 53}, encode(make_query(8, "api.ip-echo.net")),
                    5353);
  w.sched.run();
  EXPECT_EQ(replies, 1);
}

TEST(Resolver, TimesOutAgainstDeadServer) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  sim::Host client{net, net::Ipv4{10, 0, 0, 5}};
  bool called = false;
  std::optional<net::Ipv4> got = net::Ipv4{1, 1, 1, 1};
  ResolveOptions opts;
  opts.timeout = sim::Duration::seconds(2);
  resolve(client, {net::Ipv4{8, 8, 8, 8}, 53}, "x.y",
          [&](std::optional<net::Ipv4> ip) {
            called = true;
            got = ip;
          },
          opts);
  sched.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(got);
}

TEST(Resolver, CallbackFiresExactlyOnce) {
  DnsWorld w;
  w.server.set_wildcard(net::Ipv4{1, 1, 1, 1});
  int calls = 0;
  resolve(w.client, {w.server.addr(), 53}, "q.r",
          [&](std::optional<net::Ipv4>) { ++calls; });
  w.sched.run();  // answer arrives, then the timeout fires as a no-op
  EXPECT_EQ(calls, 1);
}
