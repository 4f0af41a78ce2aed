#include <gtest/gtest.h>

#include "inetsim/http.hpp"
#include "dns/resolver.hpp"
#include "inetsim/services.hpp"

using namespace malnet;
using namespace malnet::inetsim;

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/GponForm/diag_Form";
  req.headers["host"] = "victim";
  req.body = "XWebPageName=diag";
  const auto parsed = parse_request(req.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/GponForm/diag_Form");
  EXPECT_EQ(parsed->headers.at("host"), "victim");
  EXPECT_EQ(parsed->body, "XWebPageName=diag");
}

TEST(Http, ResponseRoundTrip) {
  const auto resp = ok_response("body!", "text/x-sh");
  const auto parsed = parse_response(resp.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, "body!");
  EXPECT_EQ(parsed->headers.at("content-type"), "text/x-sh");
}

TEST(Http, ParseRejectsIncompleteBody) {
  EXPECT_FALSE(parse_request("GET / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"));
  EXPECT_FALSE(parse_request("GET / HTTP/1.1\r\n"));      // no blank line
  EXPECT_FALSE(parse_request("GARBAGE\r\n\r\n"));          // bad request line
  EXPECT_FALSE(parse_response("NOTHTTP 200 OK\r\n\r\n"));  // bad status line
  EXPECT_FALSE(parse_response("HTTP/1.1 999999 X\r\n\r\n"));
}

TEST(Http, HeaderKeysAreCaseInsensitive) {
  const auto parsed =
      parse_request("GET / HTTP/1.1\r\nCoNtEnT-LeNgTh: 2\r\n\r\nab");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->body, "ab");
}

TEST(FakeServices, HttpAnswers200) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  FakeHttp http(net, net::Ipv4{10, 0, 0, 1});
  sim::Host client(net, net::Ipv4{10, 0, 0, 2});
  int status = 0;
  client.tcp_connect({http.addr(), 80}, [&](sim::ConnectOutcome o, sim::TcpConn* c) {
    ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
    c->on_data([&](sim::TcpConn&, util::BytesView d) {
      const auto resp = parse_response(util::to_string(d));
      if (resp) status = resp->status;
    });
    HttpRequest req;
    c->send(req.serialize());
  });
  sched.run();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(http.requests_served(), 1u);
}

TEST(FakeServices, HttpResetsOnJunk) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  FakeHttp http(net, net::Ipv4{10, 0, 0, 1});
  sim::Host client(net, net::Ipv4{10, 0, 0, 2});
  bool closed = false;
  client.tcp_connect({http.addr(), 80}, [&](sim::ConnectOutcome, sim::TcpConn* c) {
    ASSERT_NE(c, nullptr);
    c->on_close([&](sim::TcpConn&) { closed = true; });
    c->send(std::string_view("not http at all"));
  });
  sched.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(http.requests_served(), 0u);
}

TEST(FakeServices, FakeDnsResolvesEverything) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  FakeDns fake(net, net::Ipv4{10, 0, 0, 1}, net::Ipv4{10, 99, 7, 7});
  sim::Host client(net, net::Ipv4{10, 0, 0, 2});
  std::optional<net::Ipv4> got;
  dns::resolve(client, {fake.addr(), 53}, "totally.random.name",
               [&](std::optional<net::Ipv4> ip) { got = ip; });
  sched.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (net::Ipv4{10, 99, 7, 7}));
}

TEST(BannerHost, GreetsOnAccept) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  BannerHost banner(net, net::Ipv4{10, 0, 0, 1}, 22, "SSH-2.0-OpenSSH_7.4\r\n");
  sim::Host client(net, net::Ipv4{10, 0, 0, 2});
  std::string got;
  client.tcp_connect({banner.addr(), 22}, [&](sim::ConnectOutcome o, sim::TcpConn* c) {
    ASSERT_EQ(o, sim::ConnectOutcome::kConnected);
    c->on_data([&](sim::TcpConn&, util::BytesView d) { got = util::to_string(d); });
  });
  sched.run();
  EXPECT_EQ(got, "SSH-2.0-OpenSSH_7.4\r\n");
}

TEST(BannerFilter, RecognisesWellKnownServices) {
  EXPECT_TRUE(is_well_known_banner("SSH-2.0-OpenSSH_7.4"));
  EXPECT_TRUE(is_well_known_banner("HTTP/1.1 200 OK"));
  EXPECT_TRUE(is_well_known_banner("220 ftp.example ready"));
  EXPECT_TRUE(is_well_known_banner("nginx error page"));
  EXPECT_FALSE(is_well_known_banner(""));
  EXPECT_FALSE(is_well_known_banner("\x00\x00"));       // Mirai keepalive
  EXPECT_FALSE(is_well_known_banner("PING\n"));          // Gafgyt C2 greeting
  EXPECT_FALSE(is_well_known_banner(".ping\n"));         // Daddyl33t
}
