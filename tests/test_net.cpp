// net: addresses, packets, wire serialization, checksums, pcap.
#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "testkit/scratch.hpp"

using namespace malnet;
using namespace malnet::net;

TEST(Ipv4, ParseAndFormat) {
  const auto ip = parse_ipv4("192.168.1.200");
  ASSERT_TRUE(ip);
  EXPECT_EQ(to_string(*ip), "192.168.1.200");
  EXPECT_EQ(ip->octet(0), 192);
  EXPECT_EQ(ip->octet(3), 200);
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("1.2.3.256"));
  EXPECT_FALSE(parse_ipv4("a.b.c.d"));
  EXPECT_FALSE(parse_ipv4(""));
}

TEST(Subnet, ContainsAndHost) {
  const auto s = parse_subnet("10.20.0.0/16");
  ASSERT_TRUE(s);
  EXPECT_TRUE(s->contains(Ipv4{10, 20, 255, 1}));
  EXPECT_FALSE(s->contains(Ipv4{10, 21, 0, 1}));
  EXPECT_EQ(s->size(), 65536u);
  EXPECT_EQ(to_string(s->host(258)), "10.20.1.2");
}

TEST(Subnet, Slash32AndSlash0) {
  const Subnet host{Ipv4{1, 2, 3, 4}, 32};
  EXPECT_TRUE(host.contains(Ipv4{1, 2, 3, 4}));
  EXPECT_FALSE(host.contains(Ipv4{1, 2, 3, 5}));
  const Subnet all{Ipv4{0, 0, 0, 0}, 0};
  EXPECT_TRUE(all.contains(Ipv4{255, 255, 255, 255}));
}

TEST(Endpoint, ParseAndOrder) {
  const auto e = parse_endpoint("1.2.3.4:8080");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->port, 8080);
  EXPECT_FALSE(parse_endpoint("1.2.3.4"));
  EXPECT_FALSE(parse_endpoint("1.2.3.4:99999"));
  EXPECT_LT((Endpoint{Ipv4{1, 0, 0, 1}, 5}), (Endpoint{Ipv4{1, 0, 0, 2}, 1}));
}

namespace {
Packet make_tcp() {
  Packet p;
  p.src = Ipv4{10, 0, 0, 1};
  p.dst = Ipv4{10, 0, 0, 2};
  p.proto = Protocol::kTcp;
  p.src_port = 49152;
  p.dst_port = 23;
  p.flags.syn = true;
  p.seq = 0xCAFEBABE;
  p.payload = util::to_bytes("data");
  return p;
}
}  // namespace

TEST(Wire, TcpRoundTrip) {
  const Packet p = make_tcp();
  const auto wire = to_wire(p);
  const auto q = from_wire(wire);
  ASSERT_TRUE(q);
  EXPECT_EQ(q->src, p.src);
  EXPECT_EQ(q->dst, p.dst);
  EXPECT_EQ(q->proto, Protocol::kTcp);
  EXPECT_EQ(q->src_port, p.src_port);
  EXPECT_EQ(q->dst_port, p.dst_port);
  EXPECT_TRUE(q->flags.syn);
  EXPECT_FALSE(q->flags.ack);
  EXPECT_EQ(q->seq, p.seq);
  EXPECT_EQ(q->payload, p.payload);
}

TEST(Wire, UdpRoundTrip) {
  Packet p;
  p.src = Ipv4{1, 1, 1, 1};
  p.dst = Ipv4{8, 8, 8, 8};
  p.proto = Protocol::kUdp;
  p.src_port = 5353;
  p.dst_port = 53;
  p.payload = util::from_hex("00ff10");
  const auto q = from_wire(to_wire(p));
  ASSERT_TRUE(q);
  EXPECT_EQ(q->proto, Protocol::kUdp);
  EXPECT_EQ(q->payload, p.payload);
}

TEST(Wire, IcmpRoundTrip) {
  Packet p;
  p.src = Ipv4{1, 1, 1, 1};
  p.dst = Ipv4{2, 2, 2, 2};
  p.proto = Protocol::kIcmp;
  p.icmp = {3, 3};  // BLACKNURSE shape
  p.payload = util::Bytes(28, 0);
  const auto q = from_wire(to_wire(p));
  ASSERT_TRUE(q);
  EXPECT_EQ(q->icmp.type, 3);
  EXPECT_EQ(q->icmp.code, 3);
  EXPECT_EQ(q->payload.size(), 28u);
}

TEST(Wire, Ipv4HeaderChecksumIsValid) {
  const auto wire = to_wire(make_tcp());
  // Checksumming a header including its checksum field must yield 0.
  EXPECT_EQ(inet_checksum(util::BytesView{wire.data(), 20}), 0);
}

TEST(Wire, RejectsTruncatedAndJunk) {
  EXPECT_FALSE(from_wire(util::Bytes{}));
  EXPECT_FALSE(from_wire(util::from_hex("45")));
  auto wire = to_wire(make_tcp());
  wire[0] = 0x65;  // IPv6-ish version nibble
  EXPECT_FALSE(from_wire(wire));
}

TEST(Wire, RejectsUnsupportedProtocol) {
  auto wire = to_wire(make_tcp());
  wire[9] = 47;  // GRE
  EXPECT_FALSE(from_wire(wire));
}

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 32; ++b) {
    const auto f = TcpFlags::from_byte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
  TcpFlags f;
  f.syn = f.ack = true;
  EXPECT_EQ(f.to_string(), "SA");
}

TEST(Checksum, KnownVector) {
  // RFC 1071 example bytes.
  const auto data = util::from_hex("0001 f203 f4f5 f6f7");
  EXPECT_EQ(inet_checksum(data), 0xFFFF - ((0x0001 + 0xf203 + 0xf4f5 + 0xf6f7) % 0xFFFF));
}

TEST(Pcap, RoundTripPreservesPacketsAndTimes) {
  PcapWriter w;
  Packet p = make_tcp();
  p.time = util::SimTime{3'000'123};
  w.add(p);
  Packet u;
  u.src = Ipv4{9, 9, 9, 9};
  u.dst = Ipv4{7, 7, 7, 7};
  u.proto = Protocol::kUdp;
  u.dst_port = 53;
  u.time = util::SimTime{5'500'000};
  w.add(u);
  EXPECT_EQ(w.packet_count(), 2u);

  const auto packets = read_pcap(w.bytes());
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].time.us, 3'000'123);
  EXPECT_EQ(packets[0].dst_port, 23);
  EXPECT_EQ(packets[1].time.us, 5'500'000);
  EXPECT_EQ(packets[1].proto, Protocol::kUdp);
}

TEST(Pcap, FileSaveAndLoad) {
  PcapWriter w;
  w.add(make_tcp());
  const testkit::ScratchDir dir("pcap");
  const std::string path = dir.file("malnet_test.pcap");
  w.save(path);
  const auto packets = load_pcap(path);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].dst_port, 23);
}

TEST(Pcap, RejectsBadMagic) {
  auto bytes = util::from_hex("deadbeef");
  EXPECT_THROW((void)read_pcap(bytes), util::TruncatedInput);
}
