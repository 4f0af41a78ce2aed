// Property-based tests for the packet/pcap/DNS codecs and address parsers:
// round-trip laws for to_wire/from_wire, PcapWriter/read_pcap, dns
// encode/decode and the ipv4/subnet/endpoint string forms; no-crash laws
// over mutated corpus captures and random buffers; explicit error-path
// regressions (empty, 1-byte, lying length fields).
//
// Failures print a seed; rerun with MALNET_CHECK_SEED=<seed> to reproduce.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/server.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::testkit;

namespace {

constexpr int kRoundTripCases = 1000;
constexpr int kNoCrashCases = 10'000;

Gen<net::Ipv4> ipv4s() {
  return ints<std::uint32_t>(0, 0xFFFFFFFF).map([](std::uint32_t v) {
    return net::Ipv4{v};
  });
}

/// A structurally valid Packet of any protocol. Protocol-irrelevant fields
/// stay at their defaults, mirroring what from_wire can reconstruct.
Gen<net::Packet> packets() {
  return apply(
      [](int proto, net::Ipv4 src, net::Ipv4 dst, net::Port sport,
         net::Port dport, std::uint32_t seq, std::uint32_t ack,
         std::uint8_t flag_bits, std::uint8_t icmp_type, std::uint8_t icmp_code,
         std::uint8_t ttl, util::Bytes payload) {
        net::Packet p;
        p.src = src;
        p.dst = dst;
        p.ttl = ttl;
        p.payload = std::move(payload);
        switch (proto) {
          case 0:
            p.proto = net::Protocol::kTcp;
            p.src_port = sport;
            p.dst_port = dport;
            p.seq = seq;
            p.ack_num = ack;
            p.flags = net::TcpFlags::from_byte(flag_bits);
            break;
          case 1:
            p.proto = net::Protocol::kUdp;
            p.src_port = sport;
            p.dst_port = dport;
            break;
          default:
            p.proto = net::Protocol::kIcmp;
            p.icmp = {icmp_type, icmp_code};
            break;
        }
        return p;
      },
      ints<int>(0, 2), ipv4s(), ipv4s(), ints<net::Port>(0, 0xFFFF),
      ints<net::Port>(0, 0xFFFF), ints<std::uint32_t>(0, 0xFFFFFFFF),
      ints<std::uint32_t>(0, 0xFFFFFFFF), ints<std::uint8_t>(0, 0x1F),
      any_byte(), any_byte(), ints<std::uint8_t>(1, 255), byte_strings(0, 256));
}

bool same_packet(const net::Packet& a, const net::Packet& b) {
  return a.src == b.src && a.dst == b.dst && a.proto == b.proto &&
         a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.flags.to_byte() == b.flags.to_byte() && a.seq == b.seq &&
         a.ack_num == b.ack_num && a.icmp.type == b.icmp.type &&
         a.icmp.code == b.icmp.code && a.ttl == b.ttl && a.payload == b.payload;
}

/// DNS names with 1–4 labels of 1–12 chars each: always encodable.
Gen<std::string> dns_names() {
  return vectors_of(ascii_strings(1, 12, "abcdefghijklmnopqrstuvwxyz0123456789-"),
                    1, 4)
      .map([](const std::vector<std::string>& labels) {
        std::string name;
        for (const auto& l : labels) {
          if (!name.empty()) name += '.';
          name += l;
        }
        return name;
      });
}

Gen<dns::Message> dns_messages() {
  const auto questions = apply(
      [](std::string name, std::uint16_t qtype, std::uint16_t qclass) {
        return dns::Question{std::move(name), qtype, qclass};
      },
      dns_names(), ints<std::uint16_t>(0, 0xFFFF), ints<std::uint16_t>(0, 0xFFFF));
  const auto answers = apply(
      [](std::string name, net::Ipv4 addr, std::uint32_t ttl) {
        return dns::Answer{std::move(name), addr, ttl};
      },
      dns_names(), ipv4s(), ints<std::uint32_t>(0, 0xFFFFFFFF));
  return apply(
      [](std::uint16_t id, int response, int rd, int rcode,
         std::vector<dns::Question> qs, std::vector<dns::Answer> as) {
        dns::Message m;
        m.id = id;
        m.is_response = response != 0;
        m.recursion_desired = rd != 0;
        m.rcode = static_cast<dns::Rcode>(rcode);
        m.questions = std::move(qs);
        m.answers = std::move(as);
        return m;
      },
      ints<std::uint16_t>(0, 0xFFFF), ints<int>(0, 1), ints<int>(0, 1),
      ints<int>(0, 3), vectors_of(questions, 0, 3), vectors_of(answers, 0, 3));
}

bool same_question(const dns::Question& a, const dns::Question& b) {
  return a.name == b.name && a.qtype == b.qtype && a.qclass == b.qclass;
}

bool same_answer(const dns::Answer& a, const dns::Answer& b) {
  return a.name == b.name && a.address == b.address && a.ttl == b.ttl;
}

bool same_message(const dns::Message& a, const dns::Message& b) {
  if (a.id != b.id || a.is_response != b.is_response ||
      a.recursion_desired != b.recursion_desired || a.rcode != b.rcode ||
      a.questions.size() != b.questions.size() ||
      a.answers.size() != b.answers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.questions.size(); ++i) {
    if (!same_question(a.questions[i], b.questions[i])) return false;
  }
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    if (!same_answer(a.answers[i], b.answers[i])) return false;
  }
  return true;
}

/// Mutation-fuzz driver shared by the no-crash suites below.
template <typename Prop>
CheckResult fuzz_decoder(const std::string& corpus_prefix, Prop prop,
                         std::string name) {
  const auto corpus = corpus_inputs(corpus_prefix);
  const Mutator mutator;
  CheckConfig cfg;
  cfg.cases = kNoCrashCases;
  cfg.name = std::move(name);
  const auto inputs = apply(
      [&corpus, &mutator](std::uint64_t pick, int which, util::Bytes noise) {
        util::Bytes base = which == 0 ? std::move(noise) : corpus[pick % corpus.size()];
        // Deterministic sub-seed drawn from this case alone (never ambient
        // state); `pick` varies it, so one corpus entry yields many mutants.
        util::Rng mrng(pick ^ util::fnv1a64(util::to_hex(base)), 17);
        return mutator.mutate(base, mrng);
      },
      ints<std::uint64_t>(0, 1'000'000), ints<int>(0, 7), byte_strings(0, 256));
  return check(inputs, prop, cfg);
}

}  // namespace

// --- round-trip laws ---------------------------------------------------------

TEST(RoundTrip, PacketWire) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "packet wire round-trip";
  const auto r = check(packets(),
                       [](const net::Packet& p) {
                         const auto decoded = net::from_wire(net::to_wire(p));
                         return decoded && same_packet(*decoded, p);
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, PcapPreservesPacketsAndTimestamps) {
  CheckConfig cfg;
  cfg.cases = 200;  // each case writes and re-reads a whole capture
  cfg.name = "pcap round-trip";
  const auto gen = pair_of(vectors_of(packets(), 0, 8),
                           ints<std::int64_t>(0, 4'000'000'000'000));
  const auto r = check(
      gen,
      [](const std::pair<std::vector<net::Packet>, std::int64_t>& input) {
        auto [pkts, base_us] = input;
        net::PcapWriter w;
        for (std::size_t i = 0; i < pkts.size(); ++i) {
          // Distinct micro-resolution timestamps per packet.
          pkts[i].time = util::SimTime{base_us + static_cast<std::int64_t>(i) * 1'000'003};
          w.add(pkts[i]);
        }
        const auto back = net::read_pcap(w.bytes());
        if (back.size() != pkts.size()) return false;
        for (std::size_t i = 0; i < pkts.size(); ++i) {
          if (back[i].time != pkts[i].time) return false;
          if (!same_packet(back[i], pkts[i])) return false;
        }
        return true;
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, DnsMessages) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "dns round-trip";
  const auto r = check(dns_messages(),
                       [](const dns::Message& m) {
                         const auto decoded = dns::decode(dns::encode(m));
                         return decoded && same_message(*decoded, m);
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, AddressStringForms) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "address string round-trip";
  const auto gen = apply(
      [](net::Ipv4 ip, int prefix, net::Port port) {
        return std::pair{net::Subnet{ip, prefix}, net::Endpoint{ip, port}};
      },
      ipv4s(), ints<int>(0, 32), ints<net::Port>(0, 0xFFFF));
  const auto r = check(gen,
                       [](const std::pair<net::Subnet, net::Endpoint>& input) {
                         const auto& [subnet, ep] = input;
                         const auto ip = net::parse_ipv4(net::to_string(ep.ip));
                         const auto sn = net::parse_subnet(net::to_string(subnet));
                         const auto e = net::parse_endpoint(net::to_string(ep));
                         return ip && *ip == ep.ip && sn && *sn == subnet && e &&
                                *e == ep;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- no-crash laws -----------------------------------------------------------

TEST(NoCrash, PacketFromWire) {
  const auto r = fuzz_decoder("packet_",
                              [](util::BytesView wire) {
                                (void)net::from_wire(wire);
                                return true;
                              },
                              "packet no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, ReadPcapThrowsOnlyTruncatedInput) {
  // read_pcap's documented error contract is util::TruncatedInput; anything
  // else escaping (bad_alloc from a lying record length, OOB under ASan)
  // fails the property.
  const auto r = fuzz_decoder("mini.pcap",
                              [](util::BytesView data) {
                                try {
                                  (void)net::read_pcap(data);
                                } catch (const util::TruncatedInput&) {
                                }
                                return true;
                              },
                              "pcap no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, DnsDecode) {
  const auto r = fuzz_decoder("dns_",
                              [](util::BytesView wire) {
                                (void)dns::decode(wire);
                                return true;
                              },
                              "dns no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, DnsServerNeverThrowsOnMutatedQueries) {
  // Whatever decodes gets answered (wildcard on, SERVFAIL every other
  // query): a mutated query must never make the reply path throw.
  sim::EventScheduler sched;
  sim::Network net{sched};
  dns::DnsServer server{net, net::Ipv4{9, 9, 9, 9}};
  server.set_wildcard(net::Ipv4{10, 99, 7, 7});
  int queries = 0;
  server.set_query_fault_hook([&queries] {
    return ++queries % 2 == 0 ? dns::QueryFault::kServfail : dns::QueryFault::kNone;
  });
  sim::Host client{net, net::Ipv4{10, 0, 0, 5}};
  const auto r = fuzz_decoder("dns_",
                              [&](util::BytesView wire) {
                                client.udp_send({server.addr(), 53}, wire, 5353);
                                sched.run();
                                return true;
                              },
                              "dns server no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, AddressParsers) {
  CheckConfig cfg;
  cfg.cases = kNoCrashCases;
  cfg.name = "address parser no-crash";
  const auto r = check(raw_strings(0, 48),
                       [](const std::string& s) {
                         (void)net::parse_ipv4(s);
                         (void)net::parse_subnet(s);
                         (void)net::parse_endpoint(s);
                         return true;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- error paths -------------------------------------------------------------

TEST(ErrorPath, PacketEmptyAndTinyBuffers) {
  const std::vector<util::Bytes> minima = {{}, {0x45}, {0x00}, {0xFF}};
  const auto r = check_each(minima,
                            [](util::BytesView wire) {
                              return !net::from_wire(wire).has_value();
                            },
                            "packet empty/1-byte");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(ErrorPath, PacketLyingLengthFields) {
  net::Packet p;
  p.proto = net::Protocol::kUdp;
  p.src = net::Ipv4{10, 0, 0, 1};
  p.dst = net::Ipv4{10, 0, 0, 2};
  p.payload = util::Bytes{0xAA, 0xBB};
  auto wire = net::to_wire(p);

  // IPv4 total_length larger than the buffer.
  auto oversize = wire;
  oversize[2] = 0xFF;
  oversize[3] = 0xFF;
  EXPECT_FALSE(net::from_wire(oversize));

  // UDP length field larger than the remaining segment.
  auto bad_udp = wire;
  bad_udp[24] = 0xFF;  // udp length hi byte (ihl 20 + 4)
  bad_udp[25] = 0xFF;
  EXPECT_FALSE(net::from_wire(bad_udp));

  // IHL pointing past the end of the packet.
  auto bad_ihl = wire;
  bad_ihl[0] = 0x4F;  // IHL 15 words = 60 bytes of header
  EXPECT_FALSE(net::from_wire(bad_ihl));
}

TEST(ErrorPath, TcpDataOffsetOutOfRange) {
  net::Packet p;
  p.proto = net::Protocol::kTcp;
  p.src = net::Ipv4{10, 0, 0, 1};
  p.dst = net::Ipv4{10, 0, 0, 2};
  p.flags.syn = true;
  auto wire = net::to_wire(p);
  // Data offset 15 words (60B) in a 20-byte segment.
  wire[32] = 0xF0;
  EXPECT_FALSE(net::from_wire(wire));
  // Data offset below the TCP minimum of 5 words.
  wire[32] = 0x10;
  EXPECT_FALSE(net::from_wire(wire));
}

TEST(ErrorPath, PcapTruncationsThrowTruncatedInput) {
  const auto pcap = corpus_file("mini.pcap");
  EXPECT_THROW((void)net::read_pcap({}), util::TruncatedInput);
  EXPECT_THROW((void)net::read_pcap(util::Bytes{0xA1}), util::TruncatedInput);
  // Valid global header, then a record header whose incl_len lies.
  auto lying = pcap;
  lying[24 + 8] = 0xFF;  // first record's incl_len (big-endian hi byte)
  EXPECT_THROW((void)net::read_pcap(lying), util::TruncatedInput);
  // A capture cut mid-record.
  const util::Bytes cut(pcap.begin(),
                        pcap.begin() + static_cast<std::ptrdiff_t>(pcap.size() - 3));
  EXPECT_THROW((void)net::read_pcap(cut), util::TruncatedInput);
}

TEST(ErrorPath, DnsMalformedCounts) {
  const std::vector<util::Bytes> minima = {{}, {0x00}};
  const auto r = check_each(minima,
                            [](util::BytesView wire) {
                              return !dns::decode(wire).has_value();
                            },
                            "dns empty/1-byte");
  EXPECT_TRUE(r.ok) << r.summary();

  // QDCOUNT=0xFFFF with no question section must reject, not loop or scan.
  auto header = util::from_hex("0001 0100 ffff 0000 0000 0000");
  EXPECT_FALSE(dns::decode(header));
  // A label length of 70 (> 63) is malformed.
  const auto q = dns::encode(dns::make_query(7, "evil.example"));
  auto bad_label = q;
  bad_label[12] = 70;
  EXPECT_FALSE(dns::decode(bad_label));
  // Compression pointers are rejected by contract.
  auto pointer = q;
  pointer[12] = 0xC0;
  EXPECT_FALSE(dns::decode(pointer));
}
