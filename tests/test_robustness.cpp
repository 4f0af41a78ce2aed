// Decoder robustness: every wire-format parser in the project must reject
// arbitrary byte soup gracefully (nullopt / exception-free), never crash,
// and must survive systematic truncation and single-byte corruption of
// valid messages. This is the fuzz-shaped safety net for code that, in the
// real deployment, parses attacker-controlled bytes.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "inetsim/http.hpp"
#include "mal/binary.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "dialects.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"
#include "util/rng.hpp"

using namespace malnet;

namespace {

/// Feeds `decode` random buffers of assorted sizes; none may crash/throw.
template <typename F>
void random_soup(F&& decode, std::uint64_t seed, int iterations = 400) {
  util::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 300));
    util::Bytes soup(len);
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    decode(soup);
  }
}

/// Every strict prefix of a valid message must be rejected or parsed
/// without crashing.
template <typename F>
void truncation_sweep(const util::Bytes& valid, F&& decode) {
  for (std::size_t n = 0; n < valid.size(); ++n) {
    decode(util::Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(n)));
  }
}

/// Flipping any single byte of a valid message must not crash the decoder.
template <typename F>
void corruption_sweep(const util::Bytes& valid, F&& decode) {
  for (std::size_t i = 0; i < valid.size(); ++i) {
    util::Bytes mutated = valid;
    mutated[i] ^= 0xFF;
    decode(mutated);
  }
}

}  // namespace

TEST(Robustness, MiraiDecoders) {
  for (const auto* p : dialects::all()) {  // the binary (Mirai-grammar) dialects
    if (!dialects::is_binary(*p)) continue;
    const auto decode = [p](const util::Bytes& b) {
      (void)dialects::any_decoder_accepts(*p, b);
    };
    random_soup(decode, 1);
    proto::AttackCommand cmd;
    cmd.type = proto::AttackType::kUdpFlood;
    cmd.target = {net::Ipv4{1, 2, 3, 4}, 80};
    const auto valid = profile::wire::encode_binary_attack(*p, cmd);
    truncation_sweep(valid, decode);
    corruption_sweep(valid, decode);
    truncation_sweep(profile::wire::encode_handshake(*p, "bot-id"), decode);
  }
}

TEST(Robustness, TextProtocolDecoders) {
  util::Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    std::string line;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 120));
    for (std::size_t k = 0; k < len; ++k) {
      line.push_back(static_cast<char>(rng.uniform(1, 255)));
    }
    for (const auto* p : dialects::all()) {
      if (dialects::is_binary(*p)) continue;
      (void)dialects::any_decoder_accepts(*p, util::to_bytes(line));
    }
    (void)proto::irc::parse(line);
  }
}

TEST(Robustness, DnsDecoder) {
  const auto decode = [](const util::Bytes& b) { (void)dns::decode(b); };
  random_soup(decode, 3);
  const auto valid = dns::encode(dns::make_query(7, "cnc.example.com"));
  truncation_sweep(valid, decode);
  corruption_sweep(valid, decode);
  const auto resp = dns::encode(
      dns::make_response(dns::make_query(7, "a.b"), net::Ipv4{1, 2, 3, 4}));
  truncation_sweep(resp, decode);
  corruption_sweep(resp, decode);
}

TEST(Robustness, PacketWireParser) {
  const auto decode = [](const util::Bytes& b) { (void)net::from_wire(b); };
  random_soup(decode, 4);
  net::Packet p;
  p.src = net::Ipv4{1, 1, 1, 1};
  p.dst = net::Ipv4{2, 2, 2, 2};
  p.proto = net::Protocol::kTcp;
  p.src_port = 1;
  p.dst_port = 2;
  p.payload = util::to_bytes("payload");
  const auto valid = net::to_wire(p);
  truncation_sweep(valid, decode);
  corruption_sweep(valid, decode);
}

TEST(Robustness, PcapReader) {
  const auto decode = [](const util::Bytes& b) {
    try {
      (void)net::read_pcap(b);
    } catch (const util::TruncatedInput&) {
      // expected rejection path
    }
  };
  random_soup(decode, 5);
  net::PcapWriter w;
  net::Packet p;
  p.src = net::Ipv4{1, 1, 1, 1};
  p.dst = net::Ipv4{2, 2, 2, 2};
  p.proto = net::Protocol::kUdp;
  w.add(p);
  truncation_sweep(w.bytes(), decode);
  corruption_sweep(w.bytes(), decode);
}

TEST(Robustness, HttpParsers) {
  util::Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    std::string soup;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 200));
    for (std::size_t k = 0; k < len; ++k) {
      soup.push_back(static_cast<char>(rng.uniform(1, 255)));
    }
    (void)inetsim::parse_request(soup);
    (void)inetsim::parse_response(soup);
  }
}

TEST(Robustness, P2pDecoders) {
  const auto decode = [](const util::Bytes& b) {
    (void)proto::p2p::decode_ping(b);
    (void)proto::p2p::looks_like_dht(b);
  };
  random_soup(decode, 7);
  // A query-shaped (ping) and a reply-shaped (pong) seed: looks_like_dht
  // branches on the "d1:ad2:" and "d1:rd2:" prefixes.
  const proto::p2p::DhtPing ping{std::string(20, 'N'), "ab"};
  for (const auto& valid :
       {proto::p2p::encode_ping(ping), proto::p2p::encode_pong(ping)}) {
    truncation_sweep(valid, decode);
    corruption_sweep(valid, decode);
  }
}

TEST(Robustness, MbfParser) {
  const auto decode = [](const util::Bytes& b) { (void)mal::parse(b); };
  random_soup(decode, 8);
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.scans.push_back({23, vulndb::VulnId::kMvpowerDvr, 10, 5.0});
  util::Rng rng(9);
  const auto valid = mal::forge(bin, rng, 64);
  truncation_sweep(valid, decode);
  corruption_sweep(valid, decode);
}

TEST(Robustness, BehaviorDecoder) {
  const auto decode = [](const util::Bytes& b) { (void)mal::decode_behavior(b); };
  random_soup(decode, 10);
  mal::BehaviorSpec spec;
  spec.family = proto::Family::kGafgyt;
  spec.c2_ip = net::Ipv4{60, 1, 1, 1};
  spec.c2_fallback_ip = net::Ipv4{60, 2, 2, 2};
  spec.scans.push_back({8080, vulndb::VulnId::kGpon10561, 60, 15.0});
  const auto valid = mal::encode_behavior(spec);
  truncation_sweep(valid, decode);
  corruption_sweep(valid, decode);
}
