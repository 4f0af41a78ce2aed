// Regenerates the committed fuzz seed corpus (tests/corpus/) from the
// project's own encoders (the C2 dialects through profile::wire with the
// builtin profiles), so every corpus entry is a valid wire message by
// construction and the corpus can be rebuilt byte-identically after an
// encoder change:
//
//   malnet_make_corpus [output-dir]     (default: tests/corpus)
//
// CI regenerates the corpus and `diff -r`s it against tests/corpus; if an
// encoder legitimately changes, rerun this tool and commit the result.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/pipeline.hpp"
#include "dns/message.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "profile/profile.hpp"
#include "profile/wire.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"
#include "report/dataset_io.hpp"
#include "store/segment.hpp"
#include "sync/wire.hpp"

using namespace malnet;
using namespace malnet::proto;
namespace wire = malnet::profile::wire;

namespace {

void write_file(const std::filesystem::path& path, util::BytesView data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path.string());
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) throw std::runtime_error("write failed for " + path.string());
  std::cout << path.string() << "  (" << data.size() << " bytes)\n";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  write_file(path, util::to_bytes(text));
}

net::Packet sample_packet(net::Protocol proto) {
  net::Packet p;
  p.time = util::SimTime{1'651'881'600'000'000};  // 2022-05-07, the re-query day
  p.src = net::Ipv4{192, 0, 2, 5};
  p.dst = net::Ipv4{203, 0, 113, 9};
  p.proto = proto;
  p.ttl = 64;
  switch (proto) {
    case net::Protocol::kTcp:
      p.src_port = 49152;
      p.dst_port = 23;
      p.flags.psh = true;
      p.flags.ack = true;
      p.seq = 0x1000;
      p.ack_num = 0x2000;
      p.payload = util::to_bytes("BUILD MIPS\n");
      break;
    case net::Protocol::kUdp:
      p.src_port = 5353;
      p.dst_port = 53;
      p.payload = dns::encode(dns::make_query(0x1337, "cnc.malnet.example"));
      break;
    case net::Protocol::kIcmp:
      p.icmp = {3, 3};  // BLACKNURSE
      p.payload = util::to_bytes("icmp-payload");
      break;
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "tests/corpus";
  std::filesystem::create_directories(dir);

  // --- Mirai (binary C2 protocol) ---
  const auto mirai = profile::builtin_profile(Family::kMirai);
  write_file(dir / "mirai_handshake.bin",
             wire::encode_handshake(mirai, "mips.malnet.1"));
  write_file(dir / "mirai_keepalive.bin", wire::encode_keepalive());
  proto::AttackCommand mirai_cmd;
  mirai_cmd.type = proto::AttackType::kSynFlood;
  mirai_cmd.target = {net::Ipv4{203, 0, 113, 9}, 443};
  mirai_cmd.duration_s = 120;
  write_file(dir / "mirai_attack.bin", wire::encode_binary_attack(mirai, mirai_cmd));

  // --- Gafgyt (text C2 protocol) ---
  const auto gafgyt = profile::builtin_profile(Family::kGafgyt);
  write_file(dir / "gafgyt_hello.txt", wire::encode_hello(gafgyt, "MIPS"));
  proto::AttackCommand gafgyt_cmd;
  gafgyt_cmd.type = proto::AttackType::kStd;
  gafgyt_cmd.target = {net::Ipv4{198, 51, 100, 7}, 9999};
  gafgyt_cmd.duration_s = 60;
  write_file(dir / "gafgyt_attack.txt", wire::encode_text_attack(gafgyt, gafgyt_cmd));

  // --- Daddyl33t (text C2 protocol) ---
  const auto daddy = profile::builtin_profile(Family::kDaddyl33t);
  write_file(dir / "daddyl33t_login.txt", wire::encode_hello(daddy, "bot42"));
  proto::AttackCommand daddy_cmd;
  daddy_cmd.type = proto::AttackType::kBlacknurse;
  daddy_cmd.target = {net::Ipv4{192, 0, 2, 55}, 0};
  daddy_cmd.duration_s = 45;
  write_file(dir / "daddyl33t_attack.txt", wire::encode_text_attack(daddy, daddy_cmd));

  // --- IRC (Tsunami) ---
  write_file(dir / "irc_privmsg.txt",
             proto::irc::privmsg("#tsunami", "!* UDP 198.51.100.7 80 30").serialize());

  // --- P2P (Mozi/Hajime DHT) ---
  const std::string node_id = "MALNET-NODE-0123456@";  // 20 bytes
  write_file(dir / "p2p_ping.bin", proto::p2p::encode_ping({node_id, "aa"}));
  write_file(dir / "p2p_pong.bin", proto::p2p::encode_pong({node_id, "aa"}));

  // --- Family profiles (src/profile) — fuzz seeds for test_profile ---
  write_file(dir / "profile_mirai.json",
             profile::builtin_profile(Family::kMirai).to_pretty_json());
  write_file(dir / "profile_tsunami.json",
             profile::builtin_profile(Family::kTsunami).to_pretty_json());
  write_file(dir / "profile_vpnfilter.json",
             profile::builtin_profile(Family::kVpnFilter).to_pretty_json());
  auto variant = mirai;
  variant.name = "mirai-fallback";
  variant.handshake_magic = 2;
  variant.extra_fallbacks = 2;
  variant.attacker_quota = 0;
  write_file(dir / "profile_variant.json", variant.to_pretty_json());

  // --- DNS query/response pair ---
  const auto query = dns::make_query(0x1337, "cnc.malnet.example");
  write_file(dir / "dns_query.bin", dns::encode(query));
  write_file(dir / "dns_response.bin",
             dns::encode(dns::make_response(query, net::Ipv4{203, 0, 113, 80})));

  // --- Raw IPv4 packets + a minimal pcap ---
  write_file(dir / "packet_tcp.bin", net::to_wire(sample_packet(net::Protocol::kTcp)));
  write_file(dir / "packet_udp.bin", net::to_wire(sample_packet(net::Protocol::kUdp)));
  write_file(dir / "packet_icmp.bin", net::to_wire(sample_packet(net::Protocol::kIcmp)));
  net::PcapWriter pcap;
  pcap.add(sample_packet(net::Protocol::kTcp));
  pcap.add(sample_packet(net::Protocol::kUdp));
  pcap.add(sample_packet(net::Protocol::kIcmp));
  write_file(dir / "mini.pcap", pcap.bytes());

  // --- Sync replication frames (MSY1, full frames incl. length prefix) ---
  // The PUT carries a real minimal segment so the fuzzer starts from a
  // frame that actually reaches the import path.
  core::StudyResults empty_results;
  store::SegmentHeader seg_header;
  seg_header.kind = store::SegmentKind::kIngest;
  seg_header.seed = 22;
  const auto seg_payload = report::serialize_datasets(empty_results);
  const auto seg_bytes =
      store::encode_segment(seg_header, store::build_index(empty_results),
                            util::BytesView{seg_payload});
  const auto seg_hash = store::content_hash(util::BytesView{seg_bytes});
  util::ByteWriter tree_req;
  tree_req.lp16(std::string_view("a"));
  util::ByteWriter list_req;
  list_req.lp16(std::string_view(""));
  util::ByteWriter get_req;
  get_req.lp16(seg_hash);
  write_file(dir / "sync_hello.bin",
             sync::encode_sync_request({1, sync::SyncOp::kHello, {}}));
  write_file(dir / "sync_tree.bin",
             sync::encode_sync_request({2, sync::SyncOp::kTree, tree_req.take()}));
  write_file(dir / "sync_list.bin",
             sync::encode_sync_request({3, sync::SyncOp::kList, list_req.take()}));
  write_file(dir / "sync_get.bin",
             sync::encode_sync_request({4, sync::SyncOp::kGet, get_req.take()}));
  write_file(dir / "sync_put.bin",
             sync::encode_sync_request({5, sync::SyncOp::kPut, seg_bytes}));

  std::cout << "corpus written to " << dir.string() << "\n";
  return 0;
}
