// core analysis components: C2 detection, exploit attribution, DDoS command
// recovery, liveness probing.
#include <gtest/gtest.h>

#include <fstream>

#include "botnet/c2server.hpp"
#include "core/c2detect.hpp"
#include "core/ddos.hpp"
#include "core/exploit_id.hpp"
#include "botnet/probe_world.hpp"
#include "core/prober.hpp"
#include "dns/message.hpp"
#include "emu/attackgen.hpp"
#include "emu/sandbox.hpp"
#include "inetsim/services.hpp"
#include "mal/binary.hpp"
#include "profile/wire.hpp"
#include "testkit/scratch.hpp"

using namespace malnet;
using namespace malnet::core;
namespace wire = malnet::profile::wire;

namespace {
constexpr net::Ipv4 kMartian{10, 99, 7, 7};

net::Packet syn_to(net::Ipv4 dst, net::Port port, net::Port src_port,
                   std::int64_t t_ms = 0) {
  net::Packet p;
  p.time = util::SimTime{t_ms * 1000};
  p.src = net::Ipv4{10, 77, 0, 16};
  p.dst = dst;
  p.proto = net::Protocol::kTcp;
  p.src_port = src_port;
  p.dst_port = port;
  p.flags.syn = true;
  return p;
}
}  // namespace

TEST(C2Detect, FindsBeaconingIpEndpoint) {
  emu::SandboxReport report;
  for (int i = 0; i < 3; ++i) {
    report.capture.push_back(
        syn_to(net::Ipv4{60, 1, 1, 1}, 23, static_cast<net::Port>(50000 + i), i * 25000));
  }
  const auto cands = detect_c2(report, kMartian);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].address, "60.1.1.1");
  EXPECT_FALSE(cands[0].is_dns);
  EXPECT_EQ(cands[0].port, 23);
  EXPECT_EQ(cands[0].connection_attempts, 3);
}

TEST(C2Detect, SingleContactIsNotC2) {
  emu::SandboxReport report;
  report.capture.push_back(syn_to(net::Ipv4{60, 1, 1, 1}, 23, 50000));
  EXPECT_TRUE(detect_c2(report, kMartian).empty());
}

TEST(C2Detect, ScanSweepIsSuppressedButC2OnSamePortSurvives) {
  emu::SandboxReport report;
  // A telnet sweep: 30 distinct destinations, one SYN each.
  for (int i = 0; i < 30; ++i) {
    report.capture.push_back(syn_to(net::Ipv4{20, 0, 0, static_cast<std::uint8_t>(i)},
                                    23, static_cast<net::Port>(51000 + i)));
  }
  // The C2, also on 23/tcp, retried four times.
  for (int i = 0; i < 4; ++i) {
    report.capture.push_back(
        syn_to(net::Ipv4{60, 1, 1, 1}, 23, static_cast<net::Port>(52000 + i)));
  }
  const auto cands = detect_c2(report, kMartian);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].address, "60.1.1.1");
}

TEST(C2Detect, AttributesDomainViaDnsAnswer) {
  emu::SandboxReport report;
  // Inbound DNS answer: cnc.example -> martian.
  net::Packet answer;
  answer.time = util::SimTime{1000};
  answer.src = net::Ipv4{1, 1, 1, 1};
  answer.src_port = 53;
  answer.dst = net::Ipv4{10, 77, 0, 16};
  answer.proto = net::Protocol::kUdp;
  const auto q = dns::make_query(9, "cnc.example");
  answer.payload = dns::encode(dns::make_response(q, kMartian));
  report.capture.push_back(answer);
  for (int i = 0; i < 3; ++i) {
    report.capture.push_back(
        syn_to(kMartian, 666, static_cast<net::Port>(50000 + i), 10 + i));
  }
  const auto cands = detect_c2(report, kMartian);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].is_dns);
  EXPECT_EQ(cands[0].address, "cnc.example");
  EXPECT_EQ(cands[0].port, 666);
}

TEST(C2Detect, PrimaryBeforeFallbackOnEqualAttempts) {
  emu::SandboxReport report;
  // Fallback contacted later with the same attempt count.
  for (int i = 0; i < 3; ++i) {
    report.capture.push_back(
        syn_to(net::Ipv4{60, 1, 1, 1}, 23, static_cast<net::Port>(50000 + i), i));
  }
  for (int i = 0; i < 3; ++i) {
    report.capture.push_back(
        syn_to(net::Ipv4{60, 2, 2, 2}, 666, static_cast<net::Port>(51000 + i), 100 + i));
  }
  const auto cands = detect_c2(report, kMartian);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].address, "60.1.1.1") << "primary (contacted first) must rank first";
  EXPECT_EQ(cands[1].address, "60.2.2.2");
}

TEST(ExploitId, AttributesAndDeduplicates) {
  const auto& vdb = vulndb::VulnDatabase::instance();
  emu::SandboxReport report;
  for (int i = 0; i < 5; ++i) {
    emu::ExploitCapture cap;
    cap.port = 60001;
    cap.original_dst = net::Ipv4{20, 0, 0, static_cast<std::uint8_t>(i)};
    cap.payload = util::to_bytes(
        vdb.render_exploit(vulndb::VulnId::kMvpowerDvr, "60.9.9.9", "jaws.sh"));
    report.exploits.push_back(cap);
  }
  emu::ExploitCapture telnet;
  telnet.port = 23;
  telnet.payload = util::to_bytes("root\r\nvizxv\r\n");
  report.exploits.push_back(telnet);

  std::vector<util::Bytes> unattributed;
  const auto findings = identify_exploits(report, &unattributed);
  ASSERT_EQ(findings.size(), 1u);  // deduplicated per vulnerability
  EXPECT_EQ(findings[0].vuln, vulndb::VulnId::kMvpowerDvr);
  EXPECT_EQ(findings[0].downloader_host, "60.9.9.9");
  EXPECT_EQ(findings[0].loader_name, "jaws.sh");
  EXPECT_EQ(unattributed.size(), 1u);
}

// --- DDoS detection -------------------------------------------------------------

namespace {
constexpr net::Endpoint kC2{net::Ipv4{60, 1, 1, 1}, 23};

emu::SandboxReport make_live_report(const util::Bytes& command_payload,
                                    net::Ipv4 target, net::Port target_port,
                                    int flood_packets, net::Protocol flood_proto,
                                    util::Bytes flood_payload = {0x00}) {
  emu::SandboxReport report;
  net::Packet cmd;
  cmd.time = util::SimTime{1'000'000};
  cmd.src = kC2.ip;
  cmd.src_port = kC2.port;
  cmd.dst = net::Ipv4{10, 77, 0, 16};
  cmd.proto = net::Protocol::kTcp;
  cmd.payload = command_payload;
  report.capture.push_back(cmd);
  for (int i = 0; i < flood_packets; ++i) {
    net::Packet p;
    p.time = util::SimTime{2'000'000 + i * 5'000};  // 200 pps
    p.src = net::Ipv4{10, 77, 0, 16};
    p.dst = target;
    p.proto = flood_proto;
    p.dst_port = target_port;
    if (flood_proto == net::Protocol::kIcmp) p.icmp = {3, 3};
    p.payload = flood_payload;
    report.capture.push_back(p);
  }
  return report;
}
}  // namespace

TEST(DdosDetect, ProfileMethodDecodesMiraiCommand) {
  proto::AttackCommand cmd;
  cmd.type = proto::AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{7, 7, 7, 7}, 8080};
  cmd.duration_s = 30;
  const auto mirai = profile::builtin_profile(proto::Family::kMirai);
  const auto report = make_live_report(wire::encode_binary_attack(mirai, cmd),
                                       cmd.target.ip, 8080, 400, net::Protocol::kUdp);
  const auto dets = detect_ddos(report, kC2, proto::Family::kMirai);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].method, DdosMethod::kProtocolProfile);
  EXPECT_TRUE(dets[0].verified);
  EXPECT_EQ(dets[0].command.target, cmd.target);
  EXPECT_GE(dets[0].observed_pps, 100.0);
  // mirai-fallback shares Mirai's vector ids; the frame goes to the first
  // dialect that decodes it, so loading the variant adds no detection.
  profile::Registry reg;
  ASSERT_FALSE(reg.load_file(MALNET_PROFILES_DIR "/mirai-fallback.json").has_value());
  EXPECT_EQ(detect_ddos(report, kC2, proto::Family::kMirai, {}, reg).size(), 1u);
  EXPECT_EQ(detect_ddos(report, kC2, std::nullopt, {}, reg).size(), 1u);
}

TEST(DdosDetect, ProfileMethodUnverifiedWithoutFlood) {
  proto::AttackCommand cmd;
  cmd.type = proto::AttackType::kUdpFlood;
  cmd.target = {net::Ipv4{7, 7, 7, 7}, 8080};
  const auto mirai = profile::builtin_profile(proto::Family::kMirai);
  const auto report = make_live_report(wire::encode_binary_attack(mirai, cmd),
                                       net::Ipv4{9, 9, 9, 9}, 8080, 5,
                                       net::Protocol::kUdp);
  const auto dets = detect_ddos(report, kC2, proto::Family::kMirai);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_FALSE(dets[0].verified) << "bot never flooded the commanded target";
}

TEST(DdosDetect, ProfileMethodDecodesTextFamilies) {
  proto::AttackCommand cmd;
  cmd.type = proto::AttackType::kStd;
  cmd.target = {net::Ipv4{7, 7, 7, 7}, 9999};
  cmd.duration_s = 60;
  const auto gafgyt = profile::builtin_profile(proto::Family::kGafgyt);
  auto report = make_live_report(util::to_bytes(wire::encode_text_attack(gafgyt, cmd)),
                                 cmd.target.ip, 9999, 300, net::Protocol::kUdp,
                                 util::to_bytes("RANDOMSTRINGRANDOMSTRINGRANDOMST"));
  auto dets = detect_ddos(report, kC2, proto::Family::kGafgyt);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].command.type, proto::AttackType::kStd);
  EXPECT_EQ(dets[0].command.family, proto::Family::kGafgyt);

  cmd.type = proto::AttackType::kBlacknurse;
  cmd.target.port = 0;
  const auto daddy = profile::builtin_profile(proto::Family::kDaddyl33t);
  report = make_live_report(util::to_bytes(wire::encode_text_attack(daddy, cmd)),
                            cmd.target.ip, 0, 300, net::Protocol::kIcmp);
  dets = detect_ddos(report, kC2, proto::Family::kDaddyl33t);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].command.type, proto::AttackType::kBlacknurse);
  EXPECT_TRUE(dets[0].verified);
}

TEST(DdosDetect, HeuristicCatchesUnknownVariantAndVerifiesTargetInCommand) {
  // A command in an unprofiled grammar ("SMASH <ip> ...") followed by a
  // high-rate flood: method (b) must reconstruct it (§2.5b).
  const auto report = make_live_report(util::to_bytes("SMASH 7.7.7.7 8080 60\n"),
                                       net::Ipv4{7, 7, 7, 7}, 8080, 400,
                                       net::Protocol::kUdp);
  const auto dets = detect_ddos(report, kC2, std::nullopt);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].method, DdosMethod::kBehaviouralHeuristic);
  EXPECT_TRUE(dets[0].verified);  // "7.7.7.7" appears in the command text
  EXPECT_EQ(dets[0].command.type, proto::AttackType::kUdpFlood);
}

TEST(DdosDetect, ProfileMethodDecodesALoadedVariantDialect) {
  // The capture above, analysed with a registry that also holds a text
  // dialect spelling UDP Flood as "SMASH": method (a) now decodes it.
  auto smash = profile::builtin_profile(proto::Family::kDaddyl33t);
  smash.name = "daddyl33t-smash";
  smash.commands = {{proto::AttackType::kUdpFlood, 0, "SMASH"}};
  const testkit::ScratchDir dir("ddos_smash");
  std::ofstream(dir.file("smash.json")) << smash.to_pretty_json();
  profile::Registry reg;
  ASSERT_FALSE(reg.load_file(dir.file("smash.json")).has_value());

  const auto report = make_live_report(util::to_bytes("SMASH 7.7.7.7 8080 60\n"),
                                       net::Ipv4{7, 7, 7, 7}, 8080, 400,
                                       net::Protocol::kUdp);
  const auto dets = detect_ddos(report, kC2, std::nullopt, {}, reg);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].method, DdosMethod::kProtocolProfile);
  EXPECT_TRUE(dets[0].verified);
  EXPECT_EQ(dets[0].command.type, proto::AttackType::kUdpFlood);
  EXPECT_EQ(dets[0].command.family, proto::Family::kDaddyl33t);
  EXPECT_EQ(dets[0].command.target, (net::Endpoint{{7, 7, 7, 7}, 8080}));
  // The variant's family hint keeps it; another family's hint drops it.
  EXPECT_EQ(detect_ddos(report, kC2, proto::Family::kDaddyl33t, {}, reg).at(0).method,
            DdosMethod::kProtocolProfile);
  EXPECT_EQ(detect_ddos(report, kC2, proto::Family::kGafgyt, {}, reg).at(0).method,
            DdosMethod::kBehaviouralHeuristic);
}

TEST(DdosDetect, HeuristicVerifiesBinaryIpRepresentation) {
  util::Bytes cmd = util::to_bytes("BLAST:");
  cmd.push_back(7);
  cmd.push_back(7);
  cmd.push_back(7);
  cmd.push_back(7);
  const auto report =
      make_live_report(cmd, net::Ipv4{7, 7, 7, 7}, 8080, 400, net::Protocol::kUdp);
  const auto dets = detect_ddos(report, kC2, std::nullopt);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_TRUE(dets[0].verified);
}

TEST(DdosDetect, HeuristicRespectsPpsThreshold) {
  // Scan-rate traffic (~10 pps) must not trigger the heuristic.
  emu::SandboxReport report = make_live_report(util::to_bytes("chatter\n"),
                                               net::Ipv4{7, 7, 7, 7}, 8080, 0,
                                               net::Protocol::kUdp);
  for (int i = 0; i < 50; ++i) {
    net::Packet p;
    p.time = util::SimTime{2'000'000 + i * 100'000};  // 10 pps
    p.src = net::Ipv4{10, 77, 0, 16};
    p.dst = net::Ipv4{7, 7, 7, 7};
    p.proto = net::Protocol::kUdp;
    p.dst_port = 8080;
    p.payload = {0x00};
    report.capture.push_back(p);
  }
  EXPECT_TRUE(detect_ddos(report, kC2, std::nullopt).empty());
}

class TrafficClassification
    : public ::testing::TestWithParam<std::pair<proto::AttackType, const char*>> {};

TEST_P(TrafficClassification, HeuristicInfersTypeFromWireShape) {
  const auto [expected_type, _] = GetParam();
  emu::SandboxReport report;
  net::Packet cmd;
  cmd.time = util::SimTime{0};
  cmd.src = kC2.ip;
  cmd.src_port = kC2.port;
  cmd.proto = net::Protocol::kTcp;
  cmd.payload = util::to_bytes("X 7.7.7.7 1 1\n");
  report.capture.push_back(cmd);

  sim::EventScheduler sched;
  sim::Network net{sched};
  sim::Host bot(net, net::Ipv4{10, 77, 0, 16});
  bot.set_tap([&](const net::Packet& p, bool outbound) {
    if (outbound) report.capture.push_back(p);
  });
  proto::AttackCommand atk;
  atk.type = expected_type;
  atk.target = {net::Ipv4{7, 7, 7, 7},
                expected_type == proto::AttackType::kBlacknurse ? net::Port{0}
                                                                : net::Port{8080}};
  atk.duration_s = 5;
  emu::AttackGenOptions gen;
  gen.pps = 300;
  gen.max_duration = sim::Duration::seconds(2);
  util::Rng rng(1);
  emu::launch_attack(bot, atk, gen, rng);
  sched.run();

  const auto dets = detect_ddos(report, kC2, std::nullopt);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].command.type, expected_type);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, TrafficClassification,
    ::testing::Values(std::pair{proto::AttackType::kUdpFlood, "udp"},
                      std::pair{proto::AttackType::kSynFlood, "syn"},
                      std::pair{proto::AttackType::kTls, "tls"},
                      std::pair{proto::AttackType::kStomp, "stomp"},
                      std::pair{proto::AttackType::kVse, "vse"},
                      std::pair{proto::AttackType::kStd, "std"},
                      std::pair{proto::AttackType::kBlacknurse, "nurse"},
                      std::pair{proto::AttackType::kNfo, "nfo"}),
    [](const auto& info) { return std::string(info.param.second); });

// --- prober ---------------------------------------------------------------------

TEST(Prober, BannerHostsAreFilteredFromEngagements) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  emu::Sandbox sandbox(net);
  inetsim::BannerHost apache(net, net::Ipv4{198, 18, 0, 10}, 81,
                             "HTTP/1.1 400 Bad Request\r\nServer: Apache\r\n\r\n");
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.c2_port = 23;
  util::Rng rng(2);
  const Weapon weapon{mal::forge(bin, rng), {net::Ipv4{60, 1, 1, 1}, 23}};

  bool done = false;
  LivenessResult result;
  probe_liveness(sandbox, weapon, {apache.addr(), 81}, [&](LivenessResult r) {
    done = true;
    result = r;
  });
  sched.run_until(sched.now() + sim::Duration::minutes(3));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.engaged) << "well-known banners are not C2s (§2.6)";
  EXPECT_FALSE(result.first_data.empty());
}

TEST(ProbeCampaign, MiniCampaignProducesRaster) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  emu::Sandbox sandbox(net);

  botnet::ProbeWorldConfig wc;
  wc.subnet_count = 2;
  wc.c2_count = 2;
  wc.banner_hosts_per_subnet = 2;
  wc.accept_prob = 1.0;
  wc.mean_dormancy = sim::Duration::minutes(5);
  auto world = botnet::build_probe_world(net, wc);

  // Weapons matching the world's families, aimed at dummy hints.
  std::vector<Weapon> weapons;
  for (const auto family : {proto::Family::kGafgyt, proto::Family::kMirai}) {
    mal::MbfBinary bin;
    bin.behavior.family = family;
    bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
    bin.behavior.c2_port = 23;
    util::Rng rng(static_cast<std::uint64_t>(family));
    weapons.push_back(Weapon{mal::forge(bin, rng), {net::Ipv4{60, 1, 1, 1}, 23}});
  }

  ProbeCampaignConfig pc;
  for (const auto& s : world.subnets) pc.subnets.push_back(s);
  pc.ports = botnet::table5_ports();
  pc.rounds = 3;
  pc.interval = sim::Duration::hours(4);

  bool done = false;
  ProbeCampaignResult result;
  ProbeCampaign campaign(net, sandbox, pc, std::move(weapons),
                         [&](ProbeCampaignResult r) {
                           done = true;
                           result = std::move(r);
                         });
  campaign.start();
  sched.run_until(sched.now() + sim::Duration::hours(16));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.rounds, 3);
  EXPECT_GT(result.scout_probes, 10000u);  // 2 x 254 x 12 per round
  EXPECT_GT(result.banner_filtered, 0u);
  // Both C2s should be discovered with accept_prob 1.
  EXPECT_EQ(result.raster.size(), 2u);
  for (const auto& [ep, bits] : result.raster) {
    EXPECT_EQ(bits.size(), 3u);
    EXPECT_TRUE(bits[0]);  // first round: fresh server, always-on
  }
}

TEST(C2Detect, BenignTelemetryBeaconsAreFilteredByDefault) {
  // A sample with a benign periodic HTTP beacon (IP-echo style): the
  // classifier must keep the real C2 and drop the beacon — the precision
  // lesson behind CnCHunter's ~90% figure.
  sim::EventScheduler sched;
  sim::Network net(sched);
  emu::Sandbox sandbox(net);

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.c2_port = 23;
  bin.behavior.telemetry_domain = "api.ip-echo.net";
  util::Rng rng(77);

  emu::SandboxReport report;
  sandbox.start(mal::forge(bin, rng), {}, [&](const emu::SandboxReport& r) {
    report = r;
  });
  sched.run_until(sched.now() + sim::Duration::minutes(12));

  const auto cands = detect_c2(report, sandbox.martian());
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].address, "60.1.1.1");

  C2DetectOptions naive;
  naive.filter_http_flows = false;
  const auto naive_cands = detect_c2(report, sandbox.martian(), naive);
  ASSERT_EQ(naive_cands.size(), 2u) << "naive classifier must also flag the beacon";
  bool beacon_found = false;
  for (const auto& c : naive_cands) beacon_found |= c.address == "api.ip-echo.net";
  EXPECT_TRUE(beacon_found);
}
