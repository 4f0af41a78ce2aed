// Extension features beyond the paper's evaluation: actionable-rule export
// (§1 "Potential Impact") and the sandbox's MIPS-32 architecture gate
// (§2.1, §6d).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "emu/attackgen.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "report/rules_export.hpp"

using namespace malnet;

// --- rules export ---------------------------------------------------------------

namespace {
core::StudyResults study_with_iocs() {
  core::StudyResults r;
  core::C2Record live;
  live.address = "60.1.1.1";
  live.ip = *net::parse_ipv4("60.1.1.1");
  live.port = 23;
  live.live_days = {3};
  live.discovery_day = 3;
  live.is_downloader = true;
  r.d_c2s[live.address] = live;

  core::C2Record dns;
  dns.address = "cnc.bot-net1.com";
  dns.is_dns = true;
  dns.ip = *net::parse_ipv4("60.2.2.2");
  dns.port = 666;
  dns.vt_malicious_requery = true;
  dns.discovery_day = 7;
  r.d_c2s[dns.address] = dns;

  core::C2Record unverified;
  unverified.address = "60.3.3.3";
  unverified.ip = *net::parse_ipv4("60.3.3.3");
  unverified.discovery_day = 9;  // never live, never re-query confirmed
  r.d_c2s[unverified.address] = unverified;

  r.downloader_hosts = {"60.1.1.1", "60.9.9.9"};

  core::ExploitRecord er;
  er.sample_sha = "aa";
  er.vuln = vulndb::VulnId::kGpon10561;
  r.d_exploits.push_back(er);
  return r;
}
}  // namespace

TEST(RulesExport, BlocklistRespectsVerificationGate) {
  const auto r = study_with_iocs();
  const auto iocs = report::build_blocklist(r);
  std::set<std::string> addrs;
  for (const auto& ioc : iocs) addrs.insert(ioc.address);
  EXPECT_TRUE(addrs.count("60.1.1.1"));           // live
  EXPECT_TRUE(addrs.count("cnc.bot-net1.com"));   // re-query confirmed
  EXPECT_FALSE(addrs.count("60.3.3.3"));          // unverified: excluded
  EXPECT_TRUE(addrs.count("60.9.9.9"));           // dedicated downloader
}

TEST(RulesExport, GeneratedSnortRulesParseWithOwnEngine) {
  const auto r = study_with_iocs();
  const auto set = report::compile_exported_rules(r);  // throws on failure
  EXPECT_GE(set.size(), 4u);  // 3 IoCs + 1 exploit signature

  // The C2 drop rule must actually drop traffic to that C2...
  net::Packet to_c2;
  to_c2.src = *net::parse_ipv4("192.168.1.50");
  to_c2.dst = *net::parse_ipv4("60.1.1.1");
  to_c2.proto = net::Protocol::kTcp;
  to_c2.dst_port = 23;
  EXPECT_TRUE(set.evaluate(to_c2).drop);
  // ...and not traffic to unrelated hosts.
  to_c2.dst = *net::parse_ipv4("8.8.8.8");
  EXPECT_FALSE(set.evaluate(to_c2).drop);
}

TEST(RulesExport, ExploitSignatureRulesMatchRealPayloads) {
  const auto r = study_with_iocs();
  const auto set = report::compile_exported_rules(r);
  const auto& vdb = vulndb::VulnDatabase::instance();

  net::Packet exploit;
  exploit.src = *net::parse_ipv4("192.168.1.50");
  exploit.dst = *net::parse_ipv4("198.51.100.2");
  exploit.proto = net::Protocol::kTcp;
  exploit.dst_port = vdb.by_id(vulndb::VulnId::kGpon10561).port;
  exploit.payload = util::to_bytes(
      vdb.render_exploit(vulndb::VulnId::kGpon10561, "60.9.9.9", "t8UsA2.sh"));
  const auto ev = set.evaluate(exploit);
  bool exploit_alert = false;
  for (const auto* rule : ev.matched) exploit_alert |= rule->sid >= 2000000;
  EXPECT_TRUE(exploit_alert) << "generated signature must match the exploit";
}

TEST(RulesExport, PipelineOutputCompilesCleanly) {
  core::PipelineConfig cfg;
  cfg.seed = 9;
  cfg.world.total_samples = 120;
  cfg.run_probe_campaign = false;
  core::Pipeline pipeline(cfg);
  const auto results = pipeline.run();
  const auto set = report::compile_exported_rules(results);
  EXPECT_GT(set.size(), 20u);
}

// --- architecture gate -------------------------------------------------------

TEST(MultiArch, SandboxRejectsUnsupportedArch) {
  // The study's feeds plant ARM and x86 builds (botnet/world.cpp); the
  // MIPS-32-only sandbox must reject both without running them.
  for (const auto arch : {mal::Arch::kArm32, mal::Arch::kX86}) {
    SCOPED_TRACE(static_cast<int>(arch));
    sim::EventScheduler sched;
    sim::Network net(sched);
    emu::Sandbox sandbox(net);

    mal::MbfBinary bin;
    bin.arch = arch;
    bin.behavior.family = proto::Family::kMirai;
    bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
    util::Rng rng(1);
    emu::SandboxReport report;
    bool done = false;
    sandbox.start(mal::forge(bin, rng), {}, [&](const emu::SandboxReport& r) {
      report = r;
      done = true;
    });
    sched.run_until(sched.now() + sim::Duration::minutes(1));
    ASSERT_TRUE(done);
    EXPECT_TRUE(report.parsed);
    EXPECT_TRUE(report.unsupported_arch);
    EXPECT_FALSE(report.activated);
  }
}

TEST(RulesExport, AttackParticipationSignatures) {
  auto r = study_with_iocs();
  core::DdosRecord nurse;
  nurse.c2_address = "60.1.1.1";
  nurse.detection.command.type = proto::AttackType::kBlacknurse;
  nurse.detection.command.family = proto::Family::kDaddyl33t;
  r.d_ddos.push_back(nurse);
  core::DdosRecord vse = nurse;
  vse.detection.command.type = proto::AttackType::kVse;
  r.d_ddos.push_back(vse);

  const auto set = report::compile_exported_rules(r);
  net::Packet flood;
  flood.src = *net::parse_ipv4("192.168.1.9");
  flood.dst = *net::parse_ipv4("198.51.100.1");
  flood.proto = net::Protocol::kIcmp;
  flood.icmp = {3, 3};
  bool hit = false;
  for (const auto* rule : set.evaluate(flood).matched) hit |= rule->sid >= 3000000;
  EXPECT_TRUE(hit) << "BLACKNURSE participation must alert";

  net::Packet vse_pkt;
  vse_pkt.src = flood.src;
  vse_pkt.dst = flood.dst;
  vse_pkt.proto = net::Protocol::kUdp;
  vse_pkt.dst_port = 27015;
  vse_pkt.payload = emu::vse_payload();
  hit = false;
  for (const auto* rule : set.evaluate(vse_pkt).matched) hit |= rule->sid >= 3000000;
  EXPECT_TRUE(hit) << "VSE participation must alert";
}
