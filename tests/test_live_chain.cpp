// Integration test: the full eavesdropping chain of §2.5 — an attacker C2,
// a weaponized liveness probe, then a restricted live run during which the
// C2 issues its attack plan and the DDoS detector recovers the commands.
#include <gtest/gtest.h>

#include "botnet/c2server.hpp"
#include "core/c2detect.hpp"
#include "core/ddos.hpp"
#include "core/prober.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"

using namespace malnet;

namespace {

mal::MbfBinary make_mirai_bot(net::Ipv4 c2_ip, net::Port c2_port) {
  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.c2_ip = c2_ip;
  bin.behavior.c2_port = c2_port;
  bin.behavior.bot_id = "testbot";
  bin.behavior.keepalive_s = 60;
  bin.marker_strings = {mal::family_marker(proto::Family::kMirai)};
  return bin;
}

}  // namespace

TEST(LiveChain, AttackerC2IssuesCommandsDuringLiveRun) {
  sim::EventScheduler sched;
  sim::Network net(sched);

  const net::Ipv4 c2_ip{60, 1, 2, 3};
  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kMirai;
  cfg.ip = c2_ip;
  cfg.port = 23;
  cfg.accept_prob = 1.0;
  cfg.mean_dormancy = sim::Duration::minutes(30);
  proto::AttackCommand atk;
  atk.type = proto::AttackType::kUdpFlood;
  atk.target = {net::Ipv4{203, 0, 113, 9}, 8080};
  atk.duration_s = 30;
  cfg.attack_plan = {atk, atk};
  botnet::C2Server server(net, cfg, util::Rng(1));

  emu::Sandbox sandbox(net);
  util::Rng rng(2);
  util::Bytes binary = mal::forge(make_mirai_bot(c2_ip, 23), rng);

  // Phase 1: weaponized liveness probe engages the C2.
  bool probed = false, engaged = false;
  core::probe_liveness(sandbox, core::Weapon{binary, {c2_ip, 23}}, {c2_ip, 23},
                       [&](core::LivenessResult res) {
                         probed = true;
                         engaged = res.engaged;
                       });
  sched.run_until(sim::SimTime{} + sim::Duration::minutes(5));
  ASSERT_TRUE(probed);
  ASSERT_TRUE(engaged) << "C2 with accept_prob=1 must engage the probe";

  // Phase 2: restricted live run; the C2 is dormant right after the probe
  // but the bot's retry loop must ride that out.
  emu::SandboxOptions live;
  live.mode = emu::SandboxMode::kLive;
  live.duration = sim::Duration::hours(2);
  live.allowed_c2 = net::Endpoint{c2_ip, 23};
  live.c2_retry_limit = 120;
  live.c2_retry_delay = sim::Duration::seconds(60);

  bool done = false;
  emu::SandboxReport live_report;
  sandbox.start(binary, live, [&](const emu::SandboxReport& r) {
    done = true;
    live_report = r;
  });
  sched.run_until(sched.now() + sim::Duration::hours(3));
  ASSERT_TRUE(done);
  EXPECT_GE(server.commands_issued(), 2u) << "C2 should issue its plan to the bot";
  EXPECT_GE(live_report.commands.size(), 2u) << "bot should decode the commands";

  const auto detections = core::detect_ddos(live_report, {c2_ip, 23},
                                            proto::Family::kMirai);
  ASSERT_GE(detections.size(), 1u);
  EXPECT_TRUE(detections.front().verified);
  EXPECT_EQ(detections.front().command.target.ip, atk.target.ip);
}

TEST(LiveChain, IrcBorneAttackIsRecoveredByTheHeuristicOnly) {
  // §2.5b: "In order to cover other malware families and new variants, we
  // employ a heuristic detection method." A Tsunami C2 issues its command
  // inside IRC PRIVMSG — the three protocol profiles miss it; the >100 pps
  // heuristic recovers it and verifies the target inside the raw command.
  sim::EventScheduler sched;
  sim::Network net(sched);

  botnet::C2ServerConfig cfg;
  cfg.family = proto::Family::kTsunami;
  cfg.ip = net::Ipv4{60, 3, 3, 3};
  cfg.port = 6667;
  cfg.accept_prob = 1.0;
  proto::AttackCommand atk;
  atk.type = proto::AttackType::kUdpFlood;
  atk.target = {net::Ipv4{203, 0, 113, 50}, 8080};
  atk.duration_s = 30;
  cfg.attack_plan = {atk};
  botnet::C2Server server(net, cfg, util::Rng(3));

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kTsunami;
  bin.behavior.c2_ip = cfg.ip;
  bin.behavior.c2_port = 6667;
  bin.behavior.bot_id = "tsunami-bot";
  util::Rng rng(4);

  emu::Sandbox sandbox(net);
  emu::SandboxOptions live;
  live.mode = emu::SandboxMode::kLive;
  live.duration = sim::Duration::hours(1);
  live.allowed_c2 = server.endpoint();

  emu::SandboxReport report;
  sandbox.start(mal::forge(bin, rng), live,
                [&](const emu::SandboxReport& r) { report = r; });
  sched.run_until(sched.now() + sim::Duration::hours(2));

  ASSERT_GE(report.commands.size(), 1u) << "bot must act on the PRIVMSG order";

  // Without a family hint every binary/text profile is tried; IRC framing
  // is not, so detection must come from the behavioural method.
  const auto dets = core::detect_ddos(report, server.endpoint(), std::nullopt);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].method, core::DdosMethod::kBehaviouralHeuristic);
  EXPECT_TRUE(dets[0].verified) << "target IP appears textually in the PRIVMSG";
  EXPECT_EQ(dets[0].command.target.ip, atk.target.ip);
  EXPECT_EQ(dets[0].command.type, proto::AttackType::kUdpFlood);
}
