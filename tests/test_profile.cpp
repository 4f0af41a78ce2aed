// malnet::profile — declarative family profiles (DESIGN.md §16).
//
// The load-bearing contract: for every builtin profile the data-driven
// path (profile::wire codecs, registry-resolved behaviour) is byte-
// identical to the pre-profile compiled-in codecs (known-answer frames
// captured from them) and to the pre-profile study output; malformed or
// ambiguous profile files are rejected with line/field context and never
// crash the parser (fuzzed from the committed profile_* corpus); and a
// data-only variant profile runs end-to-end — planner to C2 server to
// sandboxed bot to the analyst's DDoS decoder — without any C++
// behaviour-table change.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "botnet/c2server.hpp"
#include "botnet/world.hpp"
#include "core/parallel_study.hpp"
#include "dialects.hpp"
#include "emu/sandbox.hpp"
#include "mal/binary.hpp"
#include "profile/parse.hpp"
#include "profile/registry.hpp"
#include "profile/wire.hpp"
#include "report/dataset_io.hpp"
#include "testkit/testkit.hpp"

using namespace malnet;
using namespace malnet::profile;

namespace {

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  ASSERT_TRUE(f) << "cannot write " << path;
  f << text;
}

/// Writes the builtin profiles into `dir` as canonical dumps — loading them
/// must reproduce the compiled-in behaviour bit-for-bit.
void write_builtin_dump(const testkit::ScratchDir& dir) {
  for (const auto* p : Registry::builtin().all()) {
    write_text(dir.file(p->name + ".json"), p->to_pretty_json());
  }
}

FamilyProfile make_variant() {
  auto v = builtin_profile(proto::Family::kMirai);
  v.name = "mirai-fallback";
  v.handshake_magic = 2;
  v.extra_fallbacks = 2;
  v.attacker_quota = 0;
  return v;
}

proto::AttackCommand make_cmd(proto::Family family, proto::AttackType type) {
  proto::AttackCommand cmd;
  cmd.family = family;
  cmd.type = type;
  cmd.target = {net::Ipv4{198, 51, 100, 7},
                proto::attack_protocol(type, 80) == proto::AttackProtocol::kIcmp
                    ? net::Port{0}
                    : net::Port{80}};
  cmd.duration_s = 30;
  return cmd;
}

bool same_command(const proto::AttackCommand& a, const proto::AttackCommand& b) {
  return a.type == b.type && a.family == b.family && a.target == b.target &&
         a.duration_s == b.duration_s;
}

}  // namespace

// --- builtin profiles --------------------------------------------------------

TEST(Profile, BuiltinsValidateAndCoverEveryFamily) {
  for (std::size_t i = 0; i < proto::kFamilyCount; ++i) {
    const auto f = static_cast<proto::Family>(i);
    const auto p = builtin_profile(f);
    EXPECT_EQ(p.id, f);
    EXPECT_EQ(p.name, proto::to_string(f));
    EXPECT_FALSE(p.validate().has_value())
        << proto::to_string(f) << ": " << *p.validate();
    EXPECT_EQ(p.is_text_like(),
              p.framing == Framing::kText || p.framing == Framing::kIrc);
  }
  // Tsunami's PRIVMSG bodies speak the Gafgyt command grammar.
  EXPECT_EQ(builtin_profile(proto::Family::kTsunami).commands,
            builtin_profile(proto::Family::kGafgyt).commands);
}

TEST(Profile, CanonicalRoundTripPreservesProfileAndHash) {
  for (const auto* p : Registry::builtin().all()) {
    ParseIssue issue;
    const auto back = parse_profile(p->to_pretty_json(), &issue);
    ASSERT_TRUE(back.has_value()) << p->name << ": " << issue.render();
    EXPECT_EQ(*back, *p) << p->name;
    EXPECT_EQ(back->content_hash(), p->content_hash()) << p->name;
  }
  // The variant survives the same round trip.
  const auto v = make_variant();
  const auto back = parse_profile(v.to_pretty_json(), nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
}

// --- wire parity with the compiled-in proto codecs ---------------------------
// Known answers: the bytes the pre-profile proto/ encoders produced for
// every builtin (family, command) pair with make_cmd's target and duration,
// plus the handshake/hello and keepalive/ping/pong.

namespace {

using T = proto::AttackType;

/// `known` lists one builtin dialect's commands in its command table's
/// order (the attack planner's draw order); each encodes to exactly the
/// given bytes and decodes back to the command.
void expect_known_commands(const FamilyProfile& p,
                           const std::vector<std::pair<T, std::string>>& known) {
  ASSERT_EQ(p.commands.size(), known.size());
  for (std::size_t i = 0; i < known.size(); ++i) {
    const auto& [type, text] = known[i];
    const auto bytes = p.framing == Framing::kBinary ? util::from_hex(text)
                                                     : util::to_bytes(text);
    EXPECT_EQ(p.commands[i].type, type) << "planner draw order";
    const auto cmd = make_cmd(p.id, type);
    EXPECT_EQ(dialects::encode_attack(p, cmd), bytes) << proto::to_string(type);
    const auto decoded = dialects::decode_attack(p, bytes);
    EXPECT_TRUE(decoded && same_command(*decoded, cmd)) << proto::to_string(type);
  }
}

}  // namespace

TEST(ProfileWire, MiraiBinaryFramingMatchesProtoByteForByte) {
  const auto p = builtin_profile(proto::Family::kMirai);
  EXPECT_EQ(wire::encode_handshake(p, "bot-7"), util::from_hex("0000000105626f742d37"));
  EXPECT_EQ(dialects::decode_hello(p, util::from_hex("000000010178")), "x");
  EXPECT_EQ(wire::encode_keepalive(), util::from_hex("0000"));
  EXPECT_TRUE(wire::is_keepalive(util::from_hex("0000")));
  expect_known_commands(p, {{T::kUdpFlood, "00100000001e0001c6336407200107020050"},
                            {T::kSynFlood, "00100000001e0301c6336407200107020050"},
                            {T::kTls, "00100000001e0b01c6336407200107020050"},
                            {T::kStomp, "00100000001e0501c6336407200107020050"},
                            {T::kVse, "00100000001e0101c6336407200107020050"}});
  // A port-less target omits the dport option.
  auto portless = make_cmd(proto::Family::kMirai, T::kUdpFlood);
  portless.target.port = 0;
  EXPECT_EQ(wire::encode_binary_attack(p, portless),
            util::from_hex("000c0000001e0001c63364072000"));
}

TEST(ProfileWire, GafgytTextFramingMatchesProtoByteForByte) {
  const auto p = builtin_profile(proto::Family::kGafgyt);
  EXPECT_EQ(wire::encode_hello(p, "MIPS"), "BUILD MIPS\n");
  EXPECT_EQ(wire::decode_hello(p, "BUILD ARMv7\n"), "ARMv7");
  EXPECT_EQ(wire::encode_ping(p), "PING\n");
  EXPECT_EQ(wire::encode_pong(p), "PONG\n");
  EXPECT_TRUE(wire::is_ping(p, "PING"));
  EXPECT_FALSE(wire::is_ping(p, "ping me"));
  expect_known_commands(p, {{T::kUdpFlood, "!* UDP 198.51.100.7 80 30\n"},
                            {T::kStd, "!* STD 198.51.100.7 80 30\n"},
                            {T::kVse, "!* VSE 198.51.100.7 80 30\n"}});
}

TEST(ProfileWire, Daddyl33tTextFramingMatchesProtoByteForByte) {
  const auto p = builtin_profile(proto::Family::kDaddyl33t);
  EXPECT_EQ(wire::encode_hello(p, "bot42"), "l33t LOGIN bot42\n");
  EXPECT_EQ(wire::decode_hello(p, "l33t LOGIN bot42\n"), "bot42");
  EXPECT_FALSE(wire::decode_hello(p, "l33t LOGIN a b\n").has_value());
  EXPECT_EQ(wire::encode_ping(p), ".ping\n");
  EXPECT_EQ(wire::encode_pong(p), ".pong\n");
  expect_known_commands(p, {{T::kUdpFlood, "UDPRAW 198.51.100.7 80 30\n"},
                            {T::kSynFlood, "HYDRASYN 198.51.100.7 80 30\n"},
                            {T::kTls, "TLS 198.51.100.7 80 30\n"},
                            {T::kBlacknurse, "NURSE 198.51.100.7 0 30\n"},
                            {T::kNfo, "NFOV6 198.51.100.7 80 30\n"}});
}

TEST(ProfileWire, VariantDialectIsIncompatibleWithBuiltin) {
  const auto builtin = builtin_profile(proto::Family::kMirai);
  const auto variant = make_variant();
  const auto hs = wire::encode_handshake(variant, "bot");
  EXPECT_NE(hs, wire::encode_handshake(builtin, "bot"));
  EXPECT_FALSE(wire::decode_handshake(builtin, hs).has_value());
  EXPECT_TRUE(wire::decode_handshake(variant, hs).has_value());
}

TEST(ProfileWire, EncodeThrowsForMissingCommandType) {
  const auto p = builtin_profile(proto::Family::kGafgyt);  // no BLACKNURSE
  EXPECT_THROW(
      (void)wire::encode_text_attack(
          p, make_cmd(proto::Family::kGafgyt, proto::AttackType::kBlacknurse)),
      std::invalid_argument);
}

// --- parsing and validation --------------------------------------------------

TEST(ProfileParse, SyntaxErrorsCarryLineAndColumn) {
  ParseIssue issue;
  EXPECT_FALSE(parse_profile("{\n  \"family\": \"Mirai\",\n  oops\n}", &issue)
                   .has_value());
  EXPECT_EQ(issue.line, 3);
  EXPECT_GT(issue.column, 0);
  EXPECT_NE(issue.render().find("line 3"), std::string::npos) << issue.render();
}

TEST(ProfileParse, SchemaErrorsNameTheField) {
  const struct {
    const char* text;
    const char* field;
  } cases[] = {
      {R"({"name": "x"})", "family"},
      {R"({"family": "NoSuchFamily"})", "family"},
      {R"({"family": "Gafgyt", "marker": "x", "framing": "warp"})", "framing"},
      {R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "single",
           "binary": {"handshake_magic": 1}, "surprise": 3})",
       "surprise"},
      {R"({"family": "VPNFilter", "marker": "x", "framing": "tls-beacon", "topology": "single",
           "tls": {"client_hello": "zz", "server_hello": "16", "beacon": "17",
                   "peer_id": "p"}})",
       "tls.client_hello"},
  };
  for (const auto& c : cases) {
    ParseIssue issue;
    ASSERT_FALSE(parse_profile(c.text, &issue).has_value()) << c.text;
    EXPECT_EQ(issue.field, c.field) << issue.render();
  }
}

TEST(ProfileParse, AmbiguousFramingIsRejected) {
  // A profile declaring text framing but carrying a binary section is
  // ambiguous — two grammars could plausibly apply — and must be rejected,
  // not resolved by precedence.
  ParseIssue issue;
  const auto r = parse_profile(
      R"({"family": "Gafgyt", "marker": "x", "framing": "text", "topology": "single",
          "binary": {"handshake_magic": 1},
          "text": {"hello": ["BUILD"], "ping": "PING", "pong": "PONG",
                   "attack_prefix": "!*"}})",
      &issue);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(issue.message.find("ambiguous framing"), std::string::npos)
      << issue.render();

  // The converse: framing declared but its section missing.
  EXPECT_FALSE(parse_profile(
                   R"({"family": "Mirai", "marker": "x", "framing": "binary",
                       "topology": "single"})",
                   &issue)
                   .has_value());
  EXPECT_NE(issue.message.find("missing section"), std::string::npos)
      << issue.render();
}

TEST(ProfileParse, ValidationRejectsBadProfiles) {
  const char* bad[] = {
      // keepalive bounds inverted
      R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "fallback",
          "binary": {"handshake_magic": 1},
          "beacon": {"keepalive_min_s": 90, "keepalive_max_s": 45}})",
      // p2p family with centralised framing
      R"({"family": "Mozi", "marker": "x", "framing": "binary", "topology": "single",
          "binary": {"handshake_magic": 1}})",
      // p2p framing with commands
      R"({"family": "Hajime", "marker": "x", "framing": "p2p", "topology": "p2p",
          "commands": [{"type": "UDP Flood", "vector": 0}]})",
      // duplicate keyword (case-insensitive grammar)
      R"({"family": "Gafgyt", "marker": "x", "framing": "text", "topology": "fallback",
          "text": {"hello": ["BUILD"], "hello_arg": "rest",
                   "hello_sends": "arch", "ping": "PING", "pong": "PONG",
                   "attack_prefix": "!*"},
          "commands": [{"type": "UDP Flood", "keyword": "UDP"},
                       {"type": "STD Flood", "keyword": "udp"}]})",
      // attacker quota without any commands to issue
      R"({"family": "VPNFilter", "marker": "x", "framing": "tls-beacon", "topology": "single",
          "tls": {"client_hello": "16", "server_hello": "16", "beacon": "17",
                  "peer_id": "p"},
          "plan": {"attacker_quota": 3}})",
      // extra fallbacks on a single-C2 topology
      R"({"family": "Mirai", "marker": "x", "framing": "binary", "topology": "single",
          "binary": {"handshake_magic": 1}, "fallback": {"extra": 2}})",
  };
  for (const auto* text : bad) {
    ParseIssue issue;
    EXPECT_FALSE(parse_profile(text, &issue).has_value()) << text;
  }
}

// --- registry ----------------------------------------------------------------

TEST(ProfileRegistry, BuiltinRegistryServesEveryFamily) {
  const auto& reg = Registry::builtin();
  EXPECT_EQ(reg.all().size(), proto::kFamilyCount);
  for (std::size_t i = 0; i < proto::kFamilyCount; ++i) {
    const auto f = static_cast<proto::Family>(i);
    const auto* p = reg.active(f);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, f);
    EXPECT_EQ(p->name, proto::to_string(f));
  }
  EXPECT_EQ(reg.by_name("no-such"), nullptr);
}

TEST(ProfileRegistry, LoadingBuiltinDumpKeepsSetHash) {
  const testkit::ScratchDir dir("reg_dump");
  write_builtin_dump(dir);
  Registry reg;
  const auto before = reg.set_hash();
  ASSERT_FALSE(reg.load_dir(dir.path()).has_value());
  EXPECT_EQ(reg.set_hash(), before);
  EXPECT_EQ(reg.set_hash(), Registry::builtin().set_hash());
}

TEST(ProfileRegistry, LoadedVariantChangesSetHashAndResolvesByName) {
  Registry reg;
  const auto before = reg.set_hash();
  const testkit::ScratchDir dir("variant");
  const auto path = dir.file("variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());
  EXPECT_NE(reg.set_hash(), before);
  const auto* v = reg.by_name("mirai-fallback");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->handshake_magic, 2u);
  EXPECT_EQ(v->extra_fallbacks, 2);
  // The family's *active* profile is still the builtin.
  EXPECT_EQ(reg.active(proto::Family::kMirai)->name, "Mirai");
}

TEST(ProfileRegistry, LoadErrorsCarryPathAndContext) {
  Registry reg;
  const auto before = reg.set_hash();
  const testkit::ScratchDir dir("broken");
  const auto path = dir.file("broken.json");
  write_text(path, "{\"family\": \"Mirai\",,}");
  const auto err = reg.load_file(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find(path), std::string::npos) << *err;
  EXPECT_NE(err->find("line"), std::string::npos) << *err;
  EXPECT_EQ(reg.set_hash(), before) << "failed load must not mutate the registry";
  EXPECT_TRUE(reg.load_file(dir.file("absent.json")).has_value());
}

// --- world planning ----------------------------------------------------------

TEST(ProfileWorld, VariantRoutingReachesPlanAndForgedBinaries) {
  Registry reg;
  const testkit::ScratchDir dir("world_variant");
  const auto path = dir.file("world_variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::WorldConfig wc;
  wc.total_samples = 80;
  wc.profiles = &reg;
  wc.variant_name = "mirai-fallback";
  wc.variant_fraction = 1.0;
  botnet::World world(net, wc);

  std::size_t mirai_c2s = 0;
  for (const auto& c2 : world.c2_plan()) {
    if (c2.cfg.family != proto::Family::kMirai) continue;
    ++mirai_c2s;
    ASSERT_NE(c2.cfg.profile, nullptr);
    EXPECT_EQ(c2.cfg.profile->name, "mirai-fallback");
  }
  EXPECT_GT(mirai_c2s, 0u);

  // Forged Mirai binaries carry the variant name and up to two extra
  // fallback C2s; the extras are real planned servers.
  std::size_t variant_bins = 0, with_extras = 0;
  for (const auto& s : world.samples()) {
    if (s.truth_family != proto::Family::kMirai || s.truth_corrupt) continue;
    const auto parsed = mal::parse(s.binary);
    if (!parsed) continue;
    if (parsed->behavior.profile_name == "mirai-fallback") ++variant_bins;
    EXPECT_LE(parsed->behavior.extra_c2.size(), 2u);
    if (!parsed->behavior.extra_c2.empty()) {
      ++with_extras;
      for (const auto& ep : parsed->behavior.extra_c2) {
        EXPECT_NE(world.find_c2(net::to_string(ep.ip)), nullptr);
      }
    }
  }
  EXPECT_GT(variant_bins, 0u);
  EXPECT_GT(with_extras, 0u);
}

TEST(ProfileWorld, UnknownOrInvalidVariantConfigThrows) {
  sim::EventScheduler sched;
  sim::Network net{sched};
  botnet::WorldConfig wc;
  wc.total_samples = 10;
  wc.variant_name = "no-such-profile";
  wc.variant_fraction = 0.5;
  EXPECT_THROW(botnet::World(net, wc), std::invalid_argument);

  botnet::WorldConfig p2p;
  p2p.total_samples = 10;
  p2p.variant_name = "Mozi";  // p2p profiles cannot route the C2 planner
  p2p.variant_fraction = 0.5;
  EXPECT_THROW(botnet::World(net, p2p), std::invalid_argument);

  botnet::WorldConfig frac;
  frac.total_samples = 10;
  frac.variant_name = "Mirai";
  frac.variant_fraction = 1.5;
  EXPECT_THROW(botnet::World(net, frac), std::invalid_argument);
}

// --- golden study byte-identity ---------------------------------------------

TEST(ProfileGolden, LoadedBuiltinsReproduceStudyByteForByte) {
  const testkit::ScratchDir dir("golden_dump");
  write_builtin_dump(dir);
  for (const int shards : {1, 2}) {
    core::ParallelStudyConfig base;
    base.base.seed = 22;
    base.base.world.total_samples = 40;
    base.base.run_probe_campaign = false;
    base.shards = shards;
    base.jobs = shards;
    const auto baseline =
        report::serialize_datasets(core::ParallelStudy(base).run());

    auto reg = std::make_shared<Registry>();
    ASSERT_FALSE(reg->load_dir(dir.path()).has_value());
    auto loaded = base;
    loaded.base.profiles = reg;
    const auto with_profiles =
        report::serialize_datasets(core::ParallelStudy(loaded).run());
    EXPECT_EQ(with_profiles, baseline) << "shards=" << shards;
  }
}

// --- analyst decoding of a variant dialect -------------------------------------

TEST(ProfileStudy, RenamedVerbVariantIsDecodedByItsOwnProfile) {
  // A data-only Daddyl33t fork with all five verbs renamed, carrying every
  // Daddyl33t C2 of the study. Method (a) decodes through the study's
  // registry, so the variant's commands are recovered from its profile and
  // the study records exactly as many attacks as the builtin dialect's.
  auto v2 = builtin_profile(proto::Family::kDaddyl33t);
  v2.name = "daddyl33t-v2";
  v2.commands = {{proto::AttackType::kUdpFlood, 0, "UDPX"},
                 {proto::AttackType::kSynFlood, 0, "SYNX"},
                 {proto::AttackType::kTls, 0, "TLSX"},
                 {proto::AttackType::kBlacknurse, 0, "NURSEX"},
                 {proto::AttackType::kNfo, 0, "NFOX"}};
  const testkit::ScratchDir dir("renamed_verbs");
  write_text(dir.file("daddyl33t-v2.json"), v2.to_pretty_json());
  auto reg = std::make_shared<Registry>();
  ASSERT_FALSE(reg->load_dir(dir.path()).has_value());

  core::ParallelStudyConfig base;
  base.base.seed = 22;
  base.base.run_probe_campaign = false;
  const auto builtin = core::ParallelStudy(base).run();
  auto cfg = base;
  cfg.base.profiles = reg;
  cfg.base.world.variant_name = "daddyl33t-v2";
  cfg.base.world.variant_fraction = 1.0;
  const auto variant = core::ParallelStudy(cfg).run();

  ASSERT_FALSE(builtin.d_ddos.empty());
  EXPECT_EQ(variant.d_ddos.size(), builtin.d_ddos.size());
  int in_variant_dialect = 0;
  for (const auto& r : variant.d_ddos) {
    const auto& cmd = r.detection.command;
    EXPECT_EQ(r.detection.method, core::DdosMethod::kProtocolProfile) << cmd.summary();
    if (wire::decode_text_attack(v2, util::to_string(cmd.raw))) ++in_variant_dialect;
  }
  EXPECT_GT(in_variant_dialect, 0);
}

// --- variant end-to-end (C2 server <-> sandboxed bot) ------------------------

TEST(ProfileEndToEnd, VariantBotSpeaksVariantDialectOnly) {
  Registry reg;
  const testkit::ScratchDir dir("e2e_variant");
  const auto path = dir.file("e2e_variant.json");
  write_text(path, make_variant().to_pretty_json());
  ASSERT_FALSE(reg.load_file(path).has_value());

  mal::MbfBinary bin;
  bin.behavior.family = proto::Family::kMirai;
  bin.behavior.profile_name = "mirai-fallback";
  bin.behavior.bot_id = "vbot";
  bin.behavior.c2_ip = net::Ipv4{60, 1, 1, 1};
  bin.behavior.c2_port = 23;
  util::Rng forge_rng(5);
  const auto binary = mal::forge(bin, forge_rng);

  const auto run_against = [&](const FamilyProfile* server_profile) {
    sim::EventScheduler sched;
    sim::Network net{sched};
    botnet::C2ServerConfig cfg;
    cfg.family = proto::Family::kMirai;
    cfg.ip = net::Ipv4{60, 1, 1, 1};
    cfg.port = 23;
    cfg.accept_prob = 1.0;
    cfg.profile = server_profile;
    cfg.attack_plan = {make_cmd(proto::Family::kMirai, proto::AttackType::kUdpFlood)};
    botnet::C2Server server(net, cfg, util::Rng(7));

    emu::SandboxConfig sc;
    sc.profiles = &reg;
    emu::Sandbox sandbox(net, sc);
    emu::SandboxOptions opts;
    opts.mode = emu::SandboxMode::kLive;
    opts.duration = sim::Duration::minutes(40);
    opts.allowed_c2 = net::Endpoint{{60, 1, 1, 1}, 23};
    emu::SandboxReport report;
    sandbox.start(binary, opts, [&](const emu::SandboxReport& r) { report = r; });
    sched.run_until(sched.now() + opts.duration + sim::Duration::minutes(1));
    return report;
  };

  // Against a variant-profile server the bot registers and receives the
  // command; against the builtin server the magic-2 handshake is rejected.
  const auto ok = run_against(reg.by_name("mirai-fallback"));
  EXPECT_GE(ok.commands.size(), 1u);
  const auto refused = run_against(nullptr);
  EXPECT_EQ(refused.commands.size(), 0u);
}

// --- behaviour-spec wire extensions ------------------------------------------

TEST(ProfileBehavior, SpecRoundTripsProfileNameAndExtraC2) {
  mal::BehaviorSpec spec;
  spec.family = proto::Family::kMirai;
  spec.bot_id = "b";
  spec.c2_ip = net::Ipv4{60, 1, 1, 1};
  spec.c2_port = 23;
  const auto plain = mal::encode_behavior(spec);

  spec.profile_name = "mirai-fallback";
  spec.extra_c2 = {{net::Ipv4{61, 1, 1, 1}, 23}, {net::Ipv4{62, 1, 1, 1}, 24}};
  const auto extended = mal::encode_behavior(spec);
  EXPECT_GT(extended.size(), plain.size());

  const auto back = mal::decode_behavior(extended);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->profile_name, "mirai-fallback");
  ASSERT_EQ(back->extra_c2.size(), 2u);
  EXPECT_EQ(back->extra_c2[1].port, 24);

  // Default-valued fields add no bytes: pre-profile binaries stay valid
  // and new encodes of plain specs are byte-identical to old ones.
  const auto plain_back = mal::decode_behavior(plain);
  ASSERT_TRUE(plain_back.has_value());
  EXPECT_TRUE(plain_back->profile_name.empty());
  EXPECT_TRUE(plain_back->extra_c2.empty());
}

// --- fuzz --------------------------------------------------------------------

TEST(ProfileFuzz, ParserNeverCrashesNorAcceptsInvalid) {
  const auto corpus = testkit::corpus_inputs("profile_");
  ASSERT_FALSE(corpus.empty());
  const testkit::Mutator mutator;
  testkit::CheckConfig cfg;
  cfg.cases = 5'000;
  cfg.name = "profile parse no-crash";
  const auto inputs =
      testkit::apply(
          [&corpus](std::uint64_t pick, int which, util::Bytes noise) {
            return which == 0 ? noise : corpus[pick % corpus.size()];
          },
          testkit::ints<std::uint64_t>(0, 1'000'000), testkit::ints<int>(0, 7),
          testkit::byte_strings(0, 512))
          .map([&mutator](util::Bytes base) {
            util::Rng mrng(util::fnv1a64(util::to_hex(base)), 17);
            return mutator.mutate(base, mrng);
          });
  const auto r = testkit::check(
      inputs,
      [](const util::Bytes& data) {
        ParseIssue issue;
        const auto p = parse_profile(
            std::string_view(reinterpret_cast<const char*>(data.data()),
                             data.size()),
            &issue);
        // Anything that parses must be a fully valid profile — the parser
        // must never hand consumers a profile validate() would reject.
        return !p.has_value() || !p->validate().has_value();
      },
      cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}
