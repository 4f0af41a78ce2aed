// src/proto (family ids, the attack taxonomy, IRC and P2P framing) and the
// C2 dialect codecs of profile::wire, parametrised over every dialect, with
// known-answer cases for the builtin families.
#include <gtest/gtest.h>

#include <set>

#include "dialects.hpp"
#include "proto/attack.hpp"
#include "proto/family.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"

using namespace malnet;
using namespace malnet::proto;
namespace wire = malnet::profile::wire;

namespace {

AttackCommand command(AttackType type, net::Endpoint target, std::uint32_t secs = 30) {
  AttackCommand cmd;
  cmd.type = type;
  cmd.target = target;
  cmd.duration_s = secs;
  return cmd;
}

}  // namespace

// --- family ------------------------------------------------------------------

TEST(Family, StringRoundTrip) {
  for (int f = 0; f < kFamilyCount; ++f) {
    const auto fam = static_cast<Family>(f);
    const auto parsed = family_from_string(to_string(fam));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, fam);
  }
  EXPECT_FALSE(family_from_string("WannaCry"));
  EXPECT_TRUE(family_from_string("mirai"));  // case-insensitive
}

TEST(Family, P2pClassification) {
  EXPECT_TRUE(is_p2p(Family::kMozi));
  EXPECT_TRUE(is_p2p(Family::kHajime));
  EXPECT_FALSE(is_p2p(Family::kMirai));
  EXPECT_FALSE(is_p2p(Family::kVpnFilter));
}

// --- attack taxonomy -----------------------------------------------------------

TEST(Attack, ProtocolBuckets) {
  EXPECT_EQ(attack_protocol(AttackType::kUdpFlood, 8080), AttackProtocol::kUdp);
  EXPECT_EQ(attack_protocol(AttackType::kUdpFlood, 53), AttackProtocol::kDns);
  EXPECT_EQ(attack_protocol(AttackType::kSynFlood, 80), AttackProtocol::kTcp);
  EXPECT_EQ(attack_protocol(AttackType::kStomp, 61613), AttackProtocol::kTcp);
  EXPECT_EQ(attack_protocol(AttackType::kBlacknurse, 0), AttackProtocol::kIcmp);
  EXPECT_EQ(attack_protocol(AttackType::kVse, 27015), AttackProtocol::kUdp);
}

TEST(Attack, GamingTypes) {
  // §5: "two types of attacks targeting gaming servers" — VSE and NFO.
  int gaming = 0;
  for (int t = 0; t < kAttackTypeCount; ++t) {
    if (is_gaming_attack(static_cast<AttackType>(t))) ++gaming;
  }
  EXPECT_EQ(gaming, 2);
  EXPECT_TRUE(is_gaming_attack(AttackType::kVse));
  EXPECT_TRUE(is_gaming_attack(AttackType::kNfo));
}

TEST(Attack, FamilyRepertoires) {
  // Figure 11: Mirai 5 types, Daddyl33t 5 (most diverse incl. NURSE/NFO),
  // Gafgyt 3; together they cover all 8. Only these three attack.
  const auto& reg = profile::Registry::builtin();
  std::set<AttackType> all;
  for (const Family f : {Family::kMirai, Family::kGafgyt, Family::kDaddyl33t}) {
    for (const auto t : reg.active(f)->command_types()) all.insert(t);
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kAttackTypeCount));
  EXPECT_EQ(reg.active(Family::kMirai)->commands.size(), 5u);
  EXPECT_EQ(reg.active(Family::kGafgyt)->commands.size(), 3u);
  EXPECT_EQ(reg.active(Family::kDaddyl33t)->commands.size(), 5u);
  for (const Family f : {Family::kTsunami, Family::kMozi, Family::kHajime,
                         Family::kVpnFilter}) {
    EXPECT_EQ(reg.active(f)->attacker_quota, 0) << to_string(f);
  }
  EXPECT_TRUE(reg.active(Family::kMozi)->commands.empty());
}

TEST(Attack, KeywordMappingsInvertible) {
  for (const auto* p : dialects::all()) {
    for (const auto& c : p->commands) {
      const auto* back =
          dialects::is_binary(*p) ? p->by_vector(c.vector) : p->by_keyword(c.keyword);
      EXPECT_EQ(back, &c) << p->name;
      EXPECT_EQ(p->by_type(c.type), &c) << p->name;
    }
  }
  const auto& reg = profile::Registry::builtin();
  EXPECT_EQ(reg.active(Family::kGafgyt)->by_type(AttackType::kBlacknurse), nullptr);
  EXPECT_EQ(reg.active(Family::kMirai)->by_vector(99), nullptr);
}

// --- C2 dialect codecs (profile::wire), one law per test over every dialect --
// The round-trip and no-crash laws live in test_fuzz_proto (DialectLaw).

class DialectCodec : public ::testing::TestWithParam<std::string> {
 protected:
  const profile::FamilyProfile& p() const { return dialects::get(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Dialects, DialectCodec, ::testing::ValuesIn(dialects::names()),
                         dialects::test_name);

TEST_P(DialectCodec, KeepalivesAreRecognised) {
  if (dialects::is_binary(p())) {
    EXPECT_TRUE(wire::is_keepalive(wire::encode_keepalive()));
    EXPECT_FALSE(wire::is_keepalive(util::from_hex("0001")));
  } else {
    EXPECT_TRUE(wire::is_ping(p(), wire::encode_ping(p())));
    EXPECT_TRUE(wire::is_pong(p(), wire::encode_pong(p())));
    EXPECT_FALSE(wire::is_ping(p(), wire::encode_pong(p())));
    EXPECT_FALSE(wire::is_ping(p(), p().ping_word + " yes"));
  }
}

TEST_P(DialectCodec, EncodeRejectsForeignTypes) {
  for (int t = 0; t < kAttackTypeCount; ++t) {
    const auto type = static_cast<AttackType>(t);
    if (p().by_type(type) != nullptr) continue;
    EXPECT_THROW((void)dialects::encode_attack(p(), command(type, {})),
                 std::invalid_argument)
        << to_string(type);
  }
}

TEST_P(DialectCodec, DecodeRejectsMalformed) {
  const auto cmd = command(p().commands.front().type, {net::Ipv4{1, 2, 3, 4}, 80}, 10);
  if (dialects::is_binary(p())) {
    // Keepalive, short body, truncated body.
    for (const char* hex : {"0000", "0001 00", "00ff 00"}) {
      EXPECT_FALSE(wire::decode_binary_attack(p(), util::from_hex(hex))) << hex;
    }
    auto frame = wire::encode_binary_attack(p(), cmd);
    frame[6] = 99;  // unknown vector id
    EXPECT_FALSE(wire::decode_binary_attack(p(), frame));
    auto hello = wire::encode_handshake(p(), "aa");
    hello[4] = 5;  // id_len 5, two id bytes
    EXPECT_FALSE(wire::decode_handshake(p(), hello));
    hello = wire::encode_handshake(p(), "x");
    hello.push_back(0);  // trailing garbage
    EXPECT_FALSE(wire::decode_handshake(p(), hello));
    return;
  }
  const std::string line = wire::encode_text_attack(p(), cmd);  // "... 1.2.3.4 80 10\n"
  const auto with = [&line](const std::string& from, const std::string& to) {
    const auto at = line.find(from);
    return line.substr(0, at) + to + line.substr(at + from.size());
  };
  std::vector<std::string> bad = {
      with(" 10\n", "\n"),                                     // missing time
      with(p().commands.front().keyword, "NOSUCHVERB"),        // foreign verb
      with("1.2.3.4", "1.2.3.999"), with(" 80 ", " 99999 ")};  // bad ip, bad port
  if (p().attack_prefix.empty()) {
    bad.push_back("!* " + line);  // a prefix it does not take
  } else {
    bad.push_back(with(p().attack_prefix + " ", ""));     // missing prefix
    bad.push_back(with(p().attack_prefix + " ", "!! "));  // wrong prefix
  }
  for (const auto& malformed : bad) {
    EXPECT_FALSE(wire::decode_text_attack(p(), malformed)) << malformed;
  }
  const auto hello = wire::encode_hello(p(), "bot42");
  EXPECT_FALSE(wire::decode_hello(p(), "HELLO" + hello.substr(hello.find(' '))));
}

TEST_P(DialectCodec, OtherDialectsNeverMisreadIt) {
  // Every other dialect rejects this one's hello, and reads its commands
  // identically or not at all (§2.5a): the DDoS decoder may therefore
  // attribute a command to the first dialect that decodes it.
  const auto hello = dialects::encode_hello(p(), "bot42");
  for (const auto* q : dialects::all()) {
    if (q != &p()) {
      EXPECT_FALSE(dialects::decode_hello(*q, hello)) << q->name;
    }
    for (const auto type : p().command_types()) {
      const auto bytes = dialects::encode_attack(p(), command(type, {{1, 2, 3, 4}, 80}));
      if (const auto read = dialects::decode_attack(*q, bytes)) {
        EXPECT_EQ(dialects::encode_attack(*q, *read), bytes) << q->name << " misreads it";
      }
    }
  }
}

// --- builtin dialects: known answers ------------------------------------------
// Concrete cases of the laws above, on the dialect each family speaks unless
// a study loads profiles.

namespace {

const profile::FamilyProfile& builtin(Family f) {
  return *profile::Registry::builtin().active(f);
}

}  // namespace

TEST(Mirai, HandshakeRoundTrip) {
  const auto& mirai = builtin(Family::kMirai);
  const auto hs = wire::decode_handshake(mirai, wire::encode_handshake(mirai, "mips.bot.7"));
  ASSERT_TRUE(hs);
  EXPECT_EQ(hs->bot_id, "mips.bot.7");
}

TEST(Mirai, HandshakeRejectsJunk) {
  const auto& mirai = builtin(Family::kMirai);
  EXPECT_FALSE(wire::decode_handshake(mirai, util::from_hex("00000002 00")));  // magic 2
  EXPECT_FALSE(wire::decode_handshake(mirai, util::from_hex("00000001 05 6161")));
  auto hello = wire::encode_handshake(mirai, "x");
  hello.push_back(0);  // trailing garbage
  EXPECT_FALSE(wire::decode_handshake(mirai, hello));
}

TEST(Mirai, Keepalive) {
  EXPECT_TRUE(wire::is_keepalive(wire::encode_keepalive()));
  EXPECT_FALSE(wire::is_keepalive(util::from_hex("0001")));
}

TEST(Mirai, AttackCommandRoundTrip) {
  const auto& mirai = builtin(Family::kMirai);
  const auto cmd = command(AttackType::kSynFlood, {net::Ipv4{203, 0, 113, 9}, 443}, 120);
  const auto frame = wire::encode_binary_attack(mirai, cmd);
  const auto decoded = wire::decode_binary_attack(mirai, frame);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->type, AttackType::kSynFlood);
  EXPECT_EQ(decoded->target, cmd.target);
  EXPECT_EQ(decoded->duration_s, 120u);
  EXPECT_EQ(decoded->family, Family::kMirai);
  EXPECT_EQ(decoded->raw, frame);
}

TEST(Mirai, AttackWithoutPortOption) {
  const auto& mirai = builtin(Family::kMirai);
  const auto decoded = wire::decode_binary_attack(
      mirai,
      wire::encode_binary_attack(mirai, command(AttackType::kUdpFlood, {{1, 2, 3, 4}, 0})));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->target.port, 0);
}

TEST(Mirai, EncodeRejectsForeignTypes) {
  const auto cmd = command(AttackType::kBlacknurse, {});  // Daddyl33t-only
  EXPECT_THROW((void)wire::encode_binary_attack(builtin(Family::kMirai), cmd),
               std::invalid_argument);
}

TEST(Mirai, DecodeRejectsMalformedFrames) {
  const auto& mirai = builtin(Family::kMirai);
  EXPECT_FALSE(wire::decode_binary_attack(mirai, util::from_hex("0000")));     // keepalive
  EXPECT_FALSE(wire::decode_binary_attack(mirai, util::from_hex("0001 00")));  // short body
  EXPECT_FALSE(wire::decode_binary_attack(mirai, util::from_hex("00ff 00")));  // truncated
  auto frame =
      wire::encode_binary_attack(mirai, command(AttackType::kUdpFlood, {{1, 2, 3, 4}, 80}));
  frame[6] = 99;  // unknown vector id
  EXPECT_FALSE(wire::decode_binary_attack(mirai, frame));
}

TEST(Gafgyt, HelloRoundTrip) {
  const auto& gafgyt = builtin(Family::kGafgyt);
  const auto arch = wire::decode_hello(gafgyt, wire::encode_hello(gafgyt, "MIPS"));
  ASSERT_TRUE(arch);
  EXPECT_EQ(*arch, "MIPS");
  EXPECT_FALSE(wire::decode_hello(gafgyt, "HELLO MIPS"));
}

TEST(Gafgyt, PingPong) {
  const auto& gafgyt = builtin(Family::kGafgyt);
  EXPECT_TRUE(wire::is_ping(gafgyt, "PING\n"));
  EXPECT_TRUE(wire::is_pong(gafgyt, "PONG\n"));
  EXPECT_FALSE(wire::is_ping(gafgyt, "PING yes"));
}

TEST(Gafgyt, AttackRoundTrip) {
  const auto& gafgyt = builtin(Family::kGafgyt);
  const auto cmd = command(AttackType::kStd, {net::Ipv4{198, 51, 100, 7}, 9999}, 60);
  const auto line = wire::encode_text_attack(gafgyt, cmd);
  EXPECT_EQ(line, "!* STD 198.51.100.7 9999 60\n");
  const auto decoded = wire::decode_text_attack(gafgyt, line);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->type, AttackType::kStd);
  EXPECT_EQ(decoded->target, cmd.target);
  EXPECT_EQ(decoded->family, Family::kGafgyt);
}

TEST(Gafgyt, DecodeRejectsMalformed) {
  const auto& gafgyt = builtin(Family::kGafgyt);
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, "!* UDP 1.2.3.4 80"));          // missing time
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, "!* HYDRASYN 1.2.3.4 80 10"));  // foreign verb
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, "UDP 1.2.3.4 80 10"));          // no prefix
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, "!* UDP 1.2.3.999 80 10"));     // bad ip
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, "!* UDP 1.2.3.4 99999 10"));    // bad port
}

TEST(Daddyl33t, LoginRoundTrip) {
  const auto& daddyl33t = builtin(Family::kDaddyl33t);
  const auto id = wire::decode_hello(daddyl33t, wire::encode_hello(daddyl33t, "bot42"));
  ASSERT_TRUE(id);
  EXPECT_EQ(*id, "bot42");
  EXPECT_FALSE(wire::decode_hello(daddyl33t, "LOGIN bot42"));
}

TEST(Daddyl33t, AttackRoundTripAllVerbs) {
  const auto& daddyl33t = builtin(Family::kDaddyl33t);
  for (const auto type : daddyl33t.command_types()) {
    const net::Port port = type == AttackType::kBlacknurse ? 0 : 4567;
    const auto cmd = command(type, {net::Ipv4{192, 0, 2, 55}, port}, 45);
    const auto decoded =
        wire::decode_text_attack(daddyl33t, wire::encode_text_attack(daddyl33t, cmd));
    ASSERT_TRUE(decoded) << to_string(type);
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->target, cmd.target);
    EXPECT_EQ(decoded->family, Family::kDaddyl33t);
  }
}

TEST(Daddyl33t, GrammarIsDistinctFromGafgyt) {
  // The same UDP attack encodes differently per family profile (§2.5a).
  const auto& daddyl33t = builtin(Family::kDaddyl33t);
  const auto& gafgyt = builtin(Family::kGafgyt);
  const auto cmd = command(AttackType::kUdpFlood, {{1, 2, 3, 4}, 80});
  const auto ours = wire::encode_text_attack(daddyl33t, cmd);
  const auto theirs = wire::encode_text_attack(gafgyt, cmd);
  EXPECT_NE(ours, theirs);
  EXPECT_FALSE(wire::decode_text_attack(gafgyt, ours));
  EXPECT_FALSE(wire::decode_text_attack(daddyl33t, theirs));
}

// --- IRC (Tsunami) -------------------------------------------------------------

TEST(Irc, ParseFullMessage) {
  const auto msg = irc::parse(":server.example 001 bot :Welcome\r\n");
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->prefix, "server.example");
  EXPECT_EQ(msg->command, "001");
  ASSERT_EQ(msg->params.size(), 1u);
  EXPECT_EQ(msg->params[0], "bot");
  EXPECT_EQ(msg->trailing, "Welcome");
}

TEST(Irc, SerializeParseRoundTrip) {
  for (const auto& msg :
       {irc::nick("bot1"), irc::user("bot1"), irc::join("#tsunami"),
        irc::privmsg("#tsunami", "hello world"), irc::ping("tok"), irc::pong("tok")}) {
    const auto parsed = irc::parse(msg.serialize());
    ASSERT_TRUE(parsed) << msg.serialize();
    EXPECT_EQ(parsed->command, msg.command);
    EXPECT_EQ(parsed->params, msg.params);
    EXPECT_EQ(parsed->trailing, msg.trailing);
  }
}

TEST(Irc, ParseRejectsEmpty) {
  EXPECT_FALSE(irc::parse(""));
  EXPECT_FALSE(irc::parse("\r\n"));
  EXPECT_FALSE(irc::parse(":prefixonly"));
}

// --- P2P (Mozi/Hajime) ----------------------------------------------------------

TEST(P2p, PingRoundTrip) {
  const p2p::DhtPing ping{std::string(20, 'N'), "ab"};
  const auto wire = p2p::encode_ping(ping);
  const auto decoded = p2p::decode_ping(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->node_id, ping.node_id);
  EXPECT_EQ(decoded->txn, "ab");
  EXPECT_TRUE(p2p::looks_like_dht(wire));
}

TEST(P2p, PongLooksLikeDht) {
  const auto wire = p2p::encode_pong({std::string(20, 'M'), "xy"});
  EXPECT_TRUE(p2p::looks_like_dht(wire));
  EXPECT_FALSE(p2p::decode_ping(wire));  // pong is not a ping
}

TEST(P2p, ValidationAndJunk) {
  EXPECT_THROW((void)p2p::encode_ping({"short", "ab"}), std::invalid_argument);
  EXPECT_THROW((void)p2p::encode_ping({std::string(20, 'N'), "abc"}),
               std::invalid_argument);
  EXPECT_FALSE(p2p::looks_like_dht(util::to_bytes("GET / HTTP/1.1")));
  EXPECT_FALSE(p2p::decode_ping(util::to_bytes("d1:ad2:id20:short")));
}
