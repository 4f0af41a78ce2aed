// Property-based tests for every C2 wire codec: the profile::wire dialects
// (parametrised over every binary/text profile, see dialects.hpp) and the
// IRC and P2P framings in src/proto.
//
//   round-trip laws   decode(encode(x)) == x for randomly generated
//                     commands/messages of each dialect
//   no-crash laws     decoders fed random buffers and structure-aware
//                     mutations of the committed corpus must return a clean
//                     error (nullopt/false), never throw or OOB-read (the
//                     ASan CI job verifies the latter)
//   error paths       explicit empty/1-byte/max-length-field regressions
//
// Failures print a seed; rerun with MALNET_CHECK_SEED=<seed> to reproduce.
#include <gtest/gtest.h>

#include "dialects.hpp"
#include "proto/attack.hpp"
#include "proto/irc.hpp"
#include "proto/p2p.hpp"
#include "testkit/testkit.hpp"
#include "util/str.hpp"

using namespace malnet;
using namespace malnet::proto;
using namespace malnet::testkit;
namespace wire = malnet::profile::wire;

namespace {

constexpr int kRoundTripCases = 1000;
constexpr int kNoCrashCases = 10'000;

Gen<net::Ipv4> ipv4s() {
  return apply(
      [](std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
        return net::Ipv4{a, b, c, d};
      },
      any_byte(), any_byte(), any_byte(), any_byte());
}

/// A valid AttackCommand for dialect `p`, drawing only from its repertoire.
/// ICMP-borne attacks carry port 0 like the real commands do, and one
/// command in eight of any type is port-less.
Gen<AttackCommand> attack_commands(const profile::FamilyProfile& p) {
  return apply(
      [family = p.id](AttackType type, net::Ipv4 ip, net::Port port, int portless,
                      std::uint32_t duration) {
        AttackCommand cmd;
        cmd.family = family;
        cmd.type = type;
        const bool icmp = attack_protocol(type, port) == AttackProtocol::kIcmp;
        cmd.target = {ip, icmp || portless == 0 ? net::Port{0} : port};
        cmd.duration_s = duration;
        return cmd;
      },
      one_of(p.command_types()), ipv4s(), ints<net::Port>(1, 0xFFFF), ints<int>(0, 7),
      ints<std::uint32_t>(1, 86'400));
}

bool same_command(const AttackCommand& a, const AttackCommand& b) {
  return a.type == b.type && a.family == b.family && a.target == b.target &&
         a.duration_s == b.duration_s;
}

/// Mutation-fuzz driver: `cases` structure-aware mutants of the corpus
/// entries under `prefix`, plus pure-noise buffers, against `prop`.
template <typename Prop>
CheckResult fuzz_decoder(const std::string& corpus_prefix, Prop prop,
                         std::string name) {
  const auto corpus = corpus_inputs(corpus_prefix);
  const Mutator mutator;
  CheckConfig cfg;
  cfg.cases = kNoCrashCases;
  cfg.name = std::move(name);
  // 7 parts mutated corpus (structure-aware), 1 part pure noise.
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

namespace {

CheckResult attack_round_trip(const profile::FamilyProfile& p) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = p.name + " attack round-trip";
  return check(attack_commands(p),
               [&p](const AttackCommand& cmd) {
                 const auto wire = dialects::encode_attack(p, cmd);
                 const auto decoded = dialects::decode_attack(p, wire);
                 return decoded && same_command(*decoded, cmd) && decoded->raw == wire;
               },
               cfg);
}

CheckResult hello_round_trip(const profile::FamilyProfile& p) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = p.name + " hello round-trip";
  // A binary handshake carries any id up to 255 bytes; a text hello one
  // whitespace-free token.
  const auto ids = dialects::is_binary(p) ? raw_strings(0, 255) : ascii_strings(1, 32);
  return check(ids,
               [&p](const std::string& id) {
                 return dialects::decode_hello(p, dialects::encode_hello(p, id)) == id;
               },
               cfg);
}

/// A family's dialect as the builtin registry, which every study uses unless
/// it loads profiles, resolves it.
const profile::FamilyProfile& builtin(Family f) {
  return *profile::Registry::builtin().active(f);
}

}  // namespace

/// The laws every C2 dialect obeys, one test each, parametrised over the
/// dialects.
class DialectLaw : public ::testing::TestWithParam<std::string> {
 protected:
  const profile::FamilyProfile& p() const { return dialects::get(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Dialects, DialectLaw, ::testing::ValuesIn(dialects::names()),
                         dialects::test_name);

TEST_P(DialectLaw, AttackRoundTrip) {
  const auto r = attack_round_trip(p());
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST_P(DialectLaw, HelloRoundTrip) {
  const auto r = hello_round_trip(p());
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, MiraiAttack) {
  const auto r = attack_round_trip(builtin(Family::kMirai));
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, MiraiHandshake) {
  const auto r = hello_round_trip(builtin(Family::kMirai));
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, GafgytAttack) {
  const auto r = attack_round_trip(builtin(Family::kGafgyt));
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, Daddyl33tAttack) {
  const auto r = attack_round_trip(builtin(Family::kDaddyl33t));
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, IrcPrivmsg) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "irc round-trip";
  const auto gen = apply(
      [](std::string target, std::string text) {
        return irc::privmsg("#" + target, text);
      },
      ascii_strings(1, 24), ascii_strings(1, 64, "abcdefXYZ0123456789 !*._-"));
  const auto r = check(gen,
                       [](const irc::IrcMessage& msg) {
                         const auto parsed = irc::parse(msg.serialize());
                         return parsed && parsed->command == msg.command &&
                                parsed->params == msg.params &&
                                parsed->trailing == msg.trailing;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RoundTrip, P2pMessages) {
  CheckConfig cfg;
  cfg.cases = kRoundTripCases;
  cfg.name = "p2p round-trip";
  const auto gen = apply(
      [](std::string id, std::string txn) {
        return p2p::DhtPing{std::move(id), std::move(txn)};
      },
      ascii_strings(20, 20), ascii_strings(2, 2));
  const auto r = check(gen,
                       [](const p2p::DhtPing& ping) {
                         const auto decoded = p2p::decode_ping(p2p::encode_ping(ping));
                         return decoded && decoded->node_id == ping.node_id &&
                                decoded->txn == ping.txn;
                       },
                       cfg);
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- no-crash laws -----------------------------------------------------------
// Decoders are total functions: any byte buffer produces either a value or a
// clean nullopt/false — never an exception, OOB access, or hang.

TEST_P(DialectLaw, DecodersNeverThrow) {
  // Mutants of the dialect's family corpus ("mirai_" for mirai-fallback).
  const auto corpus = util::to_lower(proto::to_string(p().id)) + "_";
  const auto r = fuzz_decoder(corpus,
                              [this](util::BytesView wire) {
                                (void)dialects::any_decoder_accepts(p(), wire);
                                return true;  // surviving is the property
                              },
                              p().name + " no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, IrcParser) {
  const auto r = fuzz_decoder("irc_",
                              [](util::BytesView wire) {
                                (void)irc::parse(std::string(wire.begin(), wire.end()));
                                return true;
                              },
                              "irc no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(NoCrash, P2pDecoders) {
  const auto r = fuzz_decoder("p2p_",
                              [](util::BytesView wire) {
                                (void)p2p::decode_ping(wire);
                                (void)p2p::looks_like_dht(wire);
                                return true;
                              },
                              "p2p no-crash");
  EXPECT_TRUE(r.ok) << r.summary();
}

// --- error paths -------------------------------------------------------------
// The canonical adversarial minima, as named regression cases: empty input,
// a single byte, and length fields announcing more data than present.

TEST(ErrorPath, EmptyAndOneByteBuffers) {
  const std::vector<util::Bytes> minima = {{}, {0x00}, {0xFF}};
  const auto r = check_each(minima,
                            [](util::BytesView wire) {
                              for (const auto* p : dialects::all()) {
                                if (dialects::any_decoder_accepts(*p, wire)) return false;
                              }
                              return !p2p::decode_ping(wire) &&
                                     !p2p::looks_like_dht(wire);
                            },
                            "proto empty/1-byte");
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(ErrorPath, MiraiMaxLengthFields) {
  for (const auto* p : dialects::all()) {
    if (!dialects::is_binary(*p)) continue;
    SCOPED_TRACE(p->name);
    // Frame length prefix announces 0xFFFF bytes, body absent or short.
    EXPECT_FALSE(wire::decode_binary_attack(*p, util::from_hex("ffff")));
    EXPECT_FALSE(wire::decode_binary_attack(*p, util::from_hex("ffff 00000001 00 01")));
    // Handshake id_len = 255 with a short id.
    auto hs = wire::encode_handshake(*p, "aa");
    hs[4] = 0xFF;
    EXPECT_FALSE(wire::decode_handshake(*p, hs));
    // Option value length announces 255 bytes that are not there.
    // (frame len=14: duration=1s, vector 0, 1 target, 1 option whose value
    //  length byte says 0xFF with no value following)
    EXPECT_FALSE(wire::decode_binary_attack(
        *p, util::from_hex("000e 00000001 00 01 01020304 20 01 07 ff")));
  }
}

TEST(ErrorPath, MiraiRegressionNTargetsOverflow) {
  // Found by the mutator: n_targets = 0xFF with a single-target body must
  // reject cleanly (the per-target skip walks off the end).
  for (const auto* p : dialects::all()) {
    if (!dialects::is_binary(*p)) continue;
    AttackCommand cmd;
    cmd.type = p->commands.front().type;
    cmd.target = {net::Ipv4{203, 0, 113, 9}, 443};
    auto frame = wire::encode_binary_attack(*p, cmd);
    frame[7] = 0xFF;  // n_targets lives after len(2) + duration(4) + vector(1)
    EXPECT_FALSE(wire::decode_binary_attack(*p, frame)) << p->name;
  }
}

TEST(ErrorPath, TextProtocolsHugeNumericFields) {
  // 2^64 overflow and >u16 ports must both reject, not wrap around.
  for (const auto* p : dialects::all()) {
    if (dialects::is_binary(*p)) continue;
    const std::string head = (p->attack_prefix.empty() ? "" : p->attack_prefix + " ") +
                             p->commands.front().keyword;
    for (const char* tail :
         {" 1.2.3.4 80 99999999999999999999\n", " 1.2.3.4 80 18446744073709551616\n",
          " 1.2.3.4 65536 10\n", " 1.2.3.4 99999 10\n"}) {
      EXPECT_FALSE(wire::decode_text_attack(*p, head + tail)) << head + tail;
    }
  }
}
