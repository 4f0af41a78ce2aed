// Declarative family profiles (DESIGN.md §16).
//
// The paper's family-level behaviour — Mirai's binary C2 framing vs
// Gafgyt's text protocol, the command sets each family maps to attack
// programs, beacon cadence, C2 topology — used to live in switch
// statements across proto/, botnet/ and emu/. A FamilyProfile moves those
// tables into data: a small deterministic JSON document (parsed with the
// in-tree obs::json parser) that botnet::C2Server, emu::MalwareProcess and
// botnet::World consume instead of switching on proto::Family. The enum
// survives as an ID; the behaviour is the profile.
//
// builtin_profile(f) is the single source of each family's compiled-in
// behaviour, command tables included; the committed profiles/*.json are
// its canonical dumps (the golden study comparison in
// tests/test_profile.cpp proves loading them changes no output byte).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "proto/attack.hpp"
#include "proto/family.hpp"
#include "util/bytes.hpp"

namespace malnet::profile {

/// How the family frames its C2 dialogue on the wire.
enum class Framing {
  kBinary,     // magic+id handshake, u16-length-framed commands (Mirai lineage)
  kText,       // newline-delimited command lines (Gafgyt lineage)
  kIrc,        // RFC 2812 subset; commands ride PRIVMSG (Tsunami)
  kTlsBeacon,  // canned TLS-looking hello/beacon bytes (VPNFilter)
  kP2p,        // UDP DHT overlay; no TCP C2 at all (Mozi/Hajime)
};

/// The C2 topology the family's samples are built around (§16): a single
/// hard-coded C2, a primary plus a fallback list, or a P2P overlay.
enum class Topology { kSingle, kFallback, kP2p };

[[nodiscard]] std::string to_string(Framing f);
[[nodiscard]] std::optional<Framing> framing_from_string(std::string_view s);
[[nodiscard]] std::string to_string(Topology t);
[[nodiscard]] std::optional<Topology> topology_from_string(std::string_view s);
/// Inverse of proto::to_string(AttackType), case-insensitive.
[[nodiscard]] std::optional<proto::AttackType> attack_type_from_string(
    std::string_view s);

/// One command the family can issue: the behaviour program it maps to
/// (proto::AttackType drives emu::launch_attack) plus its wire spelling —
/// a binary vector id or a text keyword, depending on the framing.
struct Command {
  proto::AttackType type = proto::AttackType::kUdpFlood;
  std::uint8_t vector = 0;  // binary framing: wire vector id
  std::string keyword;      // text/irc framing: command keyword

  bool operator==(const Command&) const = default;
};

struct FamilyProfile {
  proto::Family id = proto::Family::kMirai;  // the enum survives as an ID
  std::string name;    // registry key; builtins use proto::to_string(id)
  std::string marker;  // string embedded in forged binaries (YARA anchor)
  Framing framing = Framing::kBinary;
  Topology topology = Topology::kSingle;

  // --- binary framing ------------------------------------------------------
  std::uint32_t handshake_magic = 1;

  // --- text framing --------------------------------------------------------
  std::vector<std::string> hello_words;  // ["BUILD"] or ["l33t", "LOGIN"]
  /// Hello argument grammar: the trimmed rest of the line (Gafgyt's
  /// "BUILD <anything>") vs exactly one trailing token (Daddyl33t's
  /// "l33t LOGIN <id>").
  bool hello_takes_rest = true;
  /// What the bot sends as the hello argument: its bot id, or its CPU
  /// architecture string.
  bool hello_sends_bot_id = false;
  std::string ping_word = "PING";
  std::string pong_word = "PONG";
  std::string attack_prefix;  // "!*" or "" before "KW ip port secs"

  // --- irc framing ---------------------------------------------------------
  std::string irc_channel;

  // --- tls-beacon framing --------------------------------------------------
  util::Bytes tls_client_hello;
  util::Bytes tls_server_hello;
  util::Bytes tls_beacon;
  std::string tls_peer_id;  // the id the server registers for any hello

  /// Commands in planner draw order: the attack planner indexes this
  /// vector uniformly, so the order is part of the profile's semantics.
  std::vector<Command> commands;

  // --- beacon cadence: per-sample keepalive, drawn uniformly (inclusive) ---
  std::uint32_t keepalive_min_s = 45;
  std::uint32_t keepalive_max_s = 90;

  // --- planner knobs -------------------------------------------------------
  int attacker_quota = 0;   // share of the §5 attacker fleet
  int extra_fallbacks = 0;  // kFallback: fallback C2s beyond the spec's one

  bool operator==(const FamilyProfile&) const = default;

  [[nodiscard]] bool is_text_like() const {
    return framing == Framing::kText || framing == Framing::kIrc;
  }
  [[nodiscard]] const Command* by_type(proto::AttackType t) const;
  [[nodiscard]] const Command* by_vector(std::uint8_t v) const;
  /// Case-insensitive keyword lookup (the text decoders accept any case).
  [[nodiscard]] const Command* by_keyword(std::string_view kw) const;
  [[nodiscard]] std::vector<proto::AttackType> command_types() const;

  /// Schema + cross-reference checks (§16's validation rules): framing
  /// fields consistent and unambiguous, commands well-formed and unique,
  /// cadence bounds sane. Returns a description of the first violation,
  /// prefixed with the offending field path.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Canonical JSON form. obs::json::write renders object keys sorted, so
  /// write(to_json()) is the profile's canonical text.
  [[nodiscard]] obs::json::Value to_json() const;
  /// Indented rendering of the canonical form (what `profile dump` writes).
  [[nodiscard]] std::string to_pretty_json() const;
  /// fnv1a64 over the canonical text — the hash `profile check` prints and
  /// Registry::set_hash folds into study_fingerprint.
  [[nodiscard]] std::uint64_t content_hash() const;
};

/// The compiled-in behaviour of `f` as a profile: its C2 dialect and
/// command tables plus mal::family_marker — the single source of truth the
/// committed profiles/*.json are generated from.
[[nodiscard]] FamilyProfile builtin_profile(proto::Family f);

}  // namespace malnet::profile
