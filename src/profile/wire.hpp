// Profile-parameterised C2 wire codecs: the only implementation of each
// family's C2 dialect. Two message grammars — Mirai-lineage binary frames
// and Gafgyt/Daddyl33t-lineage text lines — are generalised over a
// FamilyProfile; bots, C2 servers and the analyst's DDoS decoder
// (core::detect_ddos) all speak through them. Known-answer frames pinned in
// tests/test_profile.cpp keep the builtin dialects' bytes fixed.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "profile/profile.hpp"
#include "proto/attack.hpp"
#include "util/bytes.hpp"

namespace malnet::profile::wire {

// --- binary framing (Mirai grammar, magic parameterised) -------------------
//
// Bot -> C2 on connect:   u32 magic, u8 id_len, id bytes
// Keepalive (both ways):  u16 0x0000
// C2 -> Bot attack:       u16 len, then len bytes of:
//                           u32 duration_s, u8 vector, u8 n_targets,
//                           n x (u32 ipv4, u8 prefix),
//                           u8 n_opts, n x (u8 key, u8 val_len, bytes)
// Option key 7 is the destination port ("dport" in the Mirai source).

[[nodiscard]] util::Bytes encode_handshake(const FamilyProfile& p,
                                           const std::string& bot_id);
struct Handshake {
  std::string bot_id;
};
[[nodiscard]] std::optional<Handshake> decode_handshake(const FamilyProfile& p,
                                                        util::BytesView wire);

[[nodiscard]] util::Bytes encode_keepalive();
[[nodiscard]] bool is_keepalive(util::BytesView wire);

/// u16-length-framed attack body; vector id from the profile's command
/// table. Throws std::invalid_argument for a type the profile lacks.
[[nodiscard]] util::Bytes encode_binary_attack(const FamilyProfile& p,
                                               const proto::AttackCommand& cmd);
[[nodiscard]] std::optional<proto::AttackCommand> decode_binary_attack(
    const FamilyProfile& p, util::BytesView wire);

// --- text framing (Gafgyt/Daddyl33t grammar, words parameterised) ----------
//
// Bot -> C2 on connect:   "HELLO-WORDS <arg>\n"     ("BUILD MIPS", "l33t LOGIN id")
// Keepalive:              "<ping>\n" -> "<pong>\n"  ("PING"/"PONG", ".ping"/".pong")
// C2 -> Bot attack:       "[PREFIX ]KEYWORD ip port secs\n"; ICMP-borne
//                         attacks carry port 0.

/// "HELLO-WORDS <arg>\n" — arg is the bot id or arch per hello_sends.
[[nodiscard]] std::string encode_hello(const FamilyProfile& p,
                                       const std::string& arg);
/// The hello argument, or nullopt if the line is not this profile's hello.
[[nodiscard]] std::optional<std::string> decode_hello(const FamilyProfile& p,
                                                      std::string_view line);

[[nodiscard]] std::string encode_ping(const FamilyProfile& p);
[[nodiscard]] std::string encode_pong(const FamilyProfile& p);
[[nodiscard]] bool is_ping(const FamilyProfile& p, std::string_view line);
[[nodiscard]] bool is_pong(const FamilyProfile& p, std::string_view line);

/// "[PREFIX ]KEYWORD ip port secs\n". Throws std::invalid_argument for a
/// type the profile lacks.
[[nodiscard]] std::string encode_text_attack(const FamilyProfile& p,
                                             const proto::AttackCommand& cmd);
[[nodiscard]] std::optional<proto::AttackCommand> decode_text_attack(
    const FamilyProfile& p, std::string_view line);

}  // namespace malnet::profile::wire
