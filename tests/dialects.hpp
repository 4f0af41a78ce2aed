// The C2 dialects the profile::wire codec tests are parametrised over: every
// builtin profile with binary or text framing, plus the shipped
// mirai-fallback variant (profiles/mirai-fallback.json). Parametrised
// suites take a dialect's profile name, so gtest prints readable params.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "profile/registry.hpp"
#include "profile/wire.hpp"

namespace malnet::dialects {

/// The dialects in registry (name) order.
inline const std::vector<const profile::FamilyProfile*>& all() {
  static const profile::Registry kRegistry = [] {
    profile::Registry reg;
    if (auto err = reg.load_file(MALNET_PROFILES_DIR "/mirai-fallback.json")) {
      throw std::runtime_error(*err);
    }
    return reg;
  }();
  static const auto kDialects = [] {
    std::vector<const profile::FamilyProfile*> out;
    for (const auto* p : kRegistry.all()) {
      if (p->framing == profile::Framing::kBinary ||
          p->framing == profile::Framing::kText) {
        out.push_back(p);
      }
    }
    return out;
  }();
  return kDialects;
}

inline std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const auto* p : all()) out.push_back(p->name);
  return out;
}

inline const profile::FamilyProfile& get(const std::string& name) {
  for (const auto* p : all()) {
    if (p->name == name) return *p;
  }
  throw std::out_of_range("no dialect " + name);
}

/// gtest parameter suffix: "mirai-fallback" -> "mirai_fallback".
inline std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

inline bool is_binary(const profile::FamilyProfile& p) {
  return p.framing == profile::Framing::kBinary;
}

// Framing-independent views of the codecs: a binary handshake and a text
// hello are both "the hello"; an attack is a framed body or a text line.

inline util::Bytes encode_hello(const profile::FamilyProfile& p, const std::string& id) {
  return is_binary(p) ? profile::wire::encode_handshake(p, id)
                      : util::to_bytes(profile::wire::encode_hello(p, id));
}

inline std::optional<std::string> decode_hello(const profile::FamilyProfile& p,
                                               util::BytesView bytes) {
  if (!is_binary(p)) return profile::wire::decode_hello(p, util::to_string(bytes));
  const auto hs = profile::wire::decode_handshake(p, bytes);
  return hs ? std::optional<std::string>(hs->bot_id) : std::nullopt;
}

inline util::Bytes encode_attack(const profile::FamilyProfile& p,
                                 const proto::AttackCommand& cmd) {
  return is_binary(p) ? profile::wire::encode_binary_attack(p, cmd)
                      : util::to_bytes(profile::wire::encode_text_attack(p, cmd));
}

inline std::optional<proto::AttackCommand> decode_attack(const profile::FamilyProfile& p,
                                                         util::BytesView bytes) {
  return is_binary(p) ? profile::wire::decode_binary_attack(p, bytes)
                      : profile::wire::decode_text_attack(p, util::to_string(bytes));
}

/// Runs every decoder of `p`'s framing over `bytes`; true if any accepted.
inline bool any_decoder_accepts(const profile::FamilyProfile& p, util::BytesView bytes) {
  const std::string line = util::to_string(bytes);
  const bool keepalive = is_binary(p) ? profile::wire::is_keepalive(bytes)
                                      : profile::wire::is_ping(p, line) |
                                            profile::wire::is_pong(p, line);
  return keepalive | decode_hello(p, bytes).has_value() |
         decode_attack(p, bytes).has_value();
}

}  // namespace malnet::dialects
