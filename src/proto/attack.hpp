// The unified DDoS attack command model: the 8 attack types observed in the
// study (§5.1) and the protocol each one rides on (Figure 10). Which
// families launch which types (Figure 11), and how each family spells them
// on the wire, is profile data (profile::builtin_profile).
#pragma once

#include <cstdint>
#include <string>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "proto/family.hpp"
#include "util/bytes.hpp"

namespace malnet::proto {

enum class AttackType {
  kUdpFlood,    // Mirai vector 0 / Gafgyt "UDP" / daddyl33t "UDPRAW"
  kSynFlood,    // Mirai SYN / daddyl33t "HYDRASYN"
  kTls,         // Mirai chunked-TLS / daddyl33t DTLS-ish
  kStomp,       // Mirai vector 5: STOMP application flood
  kVse,         // Valve Source Engine query flood (gaming)
  kStd,         // Gafgyt STD random-string flood
  kBlacknurse,  // daddyl33t: ICMP type 3 code 3 flood
  kNfo,         // daddyl33t: custom UDP/238 payload against NFOservers
};

inline constexpr int kAttackTypeCount = 8;

[[nodiscard]] std::string to_string(AttackType t);

/// The transport the attack traffic itself uses (Figure 10 buckets; DNS
/// floods would be kUdp against port 53 — we bucket by this rule too).
enum class AttackProtocol { kUdp, kTcp, kIcmp, kDns };

[[nodiscard]] std::string to_string(AttackProtocol p);
[[nodiscard]] AttackProtocol attack_protocol(AttackType t, net::Port target_port);

/// True for attack types aimed at gaming infrastructure (§5: "two types of
/// attacks targeting gaming servers" — VSE and NFO).
[[nodiscard]] bool is_gaming_attack(AttackType t);

/// A decoded C2 attack command.
struct AttackCommand {
  AttackType type = AttackType::kUdpFlood;
  Family family = Family::kMirai;
  net::Endpoint target;            // port 0 for ICMP-borne attacks
  std::uint32_t duration_s = 30;   // commanded duration
  util::Bytes raw;                 // exact command bytes as seen on the wire

  [[nodiscard]] std::string summary() const;
};

}  // namespace malnet::proto
