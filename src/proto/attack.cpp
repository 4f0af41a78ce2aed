#include "proto/attack.hpp"

#include <sstream>

namespace malnet::proto {

std::string to_string(AttackType t) {
  switch (t) {
    case AttackType::kUdpFlood: return "UDP Flood";
    case AttackType::kSynFlood: return "SYN Flood";
    case AttackType::kTls: return "TLS";
    case AttackType::kStomp: return "STOMP";
    case AttackType::kVse: return "VSE";
    case AttackType::kStd: return "STD";
    case AttackType::kBlacknurse: return "BLACKNURSE";
    case AttackType::kNfo: return "NFO";
  }
  return "?";
}

std::string to_string(AttackProtocol p) {
  switch (p) {
    case AttackProtocol::kUdp: return "UDP";
    case AttackProtocol::kTcp: return "TCP";
    case AttackProtocol::kIcmp: return "ICMP";
    case AttackProtocol::kDns: return "DNS";
  }
  return "?";
}

AttackProtocol attack_protocol(AttackType t, net::Port target_port) {
  switch (t) {
    case AttackType::kSynFlood:
    case AttackType::kStomp:
      return AttackProtocol::kTcp;
    case AttackType::kBlacknurse:
      return AttackProtocol::kIcmp;
    case AttackType::kUdpFlood:
    case AttackType::kStd:
    case AttackType::kVse:
    case AttackType::kNfo:
    case AttackType::kTls:  // both observed variants ride UDP/DTLS-ish (§5.1)
      return target_port == 53 ? AttackProtocol::kDns : AttackProtocol::kUdp;
  }
  return AttackProtocol::kUdp;
}

bool is_gaming_attack(AttackType t) {
  return t == AttackType::kVse || t == AttackType::kNfo;
}

std::string AttackCommand::summary() const {
  std::ostringstream os;
  os << proto::to_string(family) << ' ' << proto::to_string(type) << " -> "
     << net::to_string(target) << " for " << duration_s << "s";
  return os.str();
}

}  // namespace malnet::proto
