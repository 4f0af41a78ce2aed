#include "core/ddos.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "emu/attackgen.hpp"
#include "profile/wire.hpp"
#include "util/str.hpp"

namespace malnet::core {

std::string to_string(DdosMethod m) {
  return m == DdosMethod::kProtocolProfile ? "protocol-profile"
                                           : "behavioural-heuristic";
}

namespace {

struct C2Message {
  util::SimTime time;
  util::Bytes payload;
};

/// Per-victim outbound traffic aggregate.
struct TargetTraffic {
  std::uint64_t packets = 0;
  double peak_pps = 0.0;
  util::SimTime first{INT64_MAX};
  net::Protocol proto = net::Protocol::kUdp;
  net::Port port = 0;
  util::Bytes sample_payload;
  bool tcp_syn_only = true;
  std::uint8_t icmp_type = 0, icmp_code = 0;
};

/// Infers the §5.1 attack taxonomy from observed wire behaviour.
proto::AttackType classify_traffic(const TargetTraffic& t) {
  if (t.proto == net::Protocol::kIcmp) return proto::AttackType::kBlacknurse;
  if (t.proto == net::Protocol::kTcp) {
    if (t.tcp_syn_only) return proto::AttackType::kSynFlood;
    return proto::AttackType::kStomp;
  }
  // UDP: discriminate by payload signature.
  const auto& p = t.sample_payload;
  if (util::contains(p, std::string_view("Source Engine Query"))) {
    return proto::AttackType::kVse;
  }
  if (util::contains(p, std::string_view("NFOV6"))) return proto::AttackType::kNfo;
  if (!p.empty() && p[0] == 0x16) return proto::AttackType::kTls;
  if (p.size() == 1 && p[0] == 0x00) return proto::AttackType::kUdpFlood;
  if (p.size() >= 16) return proto::AttackType::kStd;  // random-string flood
  return proto::AttackType::kUdpFlood;
}

/// §2.5 verification for the heuristic path: the burst target's address
/// must appear in the associated command, as text or as raw big-endian
/// bytes.
bool target_in_command(net::Ipv4 target, util::BytesView command) {
  if (util::contains(command, net::to_string(target))) return true;
  const util::Bytes raw{target.octet(0), target.octet(1), target.octet(2),
                        target.octet(3)};
  return util::contains(command, util::BytesView{raw});
}

/// The registry's binary and text dialects, in name order; a family hint
/// keeps only that family's profiles (the builtin plus its variants). IRC,
/// P2P and TLS-beacon framings carry no decodable attack grammar here.
struct Dialects {
  std::vector<const profile::FamilyProfile*> binary, text;
};

Dialects dialects_for(const profile::Registry& profiles,
                      std::optional<proto::Family> hint) {
  Dialects d;
  for (const auto* p : profiles.all()) {
    if (hint && p->id != *hint) continue;
    if (p->framing == profile::Framing::kBinary) d.binary.push_back(p);
    if (p->framing == profile::Framing::kText) d.text.push_back(p);
  }
  return d;
}

/// Decodes every attack command in one C2 message. Each length-framed
/// binary frame and each text line goes to the first dialect that decodes
/// it, so profiles sharing a grammar (a builtin and its variant) never
/// yield the same command twice.
void decode_profiles(const C2Message& msg, const Dialects& dialects,
                     std::vector<std::pair<util::SimTime, proto::AttackCommand>>* out) {
  if (!dialects.binary.empty()) {
    // One frame per message in practice, but walk anyway.
    util::BytesView view{msg.payload};
    while (view.size() >= 2) {
      const std::size_t len = (static_cast<std::size_t>(view[0]) << 8) | view[1];
      if (len == 0 || view.size() < 2 + len) break;
      const auto frame = view.subspan(0, 2 + len);
      for (const auto* p : dialects.binary) {
        if (auto cmd = profile::wire::decode_binary_attack(*p, frame)) {
          out->emplace_back(msg.time, std::move(*cmd));
          break;
        }
      }
      view = view.subspan(2 + len);
    }
  }
  if (dialects.text.empty()) return;
  const std::string text = util::to_string(msg.payload);
  for (const auto& line : util::split(text, '\n')) {
    if (line.empty()) continue;
    for (const auto* p : dialects.text) {
      if (auto cmd = profile::wire::decode_text_attack(*p, line)) {
        out->emplace_back(msg.time, std::move(*cmd));
        break;
      }
    }
  }
}

}  // namespace

std::vector<DdosDetection> detect_ddos(const emu::SandboxReport& report,
                                       net::Endpoint c2,
                                       std::optional<proto::Family> family_hint,
                                       const DdosDetectOptions& opts,
                                       const profile::Registry& profiles) {
  // --- pass 1: split the capture into C2 messages and outbound traffic ----
  std::vector<C2Message> c2_messages;
  std::map<net::Ipv4, TargetTraffic> targets;
  std::map<net::Ipv4, std::map<std::int64_t, std::uint64_t>> per_second;

  for (const auto& p : report.capture) {
    const bool from_c2 = p.src == c2.ip && p.src_port == c2.port;
    if (from_c2 && !p.payload.empty()) {
      c2_messages.push_back({p.time, p.payload});
      continue;
    }
    // Outbound, non-C2-bound traffic (floods are dropped at the perimeter
    // but the tap recorded the attempt).
    if (p.dst == c2.ip || p.src == c2.ip) continue;
    if (p.proto == net::Protocol::kUdp && p.dst_port == 53) continue;  // DNS
    auto& t = targets[p.dst];
    ++t.packets;
    t.first = std::min(t.first, p.time);
    t.proto = p.proto;
    t.port = p.dst_port;
    if (p.proto == net::Protocol::kTcp && !p.payload.empty()) t.tcp_syn_only = false;
    if (p.proto == net::Protocol::kIcmp) {
      t.icmp_type = p.icmp.type;
      t.icmp_code = p.icmp.code;
    }
    if (t.sample_payload.empty() && !p.payload.empty()) t.sample_payload = p.payload;
    ++per_second[p.dst][p.time.us / 1'000'000];
  }
  for (auto& [ip, seconds] : per_second) {
    for (const auto& [sec, count] : seconds) {
      targets[ip].peak_pps =
          std::max(targets[ip].peak_pps, static_cast<double>(count));
    }
  }

  // --- method (a): protocol profiles ---------------------------------------
  const Dialects dialects = dialects_for(profiles, family_hint);
  std::vector<std::pair<util::SimTime, proto::AttackCommand>> decoded;
  for (const auto& msg : c2_messages) decode_profiles(msg, dialects, &decoded);

  std::vector<DdosDetection> out;
  std::set<net::Ipv4> explained;
  for (const auto& [time, cmd] : decoded) {
    DdosDetection det;
    det.method = DdosMethod::kProtocolProfile;
    det.command = cmd;
    const auto it = targets.find(cmd.target.ip);
    if (it != targets.end() &&
        it->second.packets >= static_cast<std::uint64_t>(opts.min_attack_packets)) {
      det.verified = true;  // the bot demonstrably flooded the target
      det.observed_pps = it->second.peak_pps;
      explained.insert(cmd.target.ip);
    }
    out.push_back(std::move(det));
  }

  // --- method (b): behavioural heuristic for unprofiled variants -----------
  for (const auto& [ip, traffic] : targets) {
    if (explained.count(ip) > 0) continue;
    if (traffic.peak_pps < opts.pps_threshold) continue;

    // Associate with the last C2 message before the burst began.
    const C2Message* last = nullptr;
    for (const auto& msg : c2_messages) {
      if (msg.time <= traffic.first) last = &msg;
    }
    if (last == nullptr) continue;

    DdosDetection det;
    det.method = DdosMethod::kBehaviouralHeuristic;
    det.command.raw = last->payload;
    det.command.type = classify_traffic(traffic);
    det.command.target = {ip, traffic.port};
    det.command.family = family_hint.value_or(proto::Family::kMirai);
    det.observed_pps = traffic.peak_pps;
    det.verified = target_in_command(ip, last->payload);
    out.push_back(std::move(det));
  }
  return out;
}

}  // namespace malnet::core
