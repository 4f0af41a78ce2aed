#include "report/rules_export.hpp"

#include <set>
#include <sstream>

#include "util/str.hpp"
#include "vulndb/vulndb.hpp"

namespace malnet::report {

std::vector<Ioc> build_blocklist(const core::StudyResults& results) {
  std::vector<Ioc> out;
  std::set<std::string> seen;

  for (const auto& [addr, rec] : results.d_c2s) {
    if (!rec.ever_live() && !rec.vt_malicious_requery) continue;
    if (!seen.insert(addr).second) continue;
    Ioc ioc;
    ioc.address = addr;
    ioc.is_dns = rec.is_dns;
    ioc.port = rec.port;
    ioc.reason = rec.is_downloader ? "C2 + malware downloader" : "C2 server";
    ioc.first_seen_day = rec.discovery_day;
    out.push_back(std::move(ioc));
  }

  for (const auto& host : results.downloader_hosts) {
    if (!seen.insert(host).second) continue;  // usually already a C2 (§3.1)
    Ioc ioc;
    ioc.address = host;
    ioc.port = 80;  // "All downloader servers host on http port 80" (§3.1)
    ioc.reason = "malware downloader";
    out.push_back(std::move(ioc));
  }
  return out;
}

namespace {

/// Escapes a vulndb signature for a SNORT content pattern: non-printable
/// bytes and the delimiter set go through |hex| escapes.
std::string escape_content(std::string_view signature) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  bool in_hex = false;
  const auto set_hex = [&](bool on) {
    if (in_hex != on) {
      out += '|';
      in_hex = on;
    }
  };
  for (const unsigned char c : signature) {
    if (c == '"' || c == ';' || c == '|' || c == ':' || c < 0x20 || c >= 0x7F) {
      set_hex(true);
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
      out += ' ';
    } else {
      set_hex(false);
      out += static_cast<char>(c);
    }
  }
  set_hex(false);
  return out;
}

std::set<vulndb::VulnId> observed_vulns(const core::StudyResults& results) {
  std::set<vulndb::VulnId> vulns;
  for (const auto& e : results.d_exploits) vulns.insert(e.vuln);
  return vulns;
}

}  // namespace

std::string export_snort_rules(const core::StudyResults& results) {
  std::ostringstream os;
  os << "# MalNet generated ruleset — C2 blocklist + exploit signatures\n";

  std::uint32_t sid = 1000001;
  for (const auto& ioc : build_blocklist(results)) {
    if (ioc.is_dns) {
      // IP rules can't carry names; emit a DNS-query alert keyed on the
      // name instead (perimeter resolvers can act on it).
      os << "alert udp any any -> any 53 (msg:\"MalNet DNS lookup of " << ioc.address
         << " (" << ioc.reason << ")\"; content:\"" << ioc.address
         << "\"; nocase; sid:" << sid++ << ";)\n";
      continue;
    }
    os << "drop ip any any -> " << ioc.address << "/32 any (msg:\"MalNet "
       << ioc.reason << ", first seen day " << ioc.first_seen_day
       << "\"; sid:" << sid++ << ";)\n";
  }

  const auto& vdb = vulndb::VulnDatabase::instance();
  std::uint32_t exploit_sid = 2000001;
  for (const auto id : observed_vulns(results)) {
    const auto& v = vdb.by_id(id);
    os << "alert tcp any any -> any " << v.port << " (msg:\"MalNet exploit "
       << v.name << " (" << v.target_device << ")\"; content:\""
       << escape_content(v.signature) << "\"; sid:" << exploit_sid++ << ";)\n";
  }

  // Attack-participation signatures for the attack types this study
  // actually observed (an infected device flooding *outward*).
  std::set<proto::AttackType> seen_types;
  for (const auto& d : results.d_ddos) seen_types.insert(d.detection.command.type);
  std::uint32_t attack_sid = 3000001;
  for (const auto type : seen_types) {
    switch (type) {
      case proto::AttackType::kVse:
        os << "alert udp any any -> any any (msg:\"MalNet VSE flood "
              "participation\"; content:\"Source Engine Query\"; sid:"
           << attack_sid++ << ";)\n";
        break;
      case proto::AttackType::kNfo:
        os << "alert udp any any -> any 238 (msg:\"MalNet NFO flood "
              "participation\"; content:\"NFOV6\"; sid:"
           << attack_sid++ << ";)\n";
        break;
      case proto::AttackType::kBlacknurse:
        os << "alert icmp any any -> any any (msg:\"MalNet BLACKNURSE "
              "participation\"; itype:3; icode:3; sid:"
           << attack_sid++ << ";)\n";
        break;
      case proto::AttackType::kStomp:
        os << "alert tcp any any -> any any (msg:\"MalNet STOMP flood "
              "participation\"; content:\"CONNECT|0A|accept-version\"; sid:"
           << attack_sid++ << ";)\n";
        break;
      default:
        break;  // plain floods carry no distinctive payload
    }
  }
  return os.str();
}

ids::RuleSet compile_exported_rules(const core::StudyResults& results) {
  ids::ParseError err;
  auto set = ids::RuleSet::parse(export_snort_rules(results), &err);
  if (!set) {
    throw std::runtime_error("generated rule failed to parse at line " +
                             std::to_string(err.line) + ": " + err.message);
  }
  return std::move(*set);
}

}  // namespace malnet::report
