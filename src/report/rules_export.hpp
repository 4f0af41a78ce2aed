// Actionable-intelligence export — the deployment story of §1 ("Potential
// Impact"): turn the study's datasets into SNORT-dialect rules, `malnetctl
// export-rules`' output. Drop rules cover the verified C2 and downloader
// blocklist; alert rules carry the signatures of the exploits the
// handshaker captured and of the attacks the study observed.
//
// Only C2s confirmed live or by a VirusTotal re-query make the blocklist
// (the false-positive inflation §3.3 warns about), and the dedicated
// downloader hosts always join it (§3.1 co-hosting).
//
// The output is round-trippable through this project's own ids::RuleSet
// parser, which the tests exploit: every generated rule must parse, and
// must actually match the traffic it was generated from.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ids/rules.hpp"

namespace malnet::report {

/// One IoC entry of the blocklist.
struct Ioc {
  std::string address;   // IP literal or domain
  bool is_dns = false;
  net::Port port = 0;    // 0 = all ports
  std::string reason;    // "C2 (Mirai)", "malware downloader", ...
  std::int64_t first_seen_day = 0;
};

/// Extracts the blocklist from the study datasets.
[[nodiscard]] std::vector<Ioc> build_blocklist(const core::StudyResults& results);

/// Renders SNORT-dialect drop rules for every IoC (sid range 1000xxx) and
/// exploit-signature alert rules for every vulnerability observed in
/// D-Exploits (sid range 2000xxx, content = the vulndb signature).
[[nodiscard]] std::string export_snort_rules(const core::StudyResults& results);

/// Parses the generated SNORT rules back through the in-tree IDS engine.
/// Throws std::runtime_error if any generated rule fails to parse — used
/// as a self-check before shipping rules to a real device.
[[nodiscard]] ids::RuleSet compile_exported_rules(const core::StudyResults& results);

}  // namespace malnet::report
