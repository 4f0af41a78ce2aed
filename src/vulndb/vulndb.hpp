// The vulnerability & exploit knowledge base: the 12 vulnerabilities of the
// paper's Table 4 (13 entries — the two GPON CVEs share exploit EDB-44576
// and paper row 1), each with metadata, the scan port its exploit targets,
// an *inert* payload template (a labelled HTTP request against the
// vulnerable endpoint — no functional exploit code), and a unique signature
// used by the exploit-attribution matcher.
//
// Also hosts the loader-name catalog behind Figure 9 and the
// vulnerability-database coverage flags behind Q6 ("the more intelligence
// threat sources the better": no single source of NVD/EDB/OpenVAS covers
// all exploited vulnerabilities).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "util/bytes.hpp"

namespace malnet::vulndb {

enum class VulnId : std::uint8_t {
  kGpon10561,   // CVE-2018-10561 (GPON auth bypass)
  kGpon10562,   // CVE-2018-10562 (GPON command injection)
  kDlinkHnap,   // CVE-2015-2051 (D-Link HNAP1 SOAPAction)
  kZyxel,       // CVE-2017-18368 (ZyXEL P660HN ViewLog)
  kVacron,      // Vacron NVR board.cgi RCE (no CVE)
  kHuaweiHg532, // CVE-2017-17215 (Huawei HG532 UPnP)
  kMvpowerDvr,  // MVPower DVR JAWS shell RCE (no CVE)
  kDir820,      // CVE-2021-45382 (D-Link DIR-820L DDNS)
  kLinksys,     // Linksys E-series tmUnblock.cgi (no CVE)
  kEirD1000,    // Eir D1000 TR-064 WAN-side RCI (no CVE)
  kThinkPhp,    // CVE-2018-20062 (ThinkPHP invokefunction)
  kNuuo,        // CVE-2016-5680 (NUUO NVRmini2)
  kNetlinkGpon, // Netlink GPON formPing RCE (no CVE)
};

inline constexpr std::size_t kVulnCount = 13;

/// vuldb-style remediation status (§4: patches for 3, firewall-only for 5,
/// device replacement for 2 of the CVE-assigned vulnerabilities).
enum class Mitigation : std::uint8_t {
  kOfficialFix,
  kFirewallOnly,
  kReplaceDevice,
  kUnknown,
};

[[nodiscard]] std::string to_string(Mitigation m);
[[nodiscard]] std::string to_string(VulnId id);

struct Vulnerability {
  VulnId id{};
  int paper_row = 0;  // Table 4 "ID" column (1..12; GPON CVEs share row 1)
  std::string name;
  std::optional<std::string> cve;
  std::optional<std::string> exploit_ref;  // EDB-… / OPENVAS:… identifier
  bool in_nvd = false;
  bool in_edb = false;
  bool in_openvas = false;
  int pub_year = 0, pub_month = 0, pub_day = 0;
  std::string target_device;
  net::Port port = 80;  // port the exploit is delivered on
  std::string signature;         // unique substring for attribution
  std::string payload_template;  // with {DL} and {LOADER} placeholders
  Mitigation mitigation = Mitigation::kUnknown;
  double corpus_weight = 1.0;  // calibrated to Table 4 per-vuln sample counts
  int paper_samples = 0;       // Table 4 "# Samples" (for bench comparison)

  /// Publication day on the study timeline (negative = before the study).
  [[nodiscard]] std::int64_t publication_study_day() const;
  /// Age in whole years at study day `at_day`.
  [[nodiscard]] double age_years_at(std::int64_t at_day) const;
};

/// One loader filename with its Figure 9 frequency weight.
struct LoaderInfo {
  std::string name;
  double weight = 1.0;
  /// When set, this loader is preferentially used by that exploit.
  std::optional<VulnId> affinity;
};

class VulnDatabase {
 public:
  /// The process-wide immutable database.
  [[nodiscard]] static const VulnDatabase& instance();

  [[nodiscard]] std::span<const Vulnerability> all() const { return vulns_; }
  [[nodiscard]] const Vulnerability& by_id(VulnId id) const;
  [[nodiscard]] const Vulnerability* by_cve(std::string_view cve) const;

  /// Attributes a captured payload to a vulnerability by signature match;
  /// nullptr if the payload matches nothing known.
  [[nodiscard]] const Vulnerability* match_payload(util::BytesView payload) const;

  /// Renders the (inert) exploit request for a vulnerability against
  /// downloader `dl` using loader filename `loader`.
  [[nodiscard]] std::string render_exploit(VulnId id, const std::string& dl,
                                           const std::string& loader) const;

  /// Extracts the downloader host and loader filename back out of a rendered
  /// exploit payload (what the pipeline does with captured exploits, §3.1).
  struct ExtractedDownloader {
    std::string host;
    std::string loader;
  };
  [[nodiscard]] std::optional<ExtractedDownloader> extract_downloader(
      util::BytesView payload) const;

  [[nodiscard]] const std::vector<LoaderInfo>& loaders() const { return loaders_; }

 private:
  VulnDatabase();
  std::vector<Vulnerability> vulns_;
  std::vector<LoaderInfo> loaders_;
};

}  // namespace malnet::vulndb
