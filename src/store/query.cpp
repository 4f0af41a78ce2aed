#include "store/query.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

#include "proto/family.hpp"
#include "vulndb/vulndb.hpp"

namespace malnet::store {

namespace {

/// Bucket bounds for store.query_latency_us (µs): sub-100µs merged-index
/// lookups through pathological multi-ms answers.
const std::vector<std::int64_t> kLatencyBounds = {100, 1000, 10000, 100000,
                                                  1000000};

std::vector<std::string> tokenize(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::string render_days(const std::vector<std::int64_t>& days) {
  std::ostringstream out;
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (i > 0) out << ' ';
    out << days[i];
  }
  return out.str();
}

/// Display label for a vulnerability: its CVE when assigned, otherwise the
/// vulndb short name (matches Table 4's identification columns).
std::string vuln_label(std::uint8_t raw) {
  if (raw >= vulndb::kVulnCount) return "vuln#" + std::to_string(raw);
  const auto& v =
      vulndb::VulnDatabase::instance().by_id(static_cast<vulndb::VulnId>(raw));
  return v.cve ? *v.cve : vulndb::to_string(v.id);
}

/// Resolves a query token to a vulnerability: CVE id, vulndb short name,
/// or human name, all case-sensitive.
std::optional<std::uint8_t> vuln_from_token(const std::string& token) {
  const auto& db = vulndb::VulnDatabase::instance();
  if (const auto* v = db.by_cve(token)) {
    return static_cast<std::uint8_t>(v->id);
  }
  for (std::size_t i = 0; i < vulndb::kVulnCount; ++i) {
    const auto id = static_cast<vulndb::VulnId>(i);
    const auto& v = db.by_id(id);
    if (token == vulndb::to_string(id) || token == v.name) {
      return static_cast<std::uint8_t>(i);
    }
  }
  return std::nullopt;
}

constexpr std::string_view kHelp =
    "commands: totals | families | c2-liveness | c2 <address> | exploits | "
    "exploit <cve-or-name> | segments | help";

}  // namespace

QueryEngine::QueryEngine(Store& store)
    : metas_(store.segments()),
      queries_(store.registry().counter("store.queries")),
      latency_(store.registry().histogram("store.query_latency_us",
                                         kLatencyBounds)) {
  for (const auto& meta : metas_) {
    merged_.merge(store.load_index(meta));
  }
}

std::string QueryEngine::answer(std::string_view line) {
  const auto start = std::chrono::steady_clock::now();
  const auto tokens = tokenize(line);
  std::ostringstream out;

  if (tokens.empty() || tokens[0] == "help") {
    out << kHelp;
  } else if (tokens[0] == "totals") {
    out << "samples=" << merged_.samples << " c2s=" << merged_.distinct_c2s()
        << " exploits=" << merged_.exploits << " ddos=" << merged_.ddos
        << " degraded=" << merged_.degraded << " segments=" << metas_.size();
    if (merged_.max_day >= merged_.min_day) {
      out << " days=" << merged_.min_day << ".." << merged_.max_day;
    } else {
      out << " days=none";
    }
  } else if (tokens[0] == "families") {
    bool first = true;
    for (const auto& [family, n] : merged_.family_counts) {
      if (!first) out << '\n';
      first = false;
      const std::string name =
          family < static_cast<std::uint8_t>(proto::kFamilyCount)
              ? proto::to_string(static_cast<proto::Family>(family))
              : "family#" + std::to_string(family);
      out << name << ' ' << n;
    }
    if (first) out << "(no samples)";
  } else if (tokens[0] == "c2-liveness") {
    const auto series = merged_.liveness_series();
    out << "c2-liveness days=" << series.size()
        << " distinct_c2s=" << merged_.distinct_c2s();
    for (const auto& [day, n] : series) out << '\n' << day << ' ' << n;
  } else if (tokens[0] == "c2") {
    if (tokens.size() != 2) {
      out << "err usage: c2 <address>";
    } else if (const auto it = merged_.c2_live_days.find(tokens[1]);
               it == merged_.c2_live_days.end()) {
      out << "err unknown c2 address " << tokens[1];
    } else {
      out << "c2 " << tokens[1] << " live_days=" << it->second.size();
      if (!it->second.empty()) out << ": " << render_days(it->second);
    }
  } else if (tokens[0] == "exploits") {
    bool first = true;
    for (const auto& [vuln, stat] : merged_.exploit_stats) {
      if (!first) out << '\n';
      first = false;
      out << vuln_label(vuln) << " count=" << stat.count;
      if (!stat.days.empty()) {
        out << " first=" << stat.days.front() << " last=" << stat.days.back();
      }
    }
    if (first) out << "(no exploits)";
  } else if (tokens[0] == "exploit") {
    if (tokens.size() != 2) {
      out << "err usage: exploit <cve-or-name>";
    } else if (const auto vuln = vuln_from_token(tokens[1]); !vuln) {
      out << "err unknown vulnerability " << tokens[1];
    } else if (const auto it = merged_.exploit_stats.find(*vuln);
               it == merged_.exploit_stats.end()) {
      out << vuln_label(*vuln) << " count=0";
    } else {
      out << vuln_label(*vuln) << " count=" << it->second.count
          << " days: " << render_days(it->second.days);
    }
  } else if (tokens[0] == "segments") {
    bool first = true;
    for (const auto& m : metas_) {
      if (!first) out << '\n';
      first = false;
      out << "seq=" << m.seq << " kind=" << to_string(m.kind) << " shard="
          << m.shard_index << '/' << m.shard_count << " bytes=" << m.bytes
          << " file=" << m.file;
    }
    if (first) out << "(empty store)";
  } else {
    out << "err unknown command " << tokens[0] << "; try: help";
  }

  // Operational latency only — wall-clock, never part of a byte-compared
  // artifact (see Store metrics contract).
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  queries_.inc();
  latency_.record(elapsed);
  return out.str();
}

void serve_loop(Store& store, std::istream& in, std::ostream& out) {
  QueryEngine engine(store);
  out << "malnet-store serving " << engine.merged().samples << " sample(s) from "
      << store.segments().size() << " segment(s); 'help' lists queries\n\n";
  out.flush();
  std::string line;
  while (std::getline(in, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    out << engine.answer(line) << "\n\n";
    out.flush();
  }
}

}  // namespace malnet::store
