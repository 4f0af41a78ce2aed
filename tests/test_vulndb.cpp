#include <gtest/gtest.h>

#include <set>

#include "vulndb/vulndb.hpp"

using namespace malnet;
using namespace malnet::vulndb;

TEST(VulnDb, HasAllTable4Entries) {
  const auto& db = VulnDatabase::instance();
  EXPECT_EQ(db.all().size(), kVulnCount);
  // Paper rows 1..12 all present (row 1 covers both GPON CVEs).
  std::set<int> rows;
  for (const auto& v : db.all()) rows.insert(v.paper_row);
  for (int r = 1; r <= 12; ++r) EXPECT_TRUE(rows.count(r)) << "missing row " << r;
}

TEST(VulnDb, Table4SampleCountsPreserved) {
  const auto& db = VulnDatabase::instance();
  EXPECT_EQ(db.by_id(VulnId::kGpon10561).paper_samples, 139);
  EXPECT_EQ(db.by_id(VulnId::kGpon10562).paper_samples, 129);
  EXPECT_EQ(db.by_id(VulnId::kDlinkHnap).paper_samples, 132);
  EXPECT_EQ(db.by_id(VulnId::kMvpowerDvr).paper_samples, 74);
  EXPECT_EQ(db.by_id(VulnId::kHuaweiHg532).paper_samples, 1);
}

TEST(VulnDb, CveLookup) {
  const auto& db = VulnDatabase::instance();
  const auto* v = db.by_cve("cve-2018-10561");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->id, VulnId::kGpon10561);
  EXPECT_EQ(db.by_cve("CVE-1999-0001"), nullptr);
}

TEST(VulnDb, NoSingleSourceCoversEverything) {
  // §4 Q6: NVD, EDB and OpenVAS each miss some exploited vulnerability.
  const auto& db = VulnDatabase::instance();
  bool nvd_all = true, edb_all = true, openvas_all = true;
  for (const auto& v : db.all()) {
    nvd_all &= v.in_nvd;
    edb_all &= v.in_edb;
    openvas_all &= v.in_openvas;
  }
  EXPECT_FALSE(nvd_all);
  EXPECT_FALSE(edb_all);
  EXPECT_FALSE(openvas_all);
  // But the union covers all.
  for (const auto& v : db.all()) {
    EXPECT_TRUE(v.in_nvd || v.in_edb || v.in_openvas) << v.name;
  }
}

TEST(VulnDb, AgeProfileMatchesSection4) {
  // "9 of them more than 4 years old, while the most recent one was 5
  // months old" — reproduced exactly when ages are taken at the paper's
  // May 7 2022 re-query date (study day 404) over the 13 table entries.
  const auto& db = VulnDatabase::instance();
  int old_entries = 0;
  double newest_age = 1e9;
  for (const auto& v : db.all()) {
    const double age = v.age_years_at(404);
    if (age > 4.0) ++old_entries;
    newest_age = std::min(newest_age, age);
  }
  EXPECT_EQ(old_entries, 9);
  EXPECT_NEAR(newest_age * 12.0, 5.0, 1.0);  // DIR-820L, ~4.6 months
}

TEST(VulnDb, MitigationDistribution) {
  // §4 via vuldb: official fixes for 3, firewall-only for 5, replacement 2.
  const auto& db = VulnDatabase::instance();
  int fix = 0, firewall = 0, replace = 0;
  for (const auto& v : db.all()) {
    switch (v.mitigation) {
      case Mitigation::kOfficialFix: ++fix; break;
      case Mitigation::kFirewallOnly: ++firewall; break;
      case Mitigation::kReplaceDevice: ++replace; break;
      case Mitigation::kUnknown: break;
    }
  }
  EXPECT_EQ(fix, 3);
  EXPECT_GE(firewall, 5);
  EXPECT_EQ(replace, 2);
}

TEST(VulnDb, LoaderCatalogMatchesFigure9) {
  const auto& loaders = VulnDatabase::instance().loaders();
  ASSERT_EQ(loaders.size(), 7u);
  EXPECT_EQ(loaders.front().name, "t8UsA2.sh");
  EXPECT_DOUBLE_EQ(loaders.front().weight, 14.0);
  // Device-affine loaders point at real exploits.
  bool zyxel_affinity = false;
  for (const auto& l : loaders) {
    if (l.name == "zyxel.sh") {
      ASSERT_TRUE(l.affinity);
      EXPECT_EQ(*l.affinity, VulnId::kZyxel);
      zyxel_affinity = true;
    }
  }
  EXPECT_TRUE(zyxel_affinity);
}

TEST(VulnDb, ExploitPortsAreTheRealWorldOnes) {
  const auto& db = VulnDatabase::instance();
  EXPECT_EQ(db.by_id(VulnId::kHuaweiHg532).port, 37215);
  EXPECT_EQ(db.by_id(VulnId::kMvpowerDvr).port, 60001);
  EXPECT_EQ(db.by_id(VulnId::kEirD1000).port, 7547);
  EXPECT_EQ(db.by_id(VulnId::kGpon10561).port, 8080);
}

// Parameterized: every vulnerability's template must render, self-match and
// yield its downloader back.
class VulnTemplate : public ::testing::TestWithParam<VulnId> {};

TEST_P(VulnTemplate, RenderMatchExtractRoundTrip) {
  const auto& db = VulnDatabase::instance();
  const auto id = GetParam();
  const std::string payload = db.render_exploit(id, "203.0.113.77", "t8UsA2.sh");
  EXPECT_EQ(payload.find("{DL}"), std::string::npos);
  EXPECT_EQ(payload.find("{LOADER}"), std::string::npos);

  const auto* matched = db.match_payload(util::to_bytes(payload));
  ASSERT_NE(matched, nullptr);
  EXPECT_EQ(matched->id, id) << "payload for " << to_string(id)
                             << " misattributed to " << matched->name;

  const auto dl = db.extract_downloader(util::to_bytes(payload));
  ASSERT_TRUE(dl) << "no downloader extracted for " << to_string(id);
  EXPECT_EQ(dl->host, "203.0.113.77");
  EXPECT_EQ(dl->loader, "t8UsA2.sh");
}

INSTANTIATE_TEST_SUITE_P(
    AllVulns, VulnTemplate,
    ::testing::Values(VulnId::kGpon10561, VulnId::kGpon10562, VulnId::kDlinkHnap,
                      VulnId::kZyxel, VulnId::kVacron, VulnId::kHuaweiHg532,
                      VulnId::kMvpowerDvr, VulnId::kDir820, VulnId::kLinksys,
                      VulnId::kEirD1000, VulnId::kThinkPhp, VulnId::kNuuo,
                      VulnId::kNetlinkGpon),
    [](const auto& info) {
      std::string name = to_string(info.param);
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(VulnDb, MatchRejectsBenignPayloads) {
  const auto& db = VulnDatabase::instance();
  EXPECT_EQ(db.match_payload(util::to_bytes("GET / HTTP/1.1\r\n\r\n")), nullptr);
  EXPECT_EQ(db.match_payload(util::to_bytes("root\r\nvizxv\r\n")), nullptr);
  EXPECT_EQ(db.match_payload(util::Bytes{}), nullptr);
}

TEST(VulnDb, ExtractIgnoresNonIpHosts) {
  // The HNAP SOAPAction contains http://purenetworks.com/... — extraction
  // must skip it and find the IP-literal downloader.
  const auto& db = VulnDatabase::instance();
  const auto payload = db.render_exploit(VulnId::kDlinkHnap, "10.1.2.3", "x.sh");
  const auto dl = db.extract_downloader(util::to_bytes(payload));
  ASSERT_TRUE(dl);
  EXPECT_EQ(dl->host, "10.1.2.3");
}
