// Report module: renderers, summary statistics and table/figure emitters on
// synthetic and pipeline-produced datasets.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "report/figures.hpp"
#include "report/render.hpp"
#include "report/summary.hpp"
#include "report/claims.hpp"
#include "report/dataset_io.hpp"
#include "report/digest.hpp"
#include "report/dossier.hpp"
#include "report/tables.hpp"
#include "testkit/scratch.hpp"

using namespace malnet;
using namespace malnet::report;

// --- renderers ------------------------------------------------------------------

TEST(Render, TextTableAlignsColumns) {
  TextTable t({"Name", "N"});
  t.row({"short", "1"});
  t.row({"a-much-longer-name", "22"});
  const auto out = t.render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name  22"), std::string::npos);
  EXPECT_THROW(t.row({"only-one-cell"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Render, CdfOutput) {
  util::Cdf c;
  for (double x : {1.0, 1.0, 2.0, 10.0}) c.add(x);
  const auto out = render_cdf(c, "days");
  EXPECT_NE(out.find("CDF of days"), std::string::npos);
  EXPECT_NE(out.find("n=4"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);
  EXPECT_NE(render_cdf(util::Cdf{}, "empty").find("empty"), std::string::npos);
}

TEST(Render, BarsScaleToMax) {
  const auto out = render_bars({{"a", 10.0}, {"b", 5.0}}, 10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(Render, HeatmapAndRaster) {
  const auto hm = render_heatmap({"row1"}, {{0.0, 5.0, 10.0}});
  EXPECT_NE(hm.find("row1"), std::string::npos);
  EXPECT_NE(hm.find('@'), std::string::npos);  // max density glyph
  const auto rs = render_raster({"srv"}, {{true, false, true}});
  EXPECT_NE(rs.find("#.#"), std::string::npos);
  EXPECT_THROW(render_raster({"a", "b"}, {{true}}), std::invalid_argument);
}

// --- summary stats on a handcrafted dataset --------------------------------------

namespace {
core::StudyResults tiny_results() {
  core::StudyResults r;
  core::C2Record live;
  live.address = "60.1.1.1";
  live.ip = *net::parse_ipv4("60.1.1.1");
  live.discovery_day = 3;
  live.referred_days = {3, 4, 7};
  live.live_days = {3, 7};
  live.distinct_samples = 3;
  live.vt_malicious_same_day = true;
  live.vt_vendors_same_day = 4;
  live.vt_malicious_requery = true;
  live.asn = 36352;
  r.d_c2s[live.address] = live;

  core::C2Record dead;
  dead.address = "60.2.2.2";
  dead.ip = *net::parse_ipv4("60.2.2.2");
  dead.discovery_day = 5;
  dead.referred_days = {5};
  dead.distinct_samples = 1;
  dead.vt_malicious_requery = true;
  dead.asn = 14061;
  r.d_c2s[dead.address] = dead;

  core::SampleRecord s1;
  s1.sha256 = "aa";
  s1.day = 3;
  s1.c2_addresses = {"60.1.1.1"};
  core::SampleRecord s2;
  s2.sha256 = "bb";
  s2.day = 5;
  s2.c2_addresses = {"60.2.2.2"};
  r.d_samples = {s1, s2};
  return r;
}
}  // namespace

TEST(Summary, LifespanStatsOnTinyDataset) {
  const auto ls = lifespan_stats(tiny_results());
  EXPECT_EQ(ls.ip_lifetimes.count(), 1u);
  EXPECT_DOUBLE_EQ(ls.mean_days, 5.0);     // days 3..7
  EXPECT_DOUBLE_EQ(ls.one_day_fraction, 0.0);
  EXPECT_DOUBLE_EQ(ls.dead_on_arrival, 0.5);  // sample bb's C2 never live
}

TEST(Summary, TiStatsOnTinyDataset) {
  const auto ti = ti_stats(tiny_results());
  EXPECT_DOUBLE_EQ(ti.miss_all_same_day, 0.5);
  EXPECT_DOUBLE_EQ(ti.miss_all_requery, 0.0);
  EXPECT_EQ(ti.vendors_per_c2.count(), 1u);
}

TEST(Summary, SharingStatsOnTinyDataset) {
  const auto sh = sharing_stats(tiny_results());
  EXPECT_DOUBLE_EQ(sh.multi_sample_fraction, 0.5);
  EXPECT_EQ(sh.samples_per_c2_ip.count(), 2u);
}

TEST(Summary, ProbeStatsSecondProbeMath) {
  core::ProbeCampaignResult pc2;
  pc2.rounds = 6;
  // Response pattern: # . # . . # — successes with a next probe: rounds
  // 0 (miss after), 2 (miss after); round 5 has no successor.
  pc2.raster[{net::Ipv4{1, 1, 1, 1}, 23}] = {true, false, true, false, false, true};
  const auto ps = probe_stats(pc2, 6);
  EXPECT_EQ(ps.targets, 1);
  EXPECT_DOUBLE_EQ(ps.second_probe_nonresponse, 1.0);
  EXPECT_EQ(ps.days_with_all_probes_answered, 0);
  EXPECT_DOUBLE_EQ(ps.response_rate, 0.5);

  core::ProbeCampaignResult always;
  always.rounds = 6;
  always.raster[{net::Ipv4{1, 1, 1, 1}, 23}] = std::vector<bool>(6, true);
  const auto pa = probe_stats(always, 6);
  EXPECT_DOUBLE_EQ(pa.second_probe_nonresponse, 0.0);
  EXPECT_EQ(pa.days_with_all_probes_answered, 1);
}

TEST(Summary, WeeklyCountsUseStudyWeeks) {
  const auto weekly = weekly_as_counts(tiny_results());
  // Discovery days 3 and 5 both fall in study week 1.
  EXPECT_EQ(weekly.at({1, 36352u}), 1);
  EXPECT_EQ(weekly.at({1, 14061u}), 1);
}

// --- emitters over a real (small) pipeline run ------------------------------------


TEST(Emitters, AllTablesAndFiguresRenderNonEmpty) {
  core::PipelineConfig cfg;
  cfg.seed = 5;
  cfg.world.total_samples = 200;
  cfg.probe_rounds = 12;
  core::Pipeline pipe(cfg);
  const auto results = pipe.run();
  const auto& asdb = pipe.asdb();

  const std::vector<std::pair<const char*, std::string>> blocks = {
      {"Table 1", table1_datasets(results)},
      {"Table 2", table2_top_ases(results, asdb)},
      {"Table 3", table3_ti_miss(results)},
      {"Table 4", table4_vulnerabilities(results)},
      {"Table 7", table7_vendors(results, pipe.ti(), 404)},
      {"Figure 1", figure1_heatmap(results, asdb)},
      {"Figure 2", figure2_lifetime_ip(results)},
      {"Figure 3", figure3_lifetime_domain(results)},
      {"Figure 4", figure4_probe_raster(results)},
      {"Figure 5", figure5_samples_per_c2(results)},
      {"Figure 6", figure6_samples_per_domain(results)},
      {"Figure 7", figure7_vendor_cdf(results)},
      {"Figure 8", figure8_vuln_timeseries(results)},
      {"Figure 9", figure9_loaders(results)},
      {"Figure 10", figure10_ddos_protocols(results, asdb)},
      {"Figure 11", figure11_ddos_types(results, asdb)},
      {"Figure 12", figure12_targets(results, asdb)},
      {"Figure 13", figure13_as_cdf(results)},
  };
  for (const auto& [name, text] : blocks) {
    EXPECT_GT(text.size(), 40u) << name << " rendered nearly empty";
    EXPECT_NE(text.find(name), std::string::npos)
        << name << " must label itself:\n"
        << text;
  }
  // Key paper markers present.
  EXPECT_NE(blocks[0].second.find("D-Samples"), std::string::npos);
  EXPECT_NE(blocks[2].second.find("DNS-based"), std::string::npos);
  EXPECT_NE(blocks[3].second.find("CVE-2018-10561"), std::string::npos);
}

TEST(DatasetIo, RoundTripIsLossless) {
  core::PipelineConfig cfg;
  cfg.seed = 4;
  cfg.world.total_samples = 150;
  cfg.probe_rounds = 12;
  core::Pipeline pipe(cfg);
  const auto results = pipe.run();

  const auto bytes = serialize_datasets(results);
  const auto parsed = parse_datasets(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->d_samples.size(), results.d_samples.size());
  EXPECT_EQ(parsed->d_c2s.size(), results.d_c2s.size());
  EXPECT_EQ(parsed->d_exploits.size(), results.d_exploits.size());
  EXPECT_EQ(parsed->d_ddos.size(), results.d_ddos.size());
  EXPECT_EQ(parsed->downloader_hosts, results.downloader_hosts);
  EXPECT_EQ(parsed->sim_events, results.sim_events);

  // Spot-check a C2 record field-by-field.
  auto ita = results.d_c2s.begin();
  auto itb = parsed->d_c2s.begin();
  for (; ita != results.d_c2s.end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.referred_days, itb->second.referred_days);
    EXPECT_EQ(ita->second.live_days, itb->second.live_days);
    EXPECT_EQ(ita->second.asn, itb->second.asn);
    EXPECT_EQ(ita->second.vt_vendors_same_day, itb->second.vt_vendors_same_day);
  }

  // Every summary statistic must be identical after the round trip.
  const auto before = check_claims(results, pipe.asdb());
  const auto after = check_claims(*parsed, pipe.asdb());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i].measured, after[i].measured) << before[i].id;
  }

  // File round trip + corruption rejection.
  const testkit::ScratchDir dir("dataset_io");
  const auto path = dir.file("study.mds");
  save_datasets(results, path);
  const auto loaded = load_datasets(path);
  EXPECT_EQ(loaded.d_c2s.size(), results.d_c2s.size());
  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_FALSE(parse_datasets(corrupt));
  corrupt = bytes;
  corrupt.pop_back();
  EXPECT_FALSE(parse_datasets(corrupt));
}

TEST(Dossier, FullAttributionChain) {
  // The paper's core pitch (§1): one C2 address links back to binaries,
  // exploits and launched attacks. Built on a run known to contain attacks.
  core::PipelineConfig cfg;
  cfg.seed = 22;
  cfg.world.total_samples = 300;
  cfg.run_probe_campaign = false;
  core::Pipeline pipe(cfg);
  const auto results = pipe.run();
  ASSERT_FALSE(results.d_ddos.empty());

  const std::string attacker = results.d_ddos.front().c2_address;
  const auto dossier = build_c2_dossier(results, pipe.asdb(), attacker);
  ASSERT_TRUE(dossier);
  EXPECT_FALSE(dossier->samples.empty()) << "attribution must reach the binary";
  EXPECT_FALSE(dossier->attacks.empty());
  ASSERT_TRUE(dossier->as_info);
  const auto text = render_dossier(*dossier);
  EXPECT_NE(text.find(attacker), std::string::npos);
  EXPECT_NE(text.find("attacks issued"), std::string::npos);
  EXPECT_NE(text.find("hosted at AS"), std::string::npos);

  // And the reverse direction: sample -> C2s -> attacks.
  const auto sample = build_sample_dossier(results, dossier->samples.front().sha256);
  ASSERT_TRUE(sample);
  EXPECT_FALSE(sample->c2s.empty());
  const auto sample_text = render_dossier(*sample);
  EXPECT_NE(sample_text.find("C2 infrastructure"), std::string::npos);

  EXPECT_FALSE(build_c2_dossier(results, pipe.asdb(), "no.such.host"));
  EXPECT_FALSE(build_sample_dossier(results, "ffff"));
}

TEST(Digest, WeeklyDigestsCoverTheStudy) {
  core::PipelineConfig cfg;
  cfg.seed = 22;
  cfg.world.total_samples = 300;
  cfg.run_probe_campaign = false;
  core::Pipeline pipe(cfg);
  const auto results = pipe.run();

  const auto digests = build_all_digests(results);
  ASSERT_FALSE(digests.empty());
  int total_samples = 0, total_c2s = 0, total_attacks = 0;
  for (const auto& d : digests) {
    total_samples += d.new_samples;
    total_c2s += static_cast<int>(d.new_c2s.size());
    total_attacks += d.attacks;
    EXPECT_GE(d.week, 1);
    EXPECT_LE(d.week, 31);
  }
  // Every sample/C2/attack lands in exactly one week.
  EXPECT_EQ(total_samples, static_cast<int>(results.d_samples.size()));
  EXPECT_EQ(total_c2s, static_cast<int>(results.d_c2s.size()));
  EXPECT_EQ(total_attacks, static_cast<int>(results.d_ddos.size()));

  const auto text = render_digest(digests.front());
  EXPECT_NE(text.find("weekly digest"), std::string::npos);
  EXPECT_NE(text.find("new binaries analysed"), std::string::npos);
}
