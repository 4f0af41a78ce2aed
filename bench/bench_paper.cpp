// Prints the paper's tables and figures (DESIGN.md §3 experiment index)
// from one deterministic seed-22 study run:
//
//   bench_paper               every experiment, in experiment-index order
//   bench_paper <id> [<id>…]  the named experiments, in the order given
//
// An id names one table or figure: table1_datasets … table7_vendors,
// fig1_heatmap … fig13_as_cdf. An unknown id lists them all and exits 2.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "botnet/probe_world.hpp"
#include "common.hpp"
#include "report/figures.hpp"
#include "report/tables.hpp"

namespace {

using namespace malnet;
using Results = core::StudyResults;
using Pipeline = core::Pipeline;

struct Experiment {
  std::string_view id;
  const char* label;  // the banner's experiment id
  const char* what;
  std::string (*render)(const Results&, const Pipeline&);
};

// Figure 4 carries Table 5, the probed ports, above the raster.
std::string probe_raster(const Results& r, const Pipeline&) {
  std::ostringstream out;
  out << "Table 5: probed ports:";
  for (const auto p : botnet::table5_ports()) out << ' ' << p;
  out << "  (6 /24 subnets, 4-hour interval, 84 rounds)\n\n"
      << report::figure4_probe_raster(r);
  return out.str();
}

// In DESIGN.md's experiment-index order.
const Experiment kExperiments[] = {
    {"table1_datasets", "Table 1", "dataset sizes",
     [](const Results& r, const Pipeline&) { return report::table1_datasets(r); }},
    {"table2_ases", "Table 2", "top-10 C2-hosting ASes",
     [](const Results& r, const Pipeline& p) {
       return report::table2_top_ases(r, p.asdb());
     }},
    {"table3_ti_miss", "Table 3", "threat-intelligence miss rates",
     [](const Results& r, const Pipeline&) { return report::table3_ti_miss(r); }},
    {"table4_vulns", "Table 4", "exploited vulnerabilities",
     [](const Results& r, const Pipeline&) {
       return report::table4_vulnerabilities(r);
     }},
    {"table7_vendors", "Table 7", "per-vendor C2 detection counts",
     [](const Results& r, const Pipeline& p) {
       return report::table7_vendors(r, p.ti(), 404);
     }},
    {"fig1_heatmap", "Figure 1", "weekly C2 activity heatmap",
     [](const Results& r, const Pipeline& p) {
       return report::figure1_heatmap(r, p.asdb());
     }},
    {"fig2_lifetime_ip", "Figure 2", "CDF of C2 IP lifetimes",
     [](const Results& r, const Pipeline&) {
       return report::figure2_lifetime_ip(r);
     }},
    {"fig3_lifetime_domain", "Figure 3", "CDF of C2 domain lifetimes",
     [](const Results& r, const Pipeline&) {
       return report::figure3_lifetime_domain(r);
     }},
    {"fig4_probe_raster", "Figure 4 / Table 5",
     "C2 probe responsiveness (D-PC2)", probe_raster},
    {"fig5_samples_per_c2", "Figure 5", "CDF of binaries per C2 IP",
     [](const Results& r, const Pipeline&) {
       return report::figure5_samples_per_c2(r);
     }},
    {"fig6_samples_per_domain", "Figure 6", "CDF of binaries per C2 domain",
     [](const Results& r, const Pipeline&) {
       return report::figure6_samples_per_domain(r);
     }},
    {"fig7_vendor_cdf", "Figure 7", "CDF of vendors flagging a known C2",
     [](const Results& r, const Pipeline&) {
       return report::figure7_vendor_cdf(r);
     }},
    {"fig8_vuln_timeseries", "Figure 8",
     "per-vulnerability exploitation over time",
     [](const Results& r, const Pipeline&) {
       return report::figure8_vuln_timeseries(r);
     }},
    {"fig9_loaders", "Figure 9", "loader filename frequencies",
     [](const Results& r, const Pipeline&) { return report::figure9_loaders(r); }},
    {"fig10_ddos_protocols", "Figure 10", "DDoS attacks by protocol",
     [](const Results& r, const Pipeline& p) {
       return report::figure10_ddos_protocols(r, p.asdb());
     }},
    {"fig11_ddos_types", "Figure 11", "DDoS attack types by family",
     [](const Results& r, const Pipeline& p) {
       return report::figure11_ddos_types(r, p.asdb());
     }},
    {"fig12_targets", "Figure 12", "DDoS targets by country and AS type",
     [](const Results& r, const Pipeline& p) {
       return report::figure12_targets(r, p.asdb());
     }},
    {"fig13_as_cdf", "Figure 13", "cumulative C2 share by AS rank",
     [](const Results& r, const Pipeline&) { return report::figure13_as_cdf(r); }},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Experiment*> picked;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kExperiments), std::end(kExperiments),
        [id = std::string_view(argv[i])](const Experiment& e) { return e.id == id; });
    if (it == std::end(kExperiments)) {
      std::cerr << "bench_paper: unknown id '" << argv[i] << "'; ids:\n";
      for (const auto& e : kExperiments) std::cerr << "  " << e.id << '\n';
      return 2;
    }
    picked.push_back(it);
  }
  if (picked.empty()) {
    for (const auto& e : kExperiments) picked.push_back(&e);
  }
  for (const auto* e : picked) {
    bench::banner(e->label, e->what);
    std::cout << e->render(bench::full_study(), bench::full_pipeline()) << std::endl;
  }
  return 0;
}
