// Quickstart: run a scaled-down MalNet study end to end and print the
// headline findings. ~2 seconds; bench/bench_paper runs the paper-scale
// configuration and prints every table and figure.
#include <iostream>

#include "core/pipeline.hpp"
#include "report/figures.hpp"
#include "report/summary.hpp"
#include "report/tables.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

int main() {
  using namespace malnet;
  util::set_log_level(util::LogLevel::kInfo);  // narrate the daily loop

  core::PipelineConfig cfg;
  cfg.seed = 22;
  cfg.world.total_samples = 300;  // scaled down from the paper's 1447
  cfg.probe_rounds = 24;          // four days of probing instead of 14
  core::Pipeline pipeline(cfg);
  const auto results = pipeline.run();

  std::cout << '\n'
            << report::table1_datasets(results) << '\n'
            << report::table3_ti_miss(results) << '\n'
            << report::figure2_lifetime_ip(results) << '\n'
            << report::figure4_probe_raster(results) << '\n'
            << report::figure11_ddos_types(results, pipeline.asdb()) << '\n';

  const auto ls = report::lifespan_stats(results);
  std::cout << "Headline: " << util::percent(ls.dead_on_arrival)
            << " of C2-referring samples had a dead C2 on arrival (paper: 60%); "
            << "attack-issuing C2s live " << util::fixed(ls.attacker_mean_days, 1)
            << " days vs " << util::fixed(ls.mean_days, 1) << " overall.\n";
  std::cout << "Simulated " << results.sim_events << " events across "
            << results.sandbox_runs << " sandbox runs.\n";
  return 0;
}
