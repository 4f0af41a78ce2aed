// The benchmark's three workloads. Each analyses samples, commits them to
// a store and replicates the store, so every run yields every end-to-end
// metric; serve-mixed also serves queries:
//
//   study-paper    the CLI-default study (paper scale, probe campaign on,
//                  one shard, jobs 1) on consecutive seeds, each study's
//                  output pushed into one replica.
//   study-sharded  paper-scale studies on consecutive seeds, campaign off,
//                  shards 4 / jobs 4, every shard committed to the study's
//                  store as it completes, the store then pushed into one
//                  replica.
//   serve-mixed    an aggregator of paper-scale shard segments served over
//                  TCP under an open-loop query ladder while a fourth
//                  connection pushes producers' daily batches into it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 22;
  double seconds = 20;
  /// Scratch directory for stores; created and removed by the caller.
  std::string work_dir;
  /// This executable, re-run as a fresh process to time one-time set-up.
  std::string self_exe;
};

struct Measured {
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics; filled only when the span log is enabled.
  std::map<std::string, double> layers;
  std::vector<std::string> lines;  // the human-readable report
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& layer_names();
/// Unit of any metric name listed above.
[[nodiscard]] std::string unit_of(const std::string& metric);

/// Runs one pass of `opt.workload`. With `spans` enabled the pass is the
/// traced one: it also turns on the program's wall-clock phase profile,
/// replays one shard through a standalone sandbox, and times the layer
/// calls it makes.
/// `repeats` spans passes, so a traced pass must also reproduce the
/// untraced pass's digests.
[[nodiscard]] Measured run_workload(const RunOptions& opt, CheckLog& checks,
                                    RepeatCheck& repeats, SpanLog& spans);

/// Microseconds this process spends in the one-time initialisers
/// (profile::Registry::builtin, vulndb::VulnDatabase::instance). Only
/// meaningful as the first thing a fresh process does.
[[nodiscard]] double probe_setup_us();

}  // namespace perfbench
