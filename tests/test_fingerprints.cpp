// Committed study fingerprints: each configuration runs a whole study, as
// `malnetctl study <args>` would, and must reproduce its line in
// fingerprints.txt. The other byte-identity checks compare two runs of one
// build (jobs 1 against jobs N, resumed against fresh); this one compares
// against a committed reference, so a change that moves every output byte
// the same way fails here too.
//
// A line holds content hashes of the MDS bytes and of the metrics snapshot,
// both with the scheduler's event count taken out, and that event count in
// clear text beside a few other counters. A change that only moves event
// counts shows as a change in the sim_events column alone. On a mismatch
// the test prints the replacement line; a change that alters output on
// purpose pastes it in and says why.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_study.hpp"
#include "fault/fault.hpp"
#include "report/dataset_io.hpp"
#include "util/rng.hpp"

using namespace malnet;

namespace {

const std::vector<std::string> kConfigurations = {
    "--seed 22",
    "--seed 31",
    "--seed 24 --chaos flaky",
    "--seed 22 --shards 3 --jobs 3 --chaos hostile --chaos-seed 7",
    "--seed 23 --shards 4 --jobs 4 --no-probe",
};

/// The study `malnetctl study <args>` runs, for the options used above.
core::ParallelStudyConfig study_config(const std::string& args) {
  core::ParallelStudyConfig cfg;
  std::istringstream in(args);
  std::string opt;
  bool shards_given = false;
  while (in >> opt) {
    std::string value;
    if (opt != "--no-probe") in >> value;
    if (opt == "--seed") {
      cfg.base.seed = std::stoull(value);
    } else if (opt == "--no-probe") {
      cfg.base.run_probe_campaign = false;
    } else if (opt == "--chaos") {
      cfg.base.chaos = faultsim::profile_from_string(value).value();
    } else if (opt == "--chaos-seed") {
      cfg.base.chaos_seed = std::stoull(value);
    } else if (opt == "--shards") {
      cfg.shards = std::stoi(value);
      shards_given = true;
    } else if (opt == "--jobs") {
      cfg.jobs = std::stoi(value);
    } else {
      throw std::invalid_argument("fingerprint: unknown option " + opt);
    }
  }
  // --jobs alone splits the study into one shard per job.
  if (!shards_given && cfg.jobs > 0) cfg.shards = cfg.jobs;
  return cfg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fingerprint_line(const std::string& args) {
  core::StudyResults results = core::ParallelStudy(study_config(args)).run();
  const std::uint64_t sim_events = results.sim_events;
  results.sim_events = 0;
  const util::Bytes mds = report::serialize_datasets(results);
  results.metrics.counters.erase("sim_events");
  const auto packets = results.metrics.counters.find("net.packets_sent");

  std::ostringstream line;
  line << args << " | mds "
       << hex64(util::fnv1a64({reinterpret_cast<const char*>(mds.data()), mds.size()}))
       << " | metrics " << hex64(util::fnv1a64(results.metrics.to_json()))
       << " | sim_events " << sim_events << " | d_c2s " << results.d_c2s.size()
       << " | d_pc2 " << results.d_pc2.raster.size() << " | d_ddos "
       << results.d_ddos.size() << " | packets_sent "
       << (packets == results.metrics.counters.end() ? 0 : packets->second);
  return line.str();
}

/// The committed line whose first field is `args`, or "" if none is.
std::string committed_line(const std::string& args) {
  std::ifstream in(MALNET_FINGERPRINTS_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(args + " | ", 0) == 0) return line;
  }
  return "";
}

class StudyFingerprint : public testing::TestWithParam<std::string> {};

}  // namespace

TEST_P(StudyFingerprint, MatchesCommittedLine) {
  const std::string& args = GetParam();
  const std::string want = committed_line(args);
  const std::string got = fingerprint_line(args);
  EXPECT_EQ(got, want) << "the study `" << args << "` no longer matches "
                       << "tests/fingerprints.txt; if the change is on purpose, "
                       << "replace its line with:\n"
                       << got;
}

INSTANTIATE_TEST_SUITE_P(Fingerprints, StudyFingerprint,
                         testing::ValuesIn(kConfigurations),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name;
                           for (const char c : info.param) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               name += c;
                             } else if (!name.empty() && name.back() != '_') {
                               name += '_';
                             }
                           }
                           return name;
                         });
