// perfbench — runs one workload of the MalNet benchmark and prints its
// metrics; the last line of standard output is the JSON result.
//
//   perfbench --workload <study-paper|study-sharded|serve-mixed>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out trace.json] [--commit ID]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice at half the time each, untraced and then traced, reports the
// per-layer metrics of the traced pass, and prints both passes'
// end-to-end numbers side by side as the tracing overhead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "checks.hpp"
#include "spans.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <study-paper|study-sharded|serve-mixed> "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--commit ID]\n");
  std::exit(2);
}

void print_metrics(const std::map<std::string, double>& metrics,
                   const std::vector<std::string>& order) {
  for (const auto& name : order) {
    std::printf("  %-32s %16.4f %s\n", name.c_str(), metrics.at(name),
                unit_of(name).c_str());
  }
}

std::string result_json(bool correct, const CheckLog& checks,
                        const std::map<std::string, double>& metrics,
                        const std::vector<std::string>& order) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted()) +
                    ", \"failed\": " + std::to_string(checks.failed()) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < order.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics.at(order[i]));
    out += (i ? ", " : "") + std::string("\"") + order[i] + "\": {\"value\": " + value +
           ", \"unit\": \"" + unit_of(order[i]) + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--probe-setup") {
      try {
        std::printf("%.3f\n", probe_setup_us());
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "probe failed: %s\n", e.what());
        return 1;
      }
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage();
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (!args.count(required)) usage();
  }
  malnet::util::set_log_level(malnet::util::LogLevel::kOff);

  RunOptions opt;
  opt.workload = args["workload"];
  opt.seed = std::stoull(args["seed"]);
  opt.seconds = std::stod(args["seconds"]);
  opt.work_dir = args["work-dir"];
  opt.self_exe = argv[0];
  const bool trace = args["trace"] == "1";
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == opt.workload;
  if (!known || opt.seconds <= 0) usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("env: build_type=%s compiler=\"%s\" nproc=%u commit=%s seed=%llu "
              "workload=%s seconds=%g trace=%d\n",
              build_type.c_str(), PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
              args.count("commit") ? args["commit"].c_str() : "unknown",
              static_cast<unsigned long long>(opt.seed), opt.workload.c_str(), opt.seconds,
              trace ? 1 : 0);
  if (build_type != "Release") {
    std::printf("WARNING: %s build; timings are not comparable to Release\n",
                build_type.c_str());
  }

  namespace fs = std::filesystem;
  CheckLog checks;
  RepeatCheck repeats;
  std::map<std::string, double> reported;
  const std::vector<std::string>* order = nullptr;
  try {
    fs::remove_all(opt.work_dir);
    fs::create_directories(opt.work_dir);
    if (!trace) {
      SpanLog off(opt.seed, false);
      const auto m = run_workload(opt, checks, repeats, off);
      for (const auto& line : m.lines) std::printf("%s\n", line.c_str());
      if (m.end_to_end.count("query_p50_us")) {
        std::printf("query latency (gated only per layer):\n");
        for (const char* name : {"query_p50_us", "query_p99_us", "query_max_rps"}) {
          std::printf("  %-32s %16.4f %s\n", name, m.end_to_end.at(name),
                      unit_of(name).c_str());
        }
      }
      std::printf("end-to-end metrics (%s, seed %llu):\n", opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed));
      reported = m.end_to_end;
      order = &end_to_end_names();
    } else {
      auto half = opt;
      half.seconds = opt.seconds / 2;
      SpanLog off(opt.seed, false);
      const auto plain = run_workload(half, checks, repeats, off);
      SpanLog spans(opt.seed, true);
      const auto traced = run_workload(half, checks, repeats, spans);
      for (const auto& line : traced.lines) std::printf("%s\n", line.c_str());
      std::printf("tracing overhead (end-to-end, untraced vs traced pass):\n");
      for (const auto& [name, a] : plain.end_to_end) {
        const double b = traced.end_to_end.at(name);
        std::printf("  %-20s %14.4f %14.4f  %+7.1f%%  %s\n", name.c_str(), a, b,
                    a != 0 ? (b - a) / a * 100 : 0.0, unit_of(name).c_str());
      }
      const auto& L = traced.layers;
      std::printf("self time: layers sum %.3f ms, traced wall %.3f ms, residual %.3f ms\n",
                  L.at("trace.self_sum_ms"), L.at("trace.wall_ms"),
                  L.at("trace.residual_ms"));
      if (args.count("trace-out")) {
        spans.write_chrome_trace(args["trace-out"]);
        std::printf("trace written to %s\n", args["trace-out"].c_str());
      }
      std::printf("per-layer metrics (%s, seed %llu):\n", opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed));
      reported = L;
      order = &layer_names();
    }
    fs::remove_all(opt.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    return 1;
  }
  print_metrics(reported, *order);
  const double error_rate = checks.attempted() > 0
                                ? static_cast<double>(checks.failed()) /
                                      static_cast<double>(checks.attempted())
                                : 1.0;
  std::printf("  %-32s %16.6f ratio (failed %llu of %llu attempted)\n", "error_rate",
              error_rate, static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  for (const auto& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  bool correct = checks.failed() == 0 && checks.attempted() > 0;
  for (const auto& name : *order) correct = correct && std::isfinite(reported.at(name));
  std::printf("%s\n", result_json(correct, checks, reported, *order).c_str());
  return 0;
}
