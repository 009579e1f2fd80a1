// bench_e2e: runs one workload and prints its metrics.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-dir DIR] [--results-dir DIR]
//             [--git-sha SHA]
//
// Prints a STAMP line (build and host), one line per metric with its unit,
// notes on every phase, and as its last line one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 0 only when every output check passed. Use run.py,
// which builds this binary in Release first.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "build_stamp.h"
#include "harness.h"

namespace {

using namespace pe::bench_e2e;

const char* arg(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Refuses any build but Release with the lock-order detector off: the
/// numbers would describe a program nobody ships.
const char* build_refusal() {
#if defined(PE_LOCK_ORDER)
  return "built with PE_LOCK_ORDER";
#endif
#if !defined(NDEBUG)
  return "built without NDEBUG";
#endif
  if (std::strcmp(PE_BENCH_BUILD_TYPE, "Release") != 0) {
    return "build type is not Release";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* refusal = build_refusal()) {
    std::fprintf(stderr, "bench_e2e: refusing to report: %s\n", refusal);
    return 2;
  }
  RunOptions options;
  options.workload = arg(argc, argv, "--workload", "");
  options.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
  options.seconds = std::atof(arg(argc, argv, "--seconds", "10"));
  options.trace = std::strcmp(arg(argc, argv, "--trace", "0"), "1") == 0;
  options.work_dir = arg(argc, argv, "--work-dir", ".bench_build/work");
  options.trace_dir = arg(argc, argv, "--trace-dir", ".bench_build/traces");
  const std::string results_dir =
      arg(argc, argv, "--results-dir", ".bench_build/results");
  const std::string git_sha = arg(argc, argv, "--git-sha", "unknown");
  if (options.seconds <= 0) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    return 2;
  }

  // Open-loop senders sleep until each due time; a 1 ns timer slack keeps
  // their wake-ups close to it. Threads inherit the slack.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  ::signal(SIGPIPE, SIG_IGN);

  const std::string stamp =
      "{\"build_type\":" + json_string(PE_BENCH_BUILD_TYPE) +
      ",\"pe_lock_order\":\"off\",\"compiler\":" +
      json_string(PE_BENCH_COMPILER) +
      ",\"flags\":" + json_string(PE_BENCH_CXX_FLAGS) +
      ",\"nproc\":" + std::to_string(usable_cpus()) +
      ",\"git_sha\":" + json_string(git_sha) +
      ",\"workload\":" + json_string(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + json_number(options.seconds) +
      ",\"trace\":" + (options.trace ? "1" : "0") + "}";
  std::printf("STAMP %s\n", stamp.c_str());
  std::fflush(stdout);

  auto result = run_workload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const RunResult& r = result.value();
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("METRIC %-34s %14.6g %s\n", "failed_frac", failed_frac, "frac");
  for (const Metric& m : r.printed_only) {
    std::printf("METRIC %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("METRIC %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  metrics += "}";
  const std::string line = std::string("{\"correct\": ") +
                           (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(r.attempted) +
                           ", \"failed\": " + std::to_string(r.failed) +
                           ", \"metrics\": " + metrics + "}";

  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);
  const std::string path = results_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"stamp\": %s, \"result\": %s}\n", stamp.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
