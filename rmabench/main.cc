// rmabench: one workload, one seed, one run.
//
//   rmabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--trace-out <file>] [--record <file>]
//
// Prints the report, then a record line ("record: {...}" with the
// environment and sizes the like-for-like guard compares), then, as the last
// line, {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// result was wrong or any statement failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using rmabench::JsonEscape;
using rmabench::JsonNumber;

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "rmabench: %s\nusage: rmabench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>] [--record <file>]\n",
               why.c_str());
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rmabench::RunOptions opts;
  std::string record_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opts.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--trace-out") {
      opts.trace_path = value;
    } else if (flag == "--record") {
      record_path = value;
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  auto run = rmabench::RunWorkload(opts);
  if (!run.ok()) {
    std::fprintf(stderr, "rmabench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const rmabench::RunOutput& out = *run;
  const rmabench::Environment env = rmabench::CurrentEnvironment();

  std::printf("workload %s seed %llu seconds %g trace %d\nsizes: %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, out.sizes.c_str());
  std::printf("%s", out.report.c_str());
  for (const std::string& why : out.violations) {
    std::printf("violation: %s\n", why.c_str());
  }

  const std::string metrics = rmabench::MetricsJson(out.metrics);
  std::string record =
      "{\"workload\": \"" + JsonEscape(opts.workload) +
      "\", \"seed\": " + std::to_string(opts.seed) +
      ", \"seconds\": " + JsonNumber(opts.seconds) +
      ", \"trace\": " + (opts.trace ? "1" : "0") + ", \"sizes\": \"" +
      JsonEscape(out.sizes) + "\", \"env\": {\"hardware_concurrency\": " +
      std::to_string(env.hardware_concurrency) +
      ", \"thread_budget\": " + std::to_string(env.thread_budget) +
      ", \"simd\": \"" + JsonEscape(env.simd) + "\", \"compiler\": \"" +
      JsonEscape(env.compiler) + "\", \"build_type\": \"" +
      JsonEscape(env.build_type) + "\"}, \"correct\": " +
      (out.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metrics + "}";
  std::printf("record: %s\n", record.c_str());
  if (!record_path.empty()) {
    std::ofstream f(record_path);
    f << record << "\n";
    if (!f) std::fprintf(stderr, "rmabench: cannot write %s\n", record_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
