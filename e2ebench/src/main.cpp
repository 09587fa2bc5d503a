// e2ebench: end-to-end benchmark of rdtgc.
//
//   e2ebench --workload <sim_steady_n64|sim_churn_n8|fleet_star_n4>
//            --seed <n> --seconds <s> --trace <0|1>
//            --media <dir> --out <dir>
//
// Prints a table of every metric and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 when a
// correctness check fails, 2 on bad arguments or a non-Release build.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "workloads.hpp"

namespace e2e {

std::string fresh_media_dir(const Options& options) {
  const std::string dir = options.media_dir + "/" + options.workload;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void emit(const Catalog& catalog, const std::map<std::string, double>& values,
          Result& result) {
  std::set<std::string> known;
  for (const auto& [name, unit] : catalog) {
    known.insert(name);
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values)
    result.check(known.count(name) == 1, "metric outside the catalogue: " + name);
}

}  // namespace e2e

namespace {

/// Pin this process, and so every worker it spawns, to the highest-numbered
/// CPU it may use; returns that CPU, or -1 when the mask cannot be read.
/// Every workload issues one operation at a time, so one core carries the
/// whole run; without the pin, cross-core wake-ups on a shared virtual
/// machine made fleet runs swing twofold.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sim_steady_n64|sim_churn_n8|"
               "fleet_star_n4> --seed <n> --seconds <s> --trace <0|1> "
               "--media <dir> --out <dir>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--media") options.media_dir = value;
    else if (key == "--out") options.out_dir = value;
    else return usage(argv[0]);
  }
  const bool sim = options.workload == "sim_steady_n64" ||
                   options.workload == "sim_churn_n8";
  if ((!sim && options.workload != "fleet_star_n4") || argc % 2 != 1 ||
      options.media_dir.empty() || options.out_dir.empty() ||
      options.seconds <= 0)
    return usage(argv[0]);
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "e2ebench: built as '%s', not Release; refusing to measure\n",
                 E2E_BUILD_TYPE);
    return 2;
  }

  const int cpu = pin_to_one_cpu();
  e2e::Result result;
  try {
    result = sim ? e2e::run_sim(options) : e2e::run_fleet(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  result.note("compiler", E2E_COMPILER);
  result.note("pinned to cpu", std::to_string(cpu));
  result.note("media filesystem", e2e::fs_type(options.media_dir));
  e2e::print_result(result, options.workload);
  return result.correct ? 0 : 1;
}
