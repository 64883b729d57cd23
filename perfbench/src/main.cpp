// perfbench: end-to-end and per-layer benchmark of libmahimahi.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Workloads: rt-steady, rt-saturate, rt-kv-crash (a loopback NodeRuntime
// committee in this process) and sim-wan50 (the simulator at n=50). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 the per-layer
// metrics of a traced run plus its replay through each layer. The last line
// of standard output is one JSON object; the exit code is non-zero when a
// correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "report.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && !options.workdir.empty() &&
         options.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(options.workdir);
  perfbench::Result result;
  try {
    if (perfbench::is_runtime_workload(options.workload)) {
      result = perfbench::run_runtime_workload(options);
    } else if (options.workload == "sim-wan50") {
      result = perfbench::run_sim_workload(options);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", perfbench::render_json(result).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
