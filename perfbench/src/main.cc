// The repository benchmark's entry point. perfbench/run.py builds it and
// invokes it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--smoke]
//
// and it prints human-readable lines followed by one JSON result line (see
// stats.h ResultJson). --trace 0 measures the end-to-end metrics with no
// tracing; --trace 1 is the separate traced run that reports the per-layer
// ledger. --smoke runs a handful of ops with every check armed. Exit code 0
// means every output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload net-launch|disc-insert|"
               "studio-master --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();

  perfbench::WorkloadFactory factory;
  if (options.workload == "net-launch") {
    factory = perfbench::MakeNetLaunch;
  } else if (options.workload == "disc-insert") {
    factory = perfbench::MakeDiscInsert;
  } else if (options.workload == "studio-master") {
    factory = perfbench::MakeStudioMaster;
  } else {
    return Usage();
  }

  perfbench::RunResult result;
  if (options.trace) {
    result = perfbench::RunClosedLoopTraced(factory, options);
  } else {
    result = perfbench::RunClosedLoop(factory, options);
  }
  if (!result.correct) {
    std::printf("CHECK FAILED: %s\n", result.violation.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
