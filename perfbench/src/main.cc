// The DVMS benchmark's load generator. See ../README.md.
//
//   dvms_perfbench --workload <brush_scatter|crossfilter_brush|durable_ingest>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tmp-dir <dir>] [--serial-replay <0|1>]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check failed and 2 on bad arguments or a non-Release build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dvms_perfbench: %s\nusage: dvms_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp-dir <dir>] [--serial-replay <0|1>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.tmp_dir = ".bench_build/tmp";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else if (flag == "--serial-replay") {
      args.serial_replay = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return Usage(("bad value for " + flag).c_str());
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
#ifndef NDEBUG
  return Usage("built with assertions on; timings need a Release build");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return Usage("not a Release build; timings need one");
  }

  void (*run)(const RunArgs&, CallLog*, Report*) = nullptr;
  if (args.workload == "brush_scatter") {
    run = RunBrushScatter;
  } else if (args.workload == "crossfilter_brush") {
    run = RunCrossfilterBrush;
  } else if (args.workload == "durable_ingest") {
    run = RunDurableIngest;
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("context: workload %s, seed %llu, seconds %g, trace %d, nproc %zu, build %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, Nproc(), PERFBENCH_BUILD_TYPE);
  CallLog calls;
  Report report;
  run(args, &calls, &report);
  report.Print(calls);
  return report.correct ? 0 : 1;
}
