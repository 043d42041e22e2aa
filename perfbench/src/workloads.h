#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Parent of the durable workload's data directory.
  std::string tmp_dir;
  /// brush_scatter: replay every event through a num_threads=1 engine and
  /// compare the final framebuffers.
  bool serial_replay = true;
};

/// Each runs one workload for `args.seconds`, checks its outputs, and
/// fills `report` with the end-to-end metrics (args.trace false) or the
/// per-layer metrics (args.trace true).
void RunBrushScatter(const RunArgs& args, CallLog* calls, Report* report);
void RunCrossfilterBrush(const RunArgs& args, CallLog* calls, Report* report);
void RunDurableIngest(const RunArgs& args, CallLog* calls, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
