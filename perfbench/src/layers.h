#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer measurements of the traced run: the layers without a boundary
// span (NFA feed, snapshot publish) are timed by calling their public
// functions directly, and one function turns all of it into the per-layer
// metric list, so every workload prints the same names.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "concurrency/snapshot.h"
#include "core/dvms.h"
#include "tracer.h"

namespace perfbench {

/// Counts rows entering plus rows leaving every maintained view (kView and
/// kMarks relations) between two calls of Step(). Reads cells through the
/// columns so it never builds a table's row cache.
class ViewDiff {
 public:
  explicit ViewDiff(const dvms::Dvms& engine);
  /// Rows whose membership changed since the previous Step (or the
  /// constructor).
  uint64_t Step();

 private:
  using Multiset = std::unordered_map<size_t, int64_t>;
  std::map<std::string, Multiset> Capture() const;
  const dvms::Dvms& engine_;
  std::map<std::string, Multiset> previous_;
};

/// Times SnapshotManager::Publish of the engine's catalog on a standalone
/// manager, so the engine's own epochs are untouched.
class PublishTimer {
 public:
  /// Publishes once; records the time when `keep` is set.
  void Time(const dvms::Catalog& catalog, bool keep);
  double MeanUs() const { return Mean(us_); }

 private:
  dvms::SnapshotManager manager_;
  std::vector<double> us_;
};

/// Mean microseconds per EventRecognizer::Feed when `events` are replayed
/// through a standalone recognizer compiled from the EVENT statement of
/// `program`. Runs with obs recording suppressed.
double FeedMicros(const std::string& program,
                  const std::vector<dvms::InputEvent>& events, Report* report);

/// Everything the per-layer metric list is computed from.
struct LayerInputs {
  std::vector<std::string> op_roots;  // benchmark span names of the ops
  double ops = 0;                     // traced ops
  double events = 0;                  // traced PushEvent calls
  double writes = 0;                  // traced Insert/Delete calls
  std::map<std::string, double> before, after;  // MetricValues() deltas
  const SpanDrain* drain = nullptr;
  double overhead_ms = 0;   // traced minus untraced op p50
  double untraced_p50_ms = 0;
  double changed_rows = 0;  // ViewDiff over the traced ops
  double publish_us = 0;
  double feed_us = 0;
  double setup_query_ms = 0;  // query-layer busy time inside the set-up
  double write_lock_per_read = 0;
  double epoch_lag = 0;
  double read_p50_ms = 0, read_p99_ms = 0, reads_per_s = 0;
};

/// Sets every per-layer metric on `report`; fails the run when spans were
/// dropped, since the sums would then be incomplete.
void ReportLayers(const LayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
