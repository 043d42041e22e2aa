#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

// Reads the engine's own obs spans and counters for the traced run.
//
// The obs span ring holds the last dvms::obs::kSpanRingCapacity completed spans.
// Drain() copies the spans completed since the previous drain and folds
// them into per-root aggregates; called after every op, it keeps up with
// the ring, and any span evicted before it was read is counted in
// spans_dropped().

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Wall time and count of one span name inside one root's trees.
struct SpanTotal {
  uint64_t count = 0;
  double ms = 0;
};

/// The layer an engine span belongs to: "query" (view.recompute,
/// ivm.fold), "render" (raster.frame) or "durability" (wal.*,
/// snapshot.write); null for orchestration spans such as engine.push_event.
const char* LayerOf(const std::string& name);

class SpanDrain {
 public:
  SpanDrain();

  /// Folds every span completed since the last call. Call from one thread.
  void Drain();

  uint64_t spans_dropped() const { return dropped_; }

  /// Time of `name` spans under roots named `root`, counting a span only
  /// when no ancestor has the same name (so recursion is not double
  /// counted).
  SpanTotal Total(const std::string& root, const std::string& name) const;

  /// Busy time of one layer (see LayerOf) under roots named `root`: the
  /// outermost spans of that layer, so nested layer spans count once.
  SpanTotal Layer(const std::string& root, const std::string& layer) const;

  /// Self time of `name` spans: duration minus the time covered by their
  /// outermost descendants that belong to a layer.
  SpanTotal Self(const std::string& name) const;

  /// Forgets the aggregates (not the drain position).
  void ClearTotals();

 private:
  struct Node {
    uint64_t parent;
    std::string name;
    double ms;
  };
  void Fold(const std::vector<dvms::obs::SpanRow>& batch);

  uint64_t last_id_ = 0;  // newest span seen by the previous drain
  uint64_t dropped_ = 0;
  // Spans whose ancestors have not all completed yet (other threads).
  std::vector<dvms::obs::SpanRow> pending_;
  std::map<std::pair<std::string, std::string>, SpanTotal> totals_;
  std::map<std::pair<std::string, std::string>, SpanTotal> layers_;
  std::map<std::string, SpanTotal> self_;
};

/// Counter values from dvms::obs::SnapshotMetrics(): counters by name, and
/// histogram sums/counts under "<name>.sum" / "<name>.count".
std::map<std::string, double> MetricValues();

/// b[name] - a[name] (missing = 0).
double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
