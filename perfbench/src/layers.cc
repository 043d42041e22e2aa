#include "layers.h"

#include <cstdlib>

#include "events/recognizer.h"
#include "expr/udf_registry.h"
#include "parser/parser.h"

namespace perfbench {

ViewDiff::ViewDiff(const dvms::Dvms& engine) : engine_(engine), previous_(Capture()) {}

std::map<std::string, ViewDiff::Multiset> ViewDiff::Capture() const {
  // The catalog, not Dvms::GetTable: GetTable takes the engine write lock,
  // and core.write_lock_per_read must see only the engine's own takes.
  const dvms::Catalog& catalog = engine_.catalog();
  std::map<std::string, Multiset> out;
  for (const std::string& name : catalog.Names()) {
    auto kind = catalog.KindOf(name);
    if (!kind.ok() || (kind.value() != dvms::RelationKind::kView &&
                       kind.value() != dvms::RelationKind::kMarks)) {
      continue;
    }
    auto table = catalog.Get(name);
    if (!table.ok()) continue;
    const dvms::Table& t = table.value()->current();
    Multiset& rows = out[name];
    for (size_t r = 0; r < t.num_rows(); ++r) {
      size_t h = 0x51ed2701a3c5e891ull;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        h ^= t.ValueAt(r, c).Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      ++rows[h];
    }
  }
  return out;
}

uint64_t ViewDiff::Step() {
  std::map<std::string, Multiset> current = Capture();
  uint64_t changed = 0;
  for (const auto& [name, rows] : current) {
    const Multiset* before = nullptr;
    auto it = previous_.find(name);
    if (it != previous_.end()) before = &it->second;
    for (const auto& [h, n] : rows) {
      int64_t m = 0;
      if (before != nullptr) {
        auto b = before->find(h);
        if (b != before->end()) m = b->second;
      }
      changed += static_cast<uint64_t>(std::llabs(n - m));
    }
    if (before == nullptr) continue;
    for (const auto& [h, m] : *before) {
      if (rows.find(h) == rows.end()) changed += static_cast<uint64_t>(m);
    }
  }
  previous_ = std::move(current);
  return changed;
}

void PublishTimer::Time(const dvms::Catalog& catalog, bool keep) {
  const Clock::time_point t0 = Clock::now();
  manager_.Publish(catalog);
  const double us = MsSince(t0) * 1000.0;
  if (keep) us_.push_back(us);
}

double FeedMicros(const std::string& program,
                  const std::vector<dvms::InputEvent>& events, Report* report) {
  dvms::obs::SuppressScope quiet;
  auto parsed = dvms::ParseProgram(program);
  if (!parsed.ok()) {
    report->Fail("standalone recognizer: " + parsed.status().ToString());
    return 0;
  }
  dvms::Catalog catalog;
  dvms::UdfRegistry udfs = dvms::UdfRegistry::WithBuiltins();
  dvms::EventRecognizer recognizer(&catalog, &udfs);
  for (const dvms::Statement& st : parsed.value().statements) {
    if (st.kind != dvms::Statement::Kind::kEventDef) continue;
    dvms::Status defined = recognizer.DefinePattern(st.target_name, st.event);
    if (!defined.ok()) {
      report->Fail("standalone recognizer: " + defined.ToString());
      return 0;
    }
  }
  if (events.empty()) return 0;
  const Clock::time_point t0 = Clock::now();
  for (const dvms::InputEvent& e : events) {
    auto fed = recognizer.Feed(e);
    if (!fed.ok()) {
      report->Fail("standalone recognizer feed: " + fed.status().ToString());
      return 0;
    }
  }
  return MsSince(t0) * 1000.0 / static_cast<double>(events.size());
}

void ReportLayers(const LayerInputs& in, Report* report) {
  auto delta = [&in](const std::string& name) { return Delta(in.before, in.after, name); };
  auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  auto layer_ms = [&in](const std::string& layer) {
    double ms = 0;
    for (const std::string& root : in.op_roots) ms += in.drain->Layer(root, layer).ms;
    return ms;
  };
  double rows_out = 0;
  for (const auto& [name, value] : in.after) {
    if (name.rfind("exec.rows.", 0) == 0 && name != "exec.rows.Scan") {
      rows_out += delta(name);
    }
  }
  const double scanned = delta("exec.rows.Scan");
  // Engine orchestration: PushEvent has its own engine.push_event span;
  // Insert/Delete have none, so the benchmark's span stands in.
  SpanTotal op_self;
  for (const char* name : {"engine.push_event", "bench.insert", "bench.delete"}) {
    const SpanTotal t = in.drain->Self(name);
    op_self.count += t.count;
    op_self.ms += t.ms;
  }
  SpanTotal snapshots;
  for (const std::string& root : in.op_roots) {
    const SpanTotal t = in.drain->Total(root, "snapshot.write");
    snapshots.count += t.count;
    snapshots.ms += t.ms;
  }

  report->Set("trace.ops", in.ops, "count");
  report->Set("trace.overhead_ms", in.overhead_ms, "ms");
  report->Set("trace.overhead_pct", per(100.0 * in.overhead_ms, in.untraced_p50_ms), "%");
  report->Set("trace.spans_dropped", static_cast<double>(in.drain->spans_dropped()), "count");

  report->Set("events.feed_us", in.feed_us, "us");
  report->Set("events.transitions_per_event", per(delta("events.transitions"), in.events),
              "count");

  report->Set("core.op_self_ms", per(op_self.ms, op_self.count), "ms");
  report->Set("core.publish_us", in.publish_us, "us");
  report->Set("core.write_lock_per_read", in.write_lock_per_read, "count");

  report->Set("query.recompute_ms_per_op", per(layer_ms("query"), in.ops), "ms");
  report->Set("query.recomputes_per_op", per(delta("view.recomputes"), in.ops), "count");
  report->Set("query.rows_scanned_per_op", per(scanned, in.ops), "count");
  report->Set("query.rows_out_per_op", per(rows_out, in.ops), "count");
  report->Set("query.useful_row_ratio", per(in.changed_rows, scanned), "ratio");
  report->Set("query.setup_ms", in.setup_query_ms, "ms");

  report->Set("render.raster_ms_per_op", per(layer_ms("render"), in.ops), "ms");
  report->Set("render.marks_per_op", per(delta("raster.marks"), in.ops), "count");
  report->Set("render.frames_per_op", per(delta("raster.frames"), in.ops), "count");

  report->Set("durability.ms_per_op", per(layer_ms("durability"), in.ops), "ms");
  report->Set("durability.wal_append_us",
              per(delta("wal.append_us.sum"), delta("wal.append_us.count")), "us");
  report->Set("durability.wal_fsync_us",
              per(delta("wal.fsync_us.sum"), delta("wal.fsync_us.count")), "us");
  report->Set("durability.fsyncs_per_commit", per(delta("wal.fsyncs"), in.writes), "count");
  report->Set("durability.wal_bytes_per_commit", per(delta("wal.append_bytes"), in.writes),
              "B");
  report->Set("durability.snapshot_write_ms", per(snapshots.ms, snapshots.count), "ms");
  report->Set("durability.snapshot_writes", delta("snapshot.writes"), "count");

  report->Set("session.epoch_lag", in.epoch_lag, "count");
  report->Set("session.read_p50_ms", in.read_p50_ms, "ms");
  report->Set("session.read_p99_ms", in.read_p99_ms, "ms");
  report->Set("session.reads_per_s", in.reads_per_s, "1/s");

  report->Set("pool.morsels_per_op", per(delta("pool.morsels"), in.ops), "count");
  report->Set("pool.steals_per_op", per(delta("pool.steals"), in.ops), "count");

  if (in.drain->spans_dropped() > 0) {
    report->Fail("the obs span ring dropped " +
                 std::to_string(in.drain->spans_dropped()) +
                 " spans; per-layer sums are incomplete");
  }
}

}  // namespace perfbench
