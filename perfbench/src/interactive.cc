// The two interactive workloads: one simulated user drags a brush, and
// every PushEvent is timed from the call until it returns with the new
// pixels rendered.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/dvms.h"
#include "core/session.h"
#include "layers.h"
#include "obs/trace.h"
#include "programs.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dvms::Dvms;
using dvms::InputEvent;
using dvms::Row;
using dvms::Value;

constexpr int kMovesPerDrag = 20;
constexpr int64_t kEventGapMs = 16;

/// One interactive workload: its data, engine set-up, drags and checks.
class Interactive {
 public:
  virtual ~Interactive() = default;
  virtual const char* program() const = 0;
  /// Builds an engine and loads the data and the program (the timed
  /// set-up). Returns null after reporting a failure.
  virtual std::unique_ptr<Dvms> Setup(size_t threads, bool trace, CallLog* calls,
                                      Report* report) const = 0;
  /// The next seeded drag: MOUSE_DOWN, kMovesPerDrag MOUSE_MOVEs, MOUSE_UP.
  virtual std::vector<InputEvent> NextDrag(InputRng* rng, int64_t* t) const = 0;
  /// Checks after event `i` of `drag` (not timed).
  virtual void AfterEvent(const Dvms& engine, const std::vector<InputEvent>& drag,
                          size_t i, Report* report) const = 0;
  /// The read the application makes through a Session after each drag
  /// (a label or total next to the charts), and its check.
  virtual const char* ReadSql() const = 0;
  virtual void CheckRead(const dvms::Table& result, const std::vector<InputEvent>& drag,
                         Report* report) const = 0;
  /// Checks after the whole run (not timed). `events` is every event the
  /// engine received.
  virtual void Finish(const Dvms& engine, const std::vector<InputEvent>& events,
                      CallLog* calls, Report* report) const = 0;
};

std::vector<InputEvent> LinearDrag(int64_t* t, double x0, double y0, double x1,
                                   double y1) {
  std::vector<InputEvent> drag;
  drag.push_back(InputEvent::MouseDown(*t, x0, y0));
  for (int m = 1; m <= kMovesPerDrag; ++m) {
    *t += kEventGapMs;
    // Whole pixels, as a pointer reports them.
    drag.push_back(InputEvent::MouseMove(*t, std::round(x0 + (x1 - x0) * m / kMovesPerDrag),
                                         std::round(y0 + (y1 - y0) * m / kMovesPerDrag)));
  }
  *t += kEventGapMs;
  drag.push_back(InputEvent::MouseUp(*t, x1, y1));
  *t += kEventGapMs;
  return drag;
}

// ---------------------------------------------------------------------------
// brush_scatter: Figure 2 over 10,000 points.

class BrushScatter : public Interactive {
 public:
  static constexpr size_t kPoints = 10000;
  static constexpr double kCanvas = 400;

  BrushScatter(uint64_t seed, bool serial_replay) : serial_replay_(serial_replay) {
    InputRng rng(seed);
    for (size_t i = 0; i < kPoints; ++i) {
      const double profit = rng.Uniform(0, 100);
      const double revenue = rng.Uniform(0, 100);
      rows_.push_back({Value::Int(static_cast<int64_t>(i)), Value::Double(profit),
                       Value::Double(revenue)});
      // linear_scale(v, 0, 100, 0, 400), evaluated as the engine does.
      cx_.push_back(0.0 + ((revenue - 0.0) / 100.0) * (kCanvas - 0.0));
      cy_.push_back(0.0 + ((profit - 0.0) / 100.0) * (kCanvas - 0.0));
    }
  }

  const char* program() const override { return kBrushProgram; }

  std::unique_ptr<Dvms> Setup(size_t threads, bool trace, CallLog* calls,
                              Report* report) const override {
    return Build(threads, trace, calls, report);
  }

  std::unique_ptr<Dvms> Build(size_t threads, bool trace, CallLog* calls,
                              Report* report) const {
    Dvms::Options options;
    options.canvas_width = static_cast<size_t>(kCanvas);
    options.canvas_height = static_cast<size_t>(kCanvas);
    options.num_threads = threads;
    options.trace = trace;
    auto engine = std::make_unique<Dvms>(options);
    if (!calls->Note("CreateBaseTable", engine->CreateBaseTable("Sales", BrushSalesSchema())).ok() ||
        !calls->Note("Insert", engine->Insert("Sales", rows_)).ok() ||
        !calls->Note("LoadProgram", engine->LoadProgram(kBrushProgram)).ok()) {
      report->Fail("brush_scatter set-up failed");
      return nullptr;
    }
    return engine;
  }

  std::vector<InputEvent> NextDrag(InputRng* rng, int64_t* t) const override {
    const double x0 = static_cast<double>(rng->Int(0, 399));
    const double y0 = static_cast<double>(rng->Int(0, 399));
    const double x1 = static_cast<double>(rng->Int(0, 399));
    const double y1 = static_cast<double>(rng->Int(0, 399));
    return LinearDrag(t, x0, y0, x1, y1);
  }

  /// Points inside the brush after event `i` of `drag`. BBOX spans the
  /// MOUSE_DOWN point and the newest MOUSE_MOVE (MOUSE_UP returns no row).
  size_t BruteForceSelected(const std::vector<InputEvent>& drag, size_t i) const {
    const InputEvent& down = drag.front();
    const InputEvent& last = drag[std::min(i, drag.size() - 2)];
    const double x0 = std::min(down.x, last.x), x1 = std::max(down.x, last.x);
    const double y0 = std::min(down.y, last.y), y1 = std::max(down.y, last.y);
    size_t n = 0;
    for (size_t p = 0; p < cx_.size(); ++p) {
      n += cx_[p] >= x0 && cx_[p] <= x1 && cy_[p] >= y0 && cy_[p] <= y1;
    }
    return n;
  }

  void AfterEvent(const Dvms& engine, const std::vector<InputEvent>& drag, size_t i,
                  Report* report) const override {
    const size_t expected = BruteForceSelected(drag, i);
    auto selected = engine.GetTable("selected");
    if (!selected.ok()) {
      report->Fail("GetTable(selected): " + selected.status().ToString());
    } else if (selected.value()->num_rows() != expected) {
      report->Fail("selected has " + std::to_string(selected.value()->num_rows()) +
                   " rows at event t=" + std::to_string(drag[i].t) +
                   ", brute force counts " + std::to_string(expected));
    }
  }

  const char* ReadSql() const override { return "SELECT COUNT(*) AS n FROM selected"; }

  void CheckRead(const dvms::Table& result, const std::vector<InputEvent>& drag,
                 Report* report) const override {
    const size_t expected = BruteForceSelected(drag, drag.size() - 1);
    if (result.num_rows() != 1 || result.ValueAt(0, 0).type() != dvms::ValueType::kInt64 ||
        result.ValueAt(0, 0).int_value() != static_cast<int64_t>(expected)) {
      report->Fail("Session read of COUNT(*) FROM selected differs from the brute-force " +
                   std::to_string(expected) + " after the drag ending at t=" +
                   std::to_string(drag.back().t));
    }
  }

  void Finish(const Dvms& engine, const std::vector<InputEvent>& events, CallLog* calls,
              Report* report) const override {
    if (!serial_replay_) return;
    // The same events through a serial engine must give the same pixels.
    std::unique_ptr<Dvms> serial = Build(1, false, calls, report);
    if (serial == nullptr) return;
    for (const InputEvent& e : events) {
      if (!calls->Note("PushEvent", serial->PushEvent(e)).ok()) {
        report->Fail("serial replay: PushEvent failed");
        return;
      }
    }
    if (!serial->pixels().Equals(engine.pixels())) {
      report->Fail("final framebuffer differs from the num_threads=1 replay");
    }
    report->notes.push_back("check: final framebuffer equals the num_threads=1 replay of " +
                            std::to_string(events.size()) + " events");
  }

 private:
  bool serial_replay_;
  std::vector<Row> rows_;
  std::vector<double> cx_, cy_;
};

// ---------------------------------------------------------------------------
// crossfilter_brush: Figure 1 over 50,000 TPC-H-shaped rows.

class CrossfilterBrush : public Interactive {
 public:
  static constexpr size_t kRows = 50000;
  static constexpr int kFirstYear = 1992, kYears = 7;

  explicit CrossfilterBrush(uint64_t seed) {
    // Denormalized lineitem-like facts: region, order year/month/weekday,
    // revenue = quantity * price * (1 - discount) with a seasonal trend.
    static const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                           "MIDDLE EAST"};
    InputRng rng(seed);
    for (size_t i = 0; i < kRows; ++i) {
      const std::string region = kRegions[rng.Int(0, 4)];
      const int64_t year = kFirstYear + rng.Int(0, kYears - 1);
      const int64_t month = rng.Int(1, 12);
      const int64_t dow = rng.Int(0, 6);
      const double quantity = static_cast<double>(rng.Int(1, 50));
      const double price = rng.Uniform(900.0, 2100.0);
      const double discount = rng.Uniform(0.0, 0.10);
      const double revenue = quantity * price * (1.0 - discount) *
                             (1.0 + 0.02 * static_cast<double>(month) +
                              0.01 * static_cast<double>(year - kFirstYear));
      rows_.push_back({Value::Int(static_cast<int64_t>(i)), Value::String(region),
                       Value::Int(year), Value::Int(month), Value::Int(dow),
                       Value::Double(quantity), Value::Double(revenue)});
      region_total_[region] += revenue;
    }
    const double band = (kYearX1 - kYearX0) / kYears;
    for (int y = 0; y < kYears; ++y) {
      band_x0_.push_back(kYearX0 + y * band);
      band_x1_.push_back(kYearX0 + (y + 1) * band);
    }
  }

  const char* program() const override { return kCrossfilterProgram; }

  std::unique_ptr<Dvms> Setup(size_t threads, bool trace, CallLog* calls,
                              Report* report) const override {
    Dvms::Options options;
    options.canvas_width = 800;
    options.canvas_height = 600;
    options.num_threads = threads;
    options.enable_online_optimizer = true;
    options.trace = trace;
    auto engine = std::make_unique<Dvms>(options);
    using dvms::ValueType;
    dvms::Schema sales({{"orderkey", ValueType::kInt64},
                        {"region", ValueType::kString},
                        {"year", ValueType::kInt64},
                        {"month", ValueType::kInt64},
                        {"dow", ValueType::kInt64},
                        {"quantity", ValueType::kDouble},
                        {"revenue", ValueType::kDouble}});
    std::vector<Row> regions, bands;
    int64_t idx = 0;
    double max_total = 1;
    for (const auto& [region, total] : region_total_) {
      regions.push_back({Value::String(region), Value::Int(idx++)});
      max_total = std::max(max_total, total);
    }
    for (int y = 0; y < kYears; ++y) {
      bands.push_back({Value::Int(kFirstYear + y), Value::Double(band_x0_[y]),
                       Value::Double(band_x1_[y])});
    }
    const bool ok =
        calls->Note("CreateBaseTable", engine->CreateBaseTable("Sales", sales)).ok() &&
        calls->Note("Insert", engine->Insert("Sales", rows_)).ok() &&
        calls->Note("CreateBaseTable",
                    engine->CreateBaseTable("region_dim",
                                            dvms::Schema({{"region", ValueType::kString},
                                                          {"idx", ValueType::kInt64}})))
            .ok() &&
        calls->Note("Insert", engine->Insert("region_dim", regions)).ok() &&
        calls->Note("CreateBaseTable",
                    engine->CreateBaseTable("year_bands",
                                            dvms::Schema({{"year", ValueType::kInt64},
                                                          {"x0", ValueType::kDouble},
                                                          {"x1", ValueType::kDouble}})))
            .ok() &&
        calls->Note("Insert", engine->Insert("year_bands", bands)).ok() &&
        calls->Note("CreateScale",
                    engine->CreateScale("chart_scale", 0, max_total * 1.05, 0, 240))
            .ok() &&
        calls->Note("LoadProgram", engine->LoadProgram(kCrossfilterProgram)).ok();
    if (!ok) {
      report->Fail("crossfilter_brush set-up failed");
      return nullptr;
    }
    return engine;
  }

  std::vector<InputEvent> NextDrag(InputRng* rng, int64_t* t) const override {
    // Inside the year chart: x in (420, 780), y < 280.
    const double x0 = static_cast<double>(rng->Int(422, 778));
    const double x1 = static_cast<double>(rng->Int(422, 778));
    const double y = static_cast<double>(rng->Int(20, 260));
    return LinearDrag(t, x0, y, x1, y);
  }

  /// Years the brush of a finished drag covers: C_RANGE is the MOUSE_DOWN
  /// x and the last MOUSE_MOVE x.
  std::set<int64_t> BrushedYears(const std::vector<InputEvent>& drag) const {
    const double lo = std::min(drag.front().x, drag[drag.size() - 2].x);
    const double hi = std::max(drag.front().x, drag[drag.size() - 2].x);
    std::set<int64_t> years;
    for (int y = 0; y < kYears; ++y) {
      if (band_x1_[y] >= lo && band_x0_[y] <= hi) years.insert(kFirstYear + y);
    }
    return years;
  }

  /// Full-scan group-sum of revenue over the brushed years, keyed by
  /// column `key` of Sales.
  std::map<std::string, double> GroupSum(const std::set<int64_t>& years, size_t key) const {
    std::map<std::string, double> sums;
    for (const Row& row : rows_) {
      if (years.count(row[2].int_value()) != 0) sums[row[key].ToString()] += row[6].double_value();
    }
    return sums;
  }

  static bool Close(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  }

  void AfterEvent(const Dvms& engine, const std::vector<InputEvent>& drag, size_t i,
                  Report* report) const override {
    if (i + 1 != drag.size()) return;  // checked once per drag
    const std::set<int64_t> years = BrushedYears(drag);
    static const char* const kViews[] = {"rev_region_f", "rev_year_f", "rev_month_f",
                                         "rev_dow_f"};
    for (size_t d = 0; d < 4; ++d) {
      // Columns 1..4 of Sales are region, year, month, dow.
      const std::map<std::string, double> expected = GroupSum(years, d + 1);
      auto table = engine.GetTable(kViews[d]);
      if (!table.ok()) {
        report->Fail(std::string("GetTable(") + kViews[d] + "): " + table.status().ToString());
        continue;
      }
      const dvms::Table& t = *table.value();
      bool same = t.num_rows() == expected.size();
      for (size_t r = 0; same && r < t.num_rows(); ++r) {
        auto it = expected.find(t.ValueAt(r, 0).ToString());
        same = it != expected.end() && Close(t.ValueAt(r, 1).double_value(), it->second);
      }
      if (!same) {
        report->Fail(std::string(kViews[d]) +
                     " differs from the full-scan group-sum after the drag ending at t=" +
                     std::to_string(drag.back().t));
      }
    }
  }

  const char* ReadSql() const override {
    return "SELECT SUM(revenue) AS total FROM rev_year_f";
  }

  void CheckRead(const dvms::Table& result, const std::vector<InputEvent>& drag,
                 Report* report) const override {
    double expected = 0;
    for (const auto& [year, sum] : GroupSum(BrushedYears(drag), 2)) expected += sum;
    if (result.num_rows() != 1 || result.ValueAt(0, 0).type() != dvms::ValueType::kDouble ||
        !Close(result.ValueAt(0, 0).double_value(), expected)) {
      report->Fail("Session read of the brushed revenue total differs from the full scan "
                   "after the drag ending at t=" + std::to_string(drag.back().t));
    }
  }

  void Finish(const Dvms&, const std::vector<InputEvent>&, CallLog*, Report*) const override {}

 private:
  std::vector<Row> rows_;
  std::map<std::string, double> region_total_;
  std::vector<double> band_x0_, band_x1_;
};

void RunInteractive(const Interactive& w, const RunArgs& args, const std::string& name,
                    CallLog* calls, Report* report) {
  const size_t threads = Nproc();
  report->notes.push_back("num_threads: " + std::to_string(threads));
  if (args.trace) dvms::obs::SetEnabled(true);
  SpanDrain drain;

  // Set-up: engine construction through data load, LoadProgram and its
  // first render.
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Dvms> engine;
  {
    dvms::obs::Span span("bench.setup");
    engine = w.Setup(threads, args.trace, calls, report);
  }
  const double setup_s = MsSince(setup_start) / 1000.0;
  if (engine == nullptr) return;
  double setup_query_ms = 0;
  if (args.trace) {
    drain.Drain();
    setup_query_ms = drain.Layer("bench.setup", "query").ms;
  }

  InputRng rng(args.seed ^ 0xD1A6ull);
  int64_t t = 0;
  std::vector<InputEvent> pushed;
  auto push = [&](const InputEvent& e) {
    const Clock::time_point t0 = Clock::now();
    dvms::Status st;
    {
      dvms::obs::Span span("bench.push_event");
      st = engine->PushEvent(e);
    }
    const double ms = MsSince(t0);
    calls->Note("PushEvent", st);
    pushed.push_back(e);
    return ms;
  };

  // One untimed warm-up drag.
  {
    std::vector<InputEvent> drag = w.NextDrag(&rng, &t);
    for (size_t i = 0; i < drag.size(); ++i) {
      push(drag[i]);
      w.AfterEvent(*engine, drag, i, report);
    }
  }
  if (args.trace) drain.Drain();
  drain.ClearTotals();
  const std::map<std::string, double> before = MetricValues();

  // The measured closed loop. The traced run alternates untraced and
  // traced events, so its overhead is measured on the same engine and on
  // neighbouring states.
  std::vector<double> untraced_ms, traced_ms, read_ms, lag;
  dvms::Session session(engine.get());
  std::unique_ptr<ViewDiff> diff;
  if (args.trace) diff = std::make_unique<ViewDiff>(*engine);
  PublishTimer publish;
  double changed = 0;
  size_t drags = 0;
  const Clock::time_point start = Clock::now();
  while (drags < 2 || MsSince(start) < args.seconds * 1000.0) {
    std::vector<InputEvent> drag = w.NextDrag(&rng, &t);
    for (size_t i = 0; i < drag.size(); ++i) {
      const bool traced = args.trace && pushed.size() % 2 == 1;
      if (args.trace) dvms::obs::SetEnabled(traced);
      const double ms = push(drag[i]);
      (traced ? traced_ms : untraced_ms).push_back(ms);
      if (args.trace) {
        // Traced and untraced events do the same extra work, so only
        // tracing differs between them.
        drain.Drain();
        const uint64_t step = diff->Step();
        publish.Time(*engine->catalog(), traced);
        if (traced) changed += static_cast<double>(step);
      }
      w.AfterEvent(*engine, drag, i, report);
    }
    // The application's read after the drag, untraced so the per-op query
    // counters stay the events' own.
    if (args.trace) dvms::obs::SetEnabled(false);
    const Clock::time_point r0 = Clock::now();
    dvms::Result<dvms::Table> read = session.Query(w.ReadSql());
    read_ms.push_back(MsSince(r0));
    lag.push_back(static_cast<double>(engine->published_epoch() - session.last_read_epoch()));
    if (calls->Note("Session::Query", read.status()).ok()) w.CheckRead(read.value(), drag, report);
    ++drags;
  }
  const double wall_s = MsSince(start) / 1000.0;
  const std::map<std::string, double> after = MetricValues();
  dvms::obs::SetEnabled(false);
  const double peak_rss = PeakRssMb();

  report->notes.push_back(name + ": " + std::to_string(drags) + " drags of " +
                          std::to_string(kMovesPerDrag + 2) + " events in " +
                          std::to_string(wall_s) + " s");
  if (!args.trace) {
    double busy_ms = 0;
    for (double ms : untraced_ms) busy_ms += ms;
    report->notes.push_back("op samples: " + std::to_string(untraced_ms.size()) +
                            " PushEvent calls");
    report->samples = untraced_ms;
    report->Set("op_p50_ms", Quantile(&untraced_ms, 0.50), "ms");
    report->Set("op_p95_ms", Quantile(&untraced_ms, 0.95), "ms");
    report->Set("ops_per_s", static_cast<double>(untraced_ms.size()) / (busy_ms / 1000.0),
                "1/s");
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mb", peak_rss, "MiB");
  } else {
    LayerInputs in;
    in.op_roots = {"bench.push_event"};
    in.ops = in.events = static_cast<double>(traced_ms.size());
    in.before = before;
    in.after = after;
    in.drain = &drain;
    in.untraced_p50_ms = Median(untraced_ms);
    in.overhead_ms = Median(traced_ms) - in.untraced_p50_ms;
    in.changed_rows = changed;
    in.publish_us = publish.MeanUs();
    in.feed_us = FeedMicros(w.program(), pushed, report);
    in.setup_query_ms = setup_query_ms;
    in.epoch_lag = Mean(lag);
    in.reads_per_s = static_cast<double>(read_ms.size()) / wall_s;
    in.read_p50_ms = Quantile(&read_ms, 0.50);
    in.read_p99_ms = Quantile(&read_ms, 0.99);
    ReportLayers(in, report);
  }
  w.Finish(*engine, pushed, calls, report);
}

}  // namespace

void RunBrushScatter(const RunArgs& args, CallLog* calls, Report* report) {
  report->notes.push_back("points: " + std::to_string(BrushScatter::kPoints) +
                          ", canvas 400x400");
  BrushScatter w(args.seed, args.serial_replay);
  RunInteractive(w, args, "brush_scatter", calls, report);
}

void RunCrossfilterBrush(const RunArgs& args, CallLog* calls, Report* report) {
  report->notes.push_back("Sales rows: " + std::to_string(CrossfilterBrush::kRows) +
                          ", canvas 800x600");
  CrossfilterBrush w(args.seed);
  RunInteractive(w, args, "crossfilter_brush", calls, report);
}

}  // namespace perfbench
