// durable_ingest: one writer keeps a durable engine's Sales at a constant
// size (Insert 16 new rows, then Delete the 16 oldest) while two Session
// readers run a group-by over the scatter plot's marks.

#include <stdlib.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/dvms.h"
#include "core/session.h"
#include "expr/expr.h"
#include "layers.h"
#include "obs/trace.h"
#include "programs.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dvms::Dvms;
using dvms::Row;
using dvms::Value;

constexpr size_t kPoints = 5000;
constexpr size_t kBatch = 16;
constexpr int kReaders = 2;
constexpr int kWarmupWrites = 16;
constexpr const char* kReadSql =
    "SELECT fill, COUNT(*) AS n, SUM(productId) AS ids FROM SPLOT_POINTS GROUP BY fill";

/// A fresh directory under `parent`, removed with everything in it when
/// this object dies.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/durable-XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What the acked history says the relation holds: rows in productId order.
struct SalesModel {
  std::deque<Row> rows;
  int64_t next_id = 0;
  int64_t id_sum = 0;

  std::vector<Row> NewBatch(InputRng* rng) {
    std::vector<Row> batch;
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back({Value::Int(next_id++), Value::Double(rng->Uniform(0, 100)),
                       Value::Double(rng->Uniform(0, 100))});
    }
    return batch;
  }
  void Inserted(const std::vector<Row>& batch) {
    for (const Row& row : batch) {
      rows.push_back(row);
      id_sum += row[0].int_value();
    }
  }
  void Deleted(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      id_sum -= rows.front()[0].int_value();
      rows.pop_front();
    }
  }
};

struct ReadResult {
  uint64_t epoch = 0;
  int64_t count = 0;
  int64_t id_sum = 0;
};

/// The group-by result folded over all groups. SUM yields a double, which
/// is exact here: every partial sum of ids is an integer below 2^53.
bool FoldRead(const dvms::Table& t, ReadResult* out) {
  if (t.num_columns() != 3) return false;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value n = t.ValueAt(r, 1), ids = t.ValueAt(r, 2);
    if (n.type() != dvms::ValueType::kInt64 || ids.type() != dvms::ValueType::kDouble) {
      return false;
    }
    out->count += n.int_value();
    out->id_sum += static_cast<int64_t>(ids.double_value());
  }
  return true;
}

/// engine.write_lock from dvms_metrics: how often the engine write mutex
/// was taken. Read with obs recording off so it adds nothing to the trace.
int64_t WriteLocks(dvms::Session* session, CallLog* calls) {
  dvms::obs::SuppressScope quiet;
  auto t = session->Query("SELECT count FROM dvms_metrics WHERE name = 'engine.write_lock'");
  if (!calls->Note("Session::Query", t.status()).ok() || t.value().num_rows() != 1) return -1;
  return t.value().ValueAt(0, 0).int_value();
}

struct Reader {
  // Reads of the measured phase: latency, whether tracing was on when the
  // read began, and epoch lag. `results` holds every read, for the check.
  std::vector<double> ms;
  std::vector<bool> traced;
  std::vector<ReadResult> results;
  std::vector<double> lag;
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
};

void ReadLoop(Dvms* engine, const std::atomic<bool>* stop, const std::atomic<bool>* measuring,
              Reader* out) {
  dvms::Session session(engine);
  while (!stop->load(std::memory_order_relaxed)) {
    const bool timed = measuring->load(std::memory_order_relaxed);
    const bool traced = dvms::obs::Enabled();
    const Clock::time_point t0 = Clock::now();
    dvms::Result<dvms::Table> t = dvms::Status::OK();
    {
      // The benchmark's span is kept; the engine's own read-path recording
      // is silenced so exec.rows.* counts only the writer's maintenance.
      dvms::obs::Span span("bench.read");
      dvms::obs::SuppressScope quiet;
      t = session.Query(kReadSql);
    }
    const double ms = MsSince(t0);
    ++out->attempted;
    ReadResult r;
    r.epoch = session.last_read_epoch();
    if (!t.ok() || !FoldRead(t.value(), &r)) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = t.ok() ? "unexpected result shape" : t.status().ToString();
      }
      continue;
    }
    out->results.push_back(r);
    if (!timed) continue;
    out->lag.push_back(static_cast<double>(engine->published_epoch() - r.epoch));
    out->ms.push_back(ms);
    out->traced.push_back(traced);
  }
}

/// The reader threads; stops and joins them at the latest when it goes out
/// of scope.
class ReaderThreads {
 public:
  ReaderThreads(Dvms* engine, const std::atomic<bool>* measuring, std::vector<Reader>* readers) {
    for (Reader& r : *readers) threads_.emplace_back(ReadLoop, engine, &stop_, measuring, &r);
  }
  ~ReaderThreads() { Stop(); }
  ReaderThreads(const ReaderThreads&) = delete;
  ReaderThreads& operator=(const ReaderThreads&) = delete;

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

dvms::Dvms::Options DurableOptions(const std::string& dir, bool trace) {
  Dvms::Options options;
  options.canvas_width = 400;
  options.canvas_height = 400;
  options.num_threads = 1;
  options.data_dir = dir;
  options.wal_fsync = "batch";
  options.trace = trace;
  return options;
}

}  // namespace

void RunDurableIngest(const RunArgs& args, CallLog* calls, Report* report) {
  report->notes.push_back("points: " + std::to_string(kPoints) +
                          ", canvas 400x400, num_threads: 1, wal_fsync: batch, readers: " +
                          std::to_string(kReaders));
  if (args.trace) dvms::obs::SetEnabled(true);
  SpanDrain drain;

  InputRng rng(args.seed);
  SalesModel loaded;
  std::vector<Row> rows;
  while (rows.size() < kPoints) {
    std::vector<Row> batch = loaded.NewBatch(&rng);
    rows.insert(rows.end(), batch.begin(), batch.end());
  }
  rows.resize(kPoints);
  loaded.Inserted(rows);
  loaded.next_id = static_cast<int64_t>(kPoints);

  // Set-up in a fresh data directory: engine construction (recovery of the
  // empty directory) through data load, LoadProgram and its first render.
  TempDir dir(args.tmp_dir);
  if (dir.path().empty()) {
    report->Fail("cannot create a data directory under " + args.tmp_dir);
    return;
  }
  SalesModel model = loaded;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Dvms> engine;
  {
    dvms::obs::Span span("bench.setup");
    engine = std::make_unique<Dvms>(DurableOptions(dir.path(), args.trace));
    const bool ok =
        calls->Note("recovery", engine->recovery_status()).ok() &&
        calls->Note("CreateBaseTable", engine->CreateBaseTable("Sales", BrushSalesSchema())).ok() &&
        calls->Note("Insert", engine->Insert("Sales", rows)).ok() &&
        calls->Note("LoadProgram", engine->LoadProgram(kBrushProgram)).ok();
    if (!ok) {
      report->Fail("durable_ingest set-up failed");
      return;
    }
  }
  const double setup_s = MsSince(setup_start) / 1000.0;
  double setup_query_ms = 0;
  if (args.trace) {
    drain.Drain();
    setup_query_ms = drain.Layer("bench.setup", "query").ms;
  }

  // Epoch -> (count, id sum) the writer's acked history says it holds.
  std::map<uint64_t, std::pair<int64_t, int64_t>> published;
  published[engine->published_epoch()] = {static_cast<int64_t>(model.rows.size()), model.id_sum};

  bool insert_next = true;
  auto write = [&]() {
    const bool insert = insert_next;
    insert_next = !insert_next;
    const Clock::time_point t0 = Clock::now();
    bool ok;
    if (insert) {
      std::vector<Row> batch = model.NewBatch(&rng);
      dvms::Status st;
      {
        dvms::obs::Span span("bench.insert");
        st = engine->Insert("Sales", batch);
      }
      ok = calls->Note("Insert", st).ok();
      if (ok) model.Inserted(batch);
    } else {
      const int64_t cut = model.rows[kBatch - 1][0].int_value() + 1;
      dvms::Result<size_t> removed = size_t{0};
      {
        dvms::obs::Span span("bench.delete");
        removed = engine->Delete("Sales", dvms::MakeBinary(dvms::BinaryOp::kLt,
                                                           dvms::MakeColumnRef("productId"),
                                                           dvms::MakeLiteral(Value::Int(cut))));
      }
      ok = calls->Note("Delete", removed.status()).ok();
      if (ok) {
        if (removed.value() != kBatch) {
          report->Fail("Delete removed " + std::to_string(removed.value()) + " rows, not " +
                       std::to_string(kBatch));
        }
        model.Deleted(kBatch);
      }
    }
    const double ms = MsSince(t0);
    if (ok) {
      published[engine->published_epoch()] = {static_cast<int64_t>(model.rows.size()),
                                               model.id_sum};
    }
    return ms;
  };

  // The traced run learns how often one Insert and one Delete take the
  // engine write lock, with no reader running.
  dvms::Session probe(engine.get());
  int64_t locks_per_insert = 0, locks_per_delete = 0;
  {
    const int64_t l0 = args.trace ? WriteLocks(&probe, calls) : 0;
    write();
    const int64_t l1 = args.trace ? WriteLocks(&probe, calls) : 0;
    write();
    const int64_t l2 = args.trace ? WriteLocks(&probe, calls) : 0;
    locks_per_insert = l1 - l0;
    locks_per_delete = l2 - l1;
  }
  const int64_t locks_before = args.trace ? WriteLocks(&probe, calls) : 0;

  // Readers start; untimed warm-up writes let both sides settle before the
  // measured phase.
  std::atomic<bool> measuring{false};
  std::vector<Reader> readers(kReaders);
  ReaderThreads threads(engine.get(), &measuring, &readers);
  size_t writes = 0;  // since locks_before was read
  for (int i = 0; i < kWarmupWrites; ++i, ++writes) write();
  if (args.trace) drain.Drain();
  drain.ClearTotals();
  const std::map<std::string, double> before = MetricValues();

  // The measured phase: the writer on this thread, readers beside it. The
  // traced run alternates untraced and traced Insert+Delete pairs.
  std::unique_ptr<ViewDiff> diff;
  if (args.trace) diff = std::make_unique<ViewDiff>(*engine);
  PublishTimer publish;
  std::vector<double> untraced_ms, traced_ms;
  double changed = 0;
  measuring.store(true);
  const Clock::time_point start = Clock::now();
  for (size_t op = 0; op < 4 || MsSince(start) < args.seconds * 1000.0; ++op, ++writes) {
    const bool traced = args.trace && (op / 2) % 2 == 1;
    if (args.trace) dvms::obs::SetEnabled(traced);
    const double ms = write();
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (args.trace) {
      drain.Drain();
      const uint64_t step = diff->Step();
      publish.Time(*engine->catalog(), traced);
      if (traced) changed += static_cast<double>(step);
    }
  }
  threads.Stop();
  const double wall_s = MsSince(start) / 1000.0;
  const std::map<std::string, double> after = MetricValues();
  dvms::obs::SetEnabled(false);
  if (args.trace) drain.Drain();
  const int64_t locks_after = args.trace ? WriteLocks(&probe, calls) : 0;
  const double peak_rss = PeakRssMb();

  // Reads: each must return what the epoch it read had published.
  std::vector<double> read_ms, lag;
  uint64_t reads = 0, bad_reads = 0;
  for (const Reader& r : readers) {
    calls->AddBatch("Session::Query", r.attempted, r.failed, r.first_error);
    for (const ReadResult& result : r.results) {
      ++reads;
      auto it = published.find(result.epoch);
      if (it == published.end() || it->second.first != result.count ||
          it->second.second != result.id_sum) {
        ++bad_reads;
      }
    }
    for (size_t i = 0; i < r.ms.size(); ++i) {
      if (!r.traced[i]) read_ms.push_back(r.ms[i]);
    }
    lag.insert(lag.end(), r.lag.begin(), r.lag.end());
  }
  if (bad_reads > 0) {
    report->Fail(std::to_string(bad_reads) + " of " + std::to_string(reads) +
                 " reads returned a count no published epoch produced");
  }
  size_t timed_reads = 0;
  for (const Reader& r : readers) timed_reads += r.ms.size();
  const double reads_per_s = static_cast<double>(timed_reads) / wall_s;
  const double read_p50 = Quantile(&read_ms, 0.50), read_p99 = Quantile(&read_ms, 0.99);
  report->notes.push_back("durable_ingest: " + std::to_string(untraced_ms.size() + traced_ms.size()) + " writes and " +
                          std::to_string(reads) + " reads in " + std::to_string(wall_s) + " s");
  report->notes.push_back("reads (untraced): p50 " + std::to_string(read_p50) + " ms, p99 " +
                          std::to_string(read_p99) + " ms, " + std::to_string(reads_per_s) +
                          " reads/s; " + std::to_string(read_ms.size()) + " untraced samples");

  if (!args.trace) {
    double busy_ms = 0;
    for (double ms : untraced_ms) busy_ms += ms;
    report->notes.push_back("op samples: " + std::to_string(untraced_ms.size()) +
                            " acked Insert/Delete calls");
    report->samples = untraced_ms;
    report->Set("op_p50_ms", Quantile(&untraced_ms, 0.50), "ms");
    report->Set("op_p95_ms", Quantile(&untraced_ms, 0.95), "ms");
    report->Set("ops_per_s", static_cast<double>(untraced_ms.size()) / (busy_ms / 1000.0),
                "1/s");
    report->Set("setup_s", setup_s, "s");
    report->Set("peak_rss_mb", peak_rss, "MiB");
  } else {
    LayerInputs in;
    in.op_roots = {"bench.insert", "bench.delete"};
    in.ops = in.writes = static_cast<double>(traced_ms.size());
    in.before = before;
    in.after = after;
    in.drain = &drain;
    in.untraced_p50_ms = Median(untraced_ms);
    in.overhead_ms = Median(traced_ms) - in.untraced_p50_ms;
    in.changed_rows = changed;
    in.setup_query_ms = setup_query_ms;
    in.publish_us = publish.MeanUs();
    // Writes alternate Insert and Delete, starting with an Insert; what
    // they did not take, the reads did.
    const int64_t engine_locks = locks_after - locks_before -
                                 locks_per_insert * static_cast<int64_t>((writes + 1) / 2) -
                                 locks_per_delete * static_cast<int64_t>(writes / 2);
    in.write_lock_per_read =
        reads > 0 ? static_cast<double>(engine_locks) / static_cast<double>(reads) : 0;
    report->notes.push_back("engine write-lock takes beyond the " + std::to_string(writes) +
                            " writes' own: " + std::to_string(engine_locks) + " over " +
                            std::to_string(reads) + " reads");
    in.epoch_lag = Mean(lag);
    in.read_p50_ms = read_p50;
    in.read_p99_ms = read_p99;
    in.reads_per_s = reads_per_s;
    ReportLayers(in, report);
  }

  // Recovery: a fresh engine on the same directory must hold exactly the
  // acked history.
  engine.reset();
  probe.Close();
  Dvms reopened(DurableOptions(dir.path(), false));
  if (!calls->Note("recovery", reopened.recovery_status()).ok()) {
    report->Fail("reopen: " + reopened.recovery_status().ToString());
    return;
  }
  auto sales = reopened.GetTable("Sales");
  calls->Note("GetTable", sales.status());
  if (!sales.ok()) {
    report->Fail("reopen: " + sales.status().ToString());
    return;
  }
  const dvms::Table& t = *sales.value();
  std::map<int64_t, size_t> by_id;
  for (size_t r = 0; r < t.num_rows(); ++r) by_id[t.ValueAt(r, 0).int_value()] = r;
  bool same = by_id.size() == model.rows.size() && t.num_rows() == model.rows.size();
  for (const Row& row : model.rows) {
    auto it = by_id.find(row[0].int_value());
    same = same && it != by_id.end() && t.ValueAt(it->second, 1).Equals(row[1]) &&
           t.ValueAt(it->second, 2).Equals(row[2]);
    if (!same) break;
  }
  if (!same) {
    report->Fail("after reopen, Sales (" + std::to_string(t.num_rows()) +
                 " rows) differs from the acked history (" +
                 std::to_string(model.rows.size()) + " rows)");
  } else {
    report->notes.push_back("check: reopened Sales equals the acked history (" +
                            std::to_string(model.rows.size()) + " rows)");
  }
}

}  // namespace perfbench
