// Crash-injection recovery harness: a scripted interaction trace runs in a
// forked child that dies at randomized points — at op boundaries (simulated
// SIGKILL), mid-frame during a WAL write (torn write), or is survived by a
// log that then gets bit-flipped or truncated. Recovery must never crash,
// must drop exactly the damaged suffix, and must reproduce the reference
// engine's tables (including the provenance trace relation B), pixels, and
// stats bit-identically at the recovered prefix. Labeled `slow` in ctest.

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dvms.h"
#include "durability/wal.h"
#include "parser/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// DeVIL 4 linked brushing with a BACKWARD TRACE: the trace relation B is
// part of every fingerprint, so recovery is checked against lineage output
// as well as plain view state.
const char* kProgram = R"(
C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
           (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);

SPLOT_POINTS = SELECT
    6 AS radius, 'gray' AS fill,
    linear_scale(Sales.revenue, 0, 100, 0, 200) AS center_x,
    linear_scale(Sales.profit, 0, 100, 0, 200) AS center_y
  FROM Sales;

BBOX = SELECT x AS x0, y AS y0, x + dx AS x1, y + dy AS y1
  FROM C ORDER BY t DESC LIMIT 1;

B = BACKWARD TRACE
  FROM SPLOT_POINTS@vnow-1 AS SP, BBOX
  WHERE in_rectangle(SP.center_x, SP.center_y,
                     BBOX.x0, BBOX.y0, BBOX.x1, BBOX.y1)
  TO Sales;

SPLOT_POINTS = SELECT
    6 AS radius, 'red' AS fill,
    linear_scale(B.revenue, 0, 100, 0, 200) AS center_x,
    linear_scale(B.profit, 0, 100, 0, 200) AS center_y
  FROM B
  UNION SELECT
    6 AS radius, 'gray' AS fill,
    linear_scale(S.revenue, 0, 100, 0, 200) AS center_x,
    linear_scale(S.profit, 0, 100, 0, 200) AS center_y
  FROM (Sales MINUS B) AS S;

P = render(SELECT * FROM SPLOT_POINTS);
)";

struct TraceOp {
  std::string label;
  std::function<Status(Dvms&)> run;
};

/// The scripted trace. Every op must succeed, and every op appends exactly
/// one log frame — so op count k maps 1:1 to LSN k and a kill after op k
/// must recover to the reference state after k ops.
std::vector<TraceOp> Workload() {
  std::vector<TraceOp> ops;
  auto push = [](InputEvent e) {
    return [e](Dvms& d) { return d.PushEvent(e); };
  };
  ops.push_back({"create", [](Dvms& d) {
                   return d.CreateBaseTable(
                       "Sales", Schema({{"productId", ValueType::kInt64},
                                        {"profit", ValueType::kDouble},
                                        {"revenue", ValueType::kDouble}}));
                 }});
  ops.push_back({"seed-rows", [](Dvms& d) {
                   return d.Insert(
                       "Sales",
                       {{Value::Int(1), Value::Double(10), Value::Double(10)},
                        {Value::Int(2), Value::Double(30), Value::Double(30)},
                        {Value::Int(3), Value::Double(60), Value::Double(60)},
                        {Value::Int(4), Value::Double(90), Value::Double(90)}});
                 }});
  ops.push_back({"program", [](Dvms& d) { return d.LoadProgram(kProgram); }});
  // Brush 1 selects the middle of the canvas.
  ops.push_back({"b1-down", push(InputEvent::MouseDown(0, 40, 40))});
  ops.push_back({"b1-move", push(InputEvent::MouseMove(1, 140, 140))});
  ops.push_back({"b1-up", push(InputEvent::MouseUp(2, 140, 140))});
  ops.push_back({"insert-5", [](Dvms& d) {
                   return d.Insert("Sales", {{Value::Int(5), Value::Double(45),
                                              Value::Double(45)}});
                 }});
  // Brush 2 overlaps the new point.
  ops.push_back({"b2-down", push(InputEvent::MouseDown(3, 20, 20))});
  ops.push_back({"b2-move", push(InputEvent::MouseMove(4, 100, 100))});
  ops.push_back({"b2-up", push(InputEvent::MouseUp(5, 100, 100))});
  ops.push_back({"delete-2", [](Dvms& d) {
                   auto n = d.Delete("Sales",
                                     ParseExpression("productId = 2").value());
                   return n.ok() ? Status::OK() : n.status();
                 }});
  ops.push_back({"undo", [](Dvms& d) { return d.Undo(); }});
  ops.push_back({"redo", [](Dvms& d) { return d.Redo(); }});
  // Brush 3, across the upper-right cluster.
  ops.push_back({"b3-down", push(InputEvent::MouseDown(6, 110, 110))});
  ops.push_back({"b3-move", push(InputEvent::MouseMove(7, 190, 190))});
  ops.push_back({"b3-up", push(InputEvent::MouseUp(8, 190, 190))});
  ops.push_back({"scale", [](Dvms& d) {
                   return d.CreateScale("sx", 0, 100, 0, 200);
                 }});
  ops.push_back({"insert-6", [](Dvms& d) {
                   return d.Insert("Sales", {{Value::Int(6), Value::Double(75),
                                              Value::Double(25)}});
                 }});
  // Brush 4 left open: kills inside an in-flight interaction exercise
  // matcher-state and @tnow recovery.
  ops.push_back({"b4-down", push(InputEvent::MouseDown(9, 10, 10))});
  ops.push_back({"b4-move", push(InputEvent::MouseMove(10, 60, 60))});
  return ops;
}

Dvms::Options BaseOptions(const std::string& data_dir,
                          size_t snapshot_interval) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 200;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";
  options.snapshot_interval = snapshot_interval;
  return options;
}

std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    const Table* t = table.value();
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      out << t->schema().column(c).name << "|";
    }
    out << "\n";
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (const Value& v : t->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

/// ref[k] = state after the first k ops of an uninterrupted, in-memory run.
struct RefState {
  std::string fingerprint;
  PixelBuffer pixels{1, 1};
};

const std::vector<RefState>& Reference() {
  static const std::vector<RefState>* ref = [] {
    auto* states = new std::vector<RefState>;
    Dvms engine(BaseOptions("", 0));
    states->push_back({Fingerprint(engine), engine.pixels()});
    for (const TraceOp& op : Workload()) {
      Status st = op.run(engine);
      EXPECT_TRUE(st.ok()) << op.label << ": " << st.message();
      states->push_back({Fingerprint(engine), engine.pixels()});
    }
    return states;
  }();
  return *ref;
}

/// Child body: run the first `max_ops` trace ops against a durable engine,
/// then die without cleanup (_exit == the kernel's view of SIGKILL for file
/// state). `wal_byte_budget >= 0` arms the torn-write hook, which _exit(42)s
/// mid-write once the budget is spent.
[[noreturn]] void ChildRun(const std::string& dir, size_t max_ops,
                           int64_t wal_byte_budget, size_t snapshot_interval) {
  if (wal_byte_budget >= 0) {
    durability_testing::CrashAfterWalBytes(wal_byte_budget);
  }
  auto engine = std::make_unique<Dvms>(BaseOptions(dir, snapshot_interval));
  if (!engine->recovery_status().ok()) _exit(6);
  std::vector<TraceOp> ops = Workload();
  for (size_t i = 0; i < std::min(max_ops, ops.size()); ++i) {
    if (!ops[i].run(*engine).ok()) _exit(7);
  }
  _exit(0);
}

/// Forks the child and returns its exit code (asserting it wasn't signaled).
int RunChild(const std::string& dir, size_t max_ops, int64_t wal_byte_budget,
             size_t snapshot_interval) {
  fflush(nullptr);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ChildRun(dir, max_ops, wal_byte_budget, snapshot_interval);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child crashed hard, status=" << status;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Recovers the directory and checks the result is bit-identical to the
/// reference prefix at the recovered LSN. Returns that LSN.
uint64_t VerifyRecovery(const std::string& dir, size_t snapshot_interval,
                        std::optional<uint64_t> expect_lsn) {
  const std::vector<RefState>& ref = Reference();
  Dvms engine(BaseOptions(dir, snapshot_interval));
  EXPECT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().message();
  const DurabilityStats stats = engine.durability_stats();
  const uint64_t lsn = stats.recovered_lsn;
  EXPECT_LT(lsn, ref.size()) << "recovered past the scripted trace";
  if (expect_lsn.has_value()) EXPECT_EQ(lsn, *expect_lsn);
  if (lsn < ref.size()) {
    EXPECT_EQ(Fingerprint(engine), ref[lsn].fingerprint) << "lsn=" << lsn;
    EXPECT_TRUE(engine.pixels().Equals(ref[lsn].pixels)) << "lsn=" << lsn;
  }
  return lsn;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

std::vector<fs::path> FilesWithExt(const fs::path& dir,
                                   const std::string& ext) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ext) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void FlipByte(const fs::path& file, uint64_t offset, uint8_t mask) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ mask));
}

// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, OneOpOneFrame) {
  // The harness's LSN == op-count bookkeeping rests on this invariant.
  TempDir dir("frames");
  Dvms engine(BaseOptions(dir.str(), 0));
  const std::vector<TraceOp> ops = Workload();
  for (const TraceOp& op : ops) {
    ASSERT_TRUE(op.run(engine).ok()) << op.label;
  }
  EXPECT_EQ(engine.durability_stats().frames_appended, ops.size());
}

TEST(CrashRecoveryTest, KillAtEveryOpBoundary) {
  // fsync=always: an acknowledged op is durable, so a kill after op k must
  // recover to exactly the reference state after k ops.
  const size_t n = Workload().size();
  for (size_t snapshot_interval : {size_t{0}, size_t{5}}) {
    for (size_t k = 0; k <= n; ++k) {
      SCOPED_TRACE("interval=" + std::to_string(snapshot_interval) +
                   " kill_after_op=" + std::to_string(k));
      TempDir dir("kill");
      ASSERT_EQ(RunChild(dir.str(), k, -1, snapshot_interval), 0);
      VerifyRecovery(dir.str(), snapshot_interval, k);
    }
  }
}

TEST(CrashRecoveryTest, TornWritesAtRandomByteBudgets) {
  // The child dies mid-write (partial chunk + _exit, exit code 42): a torn
  // frame reaches disk. Recovery must truncate the torn tail and land on a
  // complete op prefix — never crash, never resurrect half a frame.
  Rng rng(20260806);
  const size_t n = Workload().size();
  size_t torn = 0;
  for (int trial = 0; trial < 14; ++trial) {
    const size_t snapshot_interval = (trial % 3 == 0) ? 5 : 0;
    const int64_t budget = rng.UniformInt(1, 2600);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " budget=" + std::to_string(budget) +
                 " interval=" + std::to_string(snapshot_interval));
    TempDir dir("torn");
    int code = RunChild(dir.str(), n, budget, snapshot_interval);
    ASSERT_TRUE(code == 42 || code == 0) << "exit code " << code;
    torn += (code == 42);
    uint64_t lsn = VerifyRecovery(dir.str(), snapshot_interval, std::nullopt);
    if (code == 0) EXPECT_EQ(lsn, n);  // budget never hit: full trace
  }
  EXPECT_GT(torn, 0u) << "no trial actually tore a write — widen budgets";
}

TEST(CrashRecoveryTest, RandomBitFlipsTruncateNeverCrash) {
  // A clean complete log, then one flipped bit somewhere in the frame
  // region: recovery must keep exactly the frames before the damage.
  TempDir pristine("flip_pristine");
  ASSERT_EQ(RunChild(pristine.str(), Workload().size(), -1, 0), 0);
  auto segments = FilesWithExt(pristine.path(), ".log");
  ASSERT_EQ(segments.size(), 1u);
  const uint64_t size = fs::file_size(segments[0]);
  ASSERT_GT(size, kWalHeaderBytes);

  Rng rng(7701);
  for (int trial = 0; trial < 16; ++trial) {
    const uint64_t offset = static_cast<uint64_t>(
        rng.UniformInt(kWalHeaderBytes, static_cast<int64_t>(size) - 1));
    const uint8_t mask = static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " offset=" + std::to_string(offset) +
                 " mask=" + std::to_string(mask));
    TempDir dir("flip");
    CopyDir(pristine.path(), dir.path());
    FlipByte(FilesWithExt(dir.path(), ".log")[0], offset, mask);
    uint64_t lsn = VerifyRecovery(dir.str(), 0, std::nullopt);
    // The flip damages one frame, so at least that op is lost.
    EXPECT_LT(lsn, Workload().size());
    // Recovery repaired the file on disk: a second recovery agrees.
    VerifyRecovery(dir.str(), 0, lsn);
  }
}

TEST(CrashRecoveryTest, RandomTruncationsRecoverThePrefix) {
  TempDir pristine("cut_pristine");
  ASSERT_EQ(RunChild(pristine.str(), Workload().size(), -1, 0), 0);
  auto segments = FilesWithExt(pristine.path(), ".log");
  ASSERT_EQ(segments.size(), 1u);
  const uint64_t size = fs::file_size(segments[0]);

  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t cut = static_cast<uint64_t>(
        rng.UniformInt(kWalHeaderBytes, static_cast<int64_t>(size) - 1));
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " cut=" + std::to_string(cut));
    TempDir dir("cut");
    CopyDir(pristine.path(), dir.path());
    fs::resize_file(FilesWithExt(dir.path(), ".log")[0], cut);
    uint64_t lsn = VerifyRecovery(dir.str(), 0, std::nullopt);
    EXPECT_LT(lsn, Workload().size());
    VerifyRecovery(dir.str(), 0, lsn);
  }
}

TEST(CrashRecoveryTest, CorruptSnapshotFallsBackWithoutDataLoss) {
  // Snapshots are an optimization: damaging the newest one must cost
  // nothing — recovery falls back (older snapshot or pure log replay) and
  // still reproduces the full trace.
  Rng rng(9119);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    TempDir dir("snapcorrupt");
    ASSERT_EQ(RunChild(dir.str(), Workload().size(), -1, 4), 0);
    auto snaps = FilesWithExt(dir.path(), ".snap");
    ASSERT_FALSE(snaps.empty());
    const fs::path newest = snaps.back();
    const uint64_t size = fs::file_size(newest);
    FlipByte(newest, static_cast<uint64_t>(
                         rng.UniformInt(0, static_cast<int64_t>(size) - 1)),
             0x20);
    Dvms engine(BaseOptions(dir.str(), 4));
    ASSERT_TRUE(engine.recovery_status().ok())
        << engine.recovery_status().message();
    EXPECT_GE(engine.durability_stats().snapshots_discarded, 1u);
    EXPECT_EQ(engine.durability_stats().recovered_lsn, Workload().size());
    EXPECT_EQ(Fingerprint(engine), Reference().back().fingerprint);
    EXPECT_TRUE(engine.pixels().Equals(Reference().back().pixels));
  }
}

// ---------------------------------------------------------------------------
// Resource governor x durability
// ---------------------------------------------------------------------------

/// Child body for the governor tests: runs `clean_ops` trace ops on a
/// durable engine whose governor runs a step-controlled fake clock, then
/// expires the 50 ms deadline inside the next op. `resume_after_abort`
/// finishes the remaining trace (frozen clock again) before dying; either
/// way the child _exits without clean shutdown — the crash lands right on
/// (or after) the aborted request.
[[noreturn]] void GovernorChildRun(const std::string& dir, size_t clean_ops,
                                   bool resume_after_abort) {
  static std::atomic<int64_t> now{0};
  static std::atomic<int64_t> step{0};
  Dvms::Options options = BaseOptions(dir, 0);
  options.deadline_ms = 50;
  options.governor_clock = [] { return now.fetch_add(step.load()); };
  Dvms engine(options);
  if (!engine.recovery_status().ok()) _exit(6);
  std::vector<TraceOp> ops = Workload();
  if (clean_ops >= ops.size()) _exit(9);
  for (size_t i = 0; i < clean_ops; ++i) {
    if (!ops[i].run(engine).ok()) _exit(7);
  }
  // 20 ms per checkpoint: the third check inside the op crosses 50 ms.
  step.store(20'000);
  Status st = ops[clean_ops].run(engine);
  step.store(0);
  if (st.code() != StatusCode::kDeadlineExceeded) _exit(8);
  if (resume_after_abort) {
    for (size_t i = clean_ops; i < ops.size(); ++i) {
      if (!ops[i].run(engine).ok()) _exit(7);
    }
  }
  _exit(0);
}

int RunGovernorChild(const std::string& dir, size_t clean_ops,
                     bool resume_after_abort) {
  fflush(nullptr);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) GovernorChildRun(dir, clean_ops, resume_after_abort);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child crashed hard, status=" << status;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CrashRecoveryTest, CrashAfterDeadlineAbortRecoversBitIdentically) {
  // A deadline-aborted mutation unit must leave NOTHING in the WAL: a
  // crash immediately after the abort recovers to exactly the k-op prefix,
  // bit-identical to the reference — the aborted request is invisible.
  for (size_t k : {size_t{3}, size_t{6}, size_t{10}, size_t{13}}) {
    SCOPED_TRACE("abort_at_op=" + std::to_string(k));
    TempDir dir("govabort");
    ASSERT_EQ(RunGovernorChild(dir.str(), k, /*resume_after_abort=*/false), 0);
    VerifyRecovery(dir.str(), 0, k);
  }
}

TEST(CrashRecoveryTest, AbortMidTraceLeavesNoHoleInTheLog) {
  // Abort op k, then retry it and finish the trace: the log must read as
  // an uninterrupted committed sequence (LSN == full op count) and recover
  // to the reference final state — no gap, no ghost frame, no reordering.
  for (size_t k : {size_t{4}, size_t{8}}) {
    SCOPED_TRACE("abort_at_op=" + std::to_string(k));
    TempDir dir("govhole");
    ASSERT_EQ(RunGovernorChild(dir.str(), k, /*resume_after_abort=*/true), 0);
    VerifyRecovery(dir.str(), 0, Workload().size());
  }
}

TEST(CrashRecoveryTest, RecoveredEngineKeepsWorkingAndStaysDurable) {
  // After a mid-trace kill, the recovered engine finishes the trace and a
  // second recovery reproduces the completed run.
  TempDir dir("resume");
  const std::vector<TraceOp> ops = Workload();
  const size_t k = ops.size() / 2;
  ASSERT_EQ(RunChild(dir.str(), k, -1, 5), 0);
  {
    Dvms engine(BaseOptions(dir.str(), 5));
    ASSERT_TRUE(engine.recovery_status().ok());
    for (size_t i = k; i < ops.size(); ++i) {
      ASSERT_TRUE(ops[i].run(engine).ok()) << ops[i].label;
    }
    EXPECT_EQ(Fingerprint(engine), Reference().back().fingerprint);
  }
  VerifyRecovery(dir.str(), 5, Workload().size());
}

}  // namespace
}  // namespace dvms
