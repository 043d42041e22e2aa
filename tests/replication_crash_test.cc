// Fork-based replication failover harness: a scripted primary dies at op
// boundaries (simulated SIGKILL) or mid-frame during a WAL write (torn
// write); a replica then attaches to the orphaned directory, tails whatever
// survived, and is promoted. The promoted engine must be bit-identical —
// tables (including the provenance trace relation B), pixels — to the
// reference run's clean committed prefix, must keep accepting the rest of
// the trace, and must leave a log a fresh primary recovers exactly. A
// replica that is itself killed mid-tail must leave the primary's directory
// byte-for-byte untouched. Shares the scripted-trace idiom with
// crash_recovery_test.cc (each file is self-contained by design — the
// workloads assert different invariants and drift independently). Labeled
// `slow` in ctest.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dvms.h"
#include "durability/tailer.h"
#include "durability/wal.h"
#include "parser/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// DeVIL linked brushing with a BACKWARD TRACE so the promoted replica is
// checked against lineage output, not just plain view state.
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

/// The scripted trace: every op succeeds and appends exactly one log frame,
/// so op count k maps 1:1 to LSN k and a failover after op k must promote
/// to exactly the reference state after k ops.
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
                       {{Value::Int(1), Value::Double(15), Value::Double(20)},
                        {Value::Int(2), Value::Double(35), Value::Double(40)},
                        {Value::Int(3), Value::Double(55), Value::Double(65)},
                        {Value::Int(4), Value::Double(85), Value::Double(95)}});
                 }});
  ops.push_back({"program", [](Dvms& d) { return d.LoadProgram(kProgram); }});
  ops.push_back({"b1-down", push(InputEvent::MouseDown(0, 30, 30))});
  ops.push_back({"b1-move", push(InputEvent::MouseMove(1, 150, 150))});
  ops.push_back({"b1-up", push(InputEvent::MouseUp(2, 150, 150))});
  ops.push_back({"insert-5", [](Dvms& d) {
                   return d.Insert("Sales", {{Value::Int(5), Value::Double(50),
                                              Value::Double(50)}});
                 }});
  ops.push_back({"b2-down", push(InputEvent::MouseDown(3, 10, 10))});
  ops.push_back({"b2-move", push(InputEvent::MouseMove(4, 90, 90))});
  ops.push_back({"b2-up", push(InputEvent::MouseUp(5, 90, 90))});
  ops.push_back({"delete-2", [](Dvms& d) {
                   auto n = d.Delete("Sales",
                                     ParseExpression("productId = 2").value());
                   return n.ok() ? Status::OK() : n.status();
                 }});
  ops.push_back({"undo", [](Dvms& d) { return d.Undo(); }});
  ops.push_back({"redo", [](Dvms& d) { return d.Redo(); }});
  ops.push_back({"scale", [](Dvms& d) {
                   return d.CreateScale("sx", 0, 100, 0, 200);
                 }});
  ops.push_back({"insert-6", [](Dvms& d) {
                   return d.Insert("Sales", {{Value::Int(6), Value::Double(70),
                                              Value::Double(30)}});
                 }});
  // Left open: failover inside an in-flight interaction exercises
  // matcher-state replication and promotion.
  ops.push_back({"b3-down", push(InputEvent::MouseDown(6, 20, 20))});
  ops.push_back({"b3-move", push(InputEvent::MouseMove(7, 70, 70))});
  return ops;
}

Dvms::Options PrimaryOptions(const std::string& data_dir,
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

Dvms::Options ReplicaOptions(const std::string& primary_dir) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 200;
  options.num_threads = 1;
  options.replica_of = primary_dir;
  options.replica_poll_ms = 1;
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
    Dvms engine(PrimaryOptions("", 0));
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

/// Primary child body: run the first `max_ops` ops durably, then die with
/// no cleanup. `wal_byte_budget >= 0` arms the torn-write hook (_exit(42)
/// mid-frame once the budget is spent).
[[noreturn]] void PrimaryChildRun(const std::string& dir, size_t max_ops,
                                  int64_t wal_byte_budget,
                                  size_t snapshot_interval) {
  if (wal_byte_budget >= 0) {
    durability_testing::CrashAfterWalBytes(wal_byte_budget);
  }
  auto engine =
      std::make_unique<Dvms>(PrimaryOptions(dir, snapshot_interval));
  if (!engine->recovery_status().ok()) _exit(6);
  std::vector<TraceOp> ops = Workload();
  for (size_t i = 0; i < std::min(max_ops, ops.size()); ++i) {
    if (!ops[i].run(*engine).ok()) _exit(7);
  }
  _exit(0);
}

int RunPrimaryChild(const std::string& dir, size_t max_ops,
                    int64_t wal_byte_budget, size_t snapshot_interval) {
  fflush(nullptr);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    PrimaryChildRun(dir, max_ops, wal_byte_budget, snapshot_interval);
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child crashed hard, status=" << status;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Replica child body: attach to `dir`, tail until `target_lsn` is applied,
/// then die mid-flight — no Close, no Promote, destructors skipped.
[[noreturn]] void ReplicaChildRun(const std::string& dir,
                                  uint64_t target_lsn) {
  auto replica = std::make_unique<Dvms>(ReplicaOptions(dir));
  if (!replica->recovery_status().ok()) _exit(6);
  if (replica->WaitForReplicaLsn(target_lsn, 20000) < target_lsn) _exit(8);
  _exit(0);
}

/// Opens a replica of `dir`, waits for `lsn`, promotes, and checks the
/// result is bit-identical to the reference prefix at `lsn`.
std::unique_ptr<Dvms> AttachAndPromote(const std::string& dir, uint64_t lsn) {
  const std::vector<RefState>& ref = Reference();
  auto replica = std::make_unique<Dvms>(ReplicaOptions(dir));
  EXPECT_TRUE(replica->recovery_status().ok())
      << replica->recovery_status().message();
  EXPECT_GE(replica->WaitForReplicaLsn(lsn, 20000), lsn);
  Status promoted = replica->Promote();
  EXPECT_TRUE(promoted.ok()) << promoted.message();
  EXPECT_FALSE(replica->is_replica());
  EXPECT_EQ(replica->wal_lsn(), lsn);
  EXPECT_LT(lsn, ref.size()) << "promoted past the scripted trace";
  if (lsn < ref.size()) {
    EXPECT_EQ(Fingerprint(*replica), ref[lsn].fingerprint) << "lsn=" << lsn;
    EXPECT_TRUE(replica->pixels().Equals(ref[lsn].pixels)) << "lsn=" << lsn;
  }
  return replica;
}

/// Every file in `dir` with its size — "did anything touch this?" evidence.
std::map<std::string, uint64_t> DirManifest(const fs::path& dir) {
  std::map<std::string, uint64_t> manifest;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      manifest[e.path().string()] = fs::file_size(e.path());
    }
  }
  return manifest;
}

// ---------------------------------------------------------------------------

TEST(ReplicationCrashTest, PromotedReplicaMatchesReferenceAtEveryKillPoint) {
  // fsync=always: an acknowledged op is durable, so killing the primary
  // after op k and failing over must promote to exactly ref[k].
  const size_t n = Workload().size();
  for (size_t snapshot_interval : {size_t{0}, size_t{5}}) {
    for (size_t k = 0; k <= n; ++k) {
      SCOPED_TRACE("interval=" + std::to_string(snapshot_interval) +
                   " kill_after_op=" + std::to_string(k));
      TempDir dir("kill");
      ASSERT_EQ(RunPrimaryChild(dir.str(), k, -1, snapshot_interval), 0);
      AttachAndPromote(dir.str(), k);
    }
  }
}

TEST(ReplicationCrashTest, PromotionSealsTornPrimaryWrites) {
  // The primary dies mid-frame: a torn frame reaches disk. The tailer never
  // delivers it; promotion seals the log at the clean committed prefix and
  // the promoted engine matches that prefix bit-identically.
  Rng rng(20260808);
  const size_t n = Workload().size();
  size_t torn = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t snapshot_interval = (trial % 3 == 0) ? 5 : 0;
    const int64_t budget = rng.UniformInt(1, 2600);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " budget=" + std::to_string(budget) +
                 " interval=" + std::to_string(snapshot_interval));
    TempDir dir("torn");
    int code = RunPrimaryChild(dir.str(), n, budget, snapshot_interval);
    ASSERT_TRUE(code == 42 || code == 0) << "exit code " << code;
    torn += (code == 42);

    // The replica converges on the clean prefix; the torn tail only stalls
    // it (torn_tail_retries), never errors it. A throwaway read-only scan
    // tells us how long that prefix is, i.e. what to wait for.
    RecoveredLog log = ReadLogReadOnly(dir.str()).value();
    uint64_t sealed = log.has_snapshot ? log.snapshot_lsn : 0;
    if (!log.frames.empty()) sealed = log.frames.back().lsn;
    std::unique_ptr<Dvms> promoted = AttachAndPromote(dir.str(), sealed);
    if (code == 0) EXPECT_EQ(sealed, n);  // budget never hit: full trace
    // Promotion repaired the tail as the new owner: a fresh engine over the
    // directory recovers the same LSN with no further truncation.
    promoted.reset();
    Dvms reopened(PrimaryOptions(dir.str(), snapshot_interval));
    ASSERT_TRUE(reopened.recovery_status().ok());
    EXPECT_EQ(reopened.durability_stats().recovered_lsn, sealed);
  }
  EXPECT_GT(torn, 0u) << "no trial actually tore a write — widen budgets";
}

TEST(ReplicationCrashTest, PromotedEngineContinuesTheTraceDurably) {
  // Failover mid-trace, then the promoted engine runs the remaining ops:
  // the final state must equal the uninterrupted reference, and a fresh
  // primary over the directory must recover it — the promoted log is one
  // continuous history, not a fork.
  const std::vector<RefState>& ref = Reference();
  const std::vector<TraceOp> ops = Workload();
  const size_t n = ops.size();
  for (size_t k : {size_t{3}, size_t{7}, size_t{12}}) {
    SCOPED_TRACE("failover_after_op=" + std::to_string(k));
    TempDir dir("contin");
    ASSERT_EQ(RunPrimaryChild(dir.str(), k, -1, 0), 0);
    std::unique_ptr<Dvms> promoted = AttachAndPromote(dir.str(), k);
    for (size_t i = k; i < n; ++i) {
      Status st = ops[i].run(*promoted);
      ASSERT_TRUE(st.ok()) << ops[i].label << ": " << st.message();
    }
    EXPECT_EQ(Fingerprint(*promoted), ref[n].fingerprint);
    EXPECT_TRUE(promoted->pixels().Equals(ref[n].pixels));
    promoted.reset();

    Dvms reopened(PrimaryOptions(dir.str(), 0));
    ASSERT_TRUE(reopened.recovery_status().ok())
        << reopened.recovery_status().message();
    EXPECT_EQ(reopened.durability_stats().recovered_lsn, n);
    EXPECT_EQ(Fingerprint(reopened), ref[n].fingerprint);
    EXPECT_TRUE(reopened.pixels().Equals(ref[n].pixels));
  }
}

TEST(ReplicationCrashTest, KilledReplicaLeavesPrimaryDirectoryUntouched) {
  // A replica dying mid-tail (no shutdown, no destructors) must be
  // invisible to the primary's directory: tailing is strictly read-only.
  const size_t n = Workload().size();
  TempDir dir("rokill");
  ASSERT_EQ(RunPrimaryChild(dir.str(), n, -1, 5), 0);
  const std::map<std::string, uint64_t> before = DirManifest(dir.path());

  fflush(nullptr);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ReplicaChildRun(dir.str(), n);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  EXPECT_EQ(DirManifest(dir.path()), before)
      << "a read-only replica modified the primary's files";
  // And the directory is still a perfectly promotable history.
  AttachAndPromote(dir.str(), n);
}

}  // namespace
}  // namespace dvms
