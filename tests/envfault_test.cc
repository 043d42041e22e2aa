// Storage fault-domain coverage: the FaultEnv decorator (spec parsing,
// deterministic schedules, error tagging), the shared ReadFully/WriteFully
// retry helpers, the fsyncgate regression (a failed WAL fsync is never
// followed by an acknowledged commit on the affected segment without
// re-establishing durability by rewrite), degraded read-only mode under
// simulated ENOSPC (reads keep serving, mutations reject with
// kStorageDegraded, a bounded-backoff probe auto-recovers), replica
// behaviour while the primary's disk is full, and a seeded chaos
// differential proving no acknowledged commit is ever silently lost under
// full-kind injection. The integrity scrubber has its own file
// (scrub_test.cc).

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault.h"
#include "core/dvms.h"
#include "core/session.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

uint32_t OpBit(IoOp op) { return 1u << static_cast<uint32_t>(op); }
uint32_t KindBit(IoErrorKind kind) {
  return 1u << static_cast<uint32_t>(kind);
}

std::unique_ptr<Dvms> MakeEngine(const std::string& data_dir) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";  // acknowledged == synced
  options.snapshot_interval = 0;
  return std::make_unique<Dvms>(options);
}

Status Seed(Dvms& engine) {
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  DVMS_RETURN_IF_ERROR(engine.CreateBaseTable("Pts", schema));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 101)});
  }
  return engine.Insert("Pts", std::move(rows));
}

std::set<int64_t> Ids(Dvms& engine) {
  std::set<int64_t> out;
  Result<Table> table = engine.Query("SELECT id FROM Pts ORDER BY id");
  EXPECT_TRUE(table.ok()) << table.status().message();
  if (!table.ok()) return out;
  for (const Row& row : table.value().rows()) {
    out.insert(row[0].int_value());
  }
  return out;
}

// ---- Spec parsing ----

TEST(EnvFaultSpecTest, ParsesSeedAndRate) {
  Result<IoFaultConfig> cfg = ParseIoFaultSpec("42:0.05");
  ASSERT_TRUE(cfg.ok()) << cfg.status().message();
  EXPECT_EQ(cfg.value().seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.value().rate, 0.05);
  for (size_t i = 0; i < kNumIoOps; ++i) {
    EXPECT_TRUE(cfg.value().OpEnabled(static_cast<IoOp>(i)));
  }
  for (size_t i = 0; i < kNumIoErrorKinds; ++i) {
    EXPECT_TRUE(cfg.value().KindEnabled(static_cast<IoErrorKind>(i)));
  }
}

TEST(EnvFaultSpecTest, OpTokensRestrictOpsOnly) {
  Result<IoFaultConfig> cfg = ParseIoFaultSpec("7:1.0:write,fsync");
  ASSERT_TRUE(cfg.ok()) << cfg.status().message();
  EXPECT_TRUE(cfg.value().OpEnabled(IoOp::kWrite));
  EXPECT_TRUE(cfg.value().OpEnabled(IoOp::kFsync));
  EXPECT_FALSE(cfg.value().OpEnabled(IoOp::kOpen));
  EXPECT_FALSE(cfg.value().OpEnabled(IoOp::kRename));
  // Kind class untouched by op tokens.
  EXPECT_TRUE(cfg.value().KindEnabled(IoErrorKind::kEio));
  EXPECT_TRUE(cfg.value().KindEnabled(IoErrorKind::kEnospc));
}

TEST(EnvFaultSpecTest, KindTokensRestrictKindsOnly) {
  Result<IoFaultConfig> cfg = ParseIoFaultSpec("3:0.5:enospc");
  ASSERT_TRUE(cfg.ok()) << cfg.status().message();
  EXPECT_TRUE(cfg.value().KindEnabled(IoErrorKind::kEnospc));
  EXPECT_FALSE(cfg.value().KindEnabled(IoErrorKind::kEio));
  EXPECT_FALSE(cfg.value().KindEnabled(IoErrorKind::kFsyncFail));
  EXPECT_TRUE(cfg.value().OpEnabled(IoOp::kWrite));
  EXPECT_TRUE(cfg.value().OpEnabled(IoOp::kRead));
}

TEST(EnvFaultSpecTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(ParseIoFaultSpec("").ok());
  EXPECT_FALSE(ParseIoFaultSpec("notanumber:0.5").ok());
  EXPECT_FALSE(ParseIoFaultSpec("1").ok());
  EXPECT_FALSE(ParseIoFaultSpec("1:2.5").ok());       // rate out of range
  EXPECT_FALSE(ParseIoFaultSpec("1:0.5:bogus").ok());  // unknown token
}

// ---- Deterministic schedules + error tagging ----

TEST(EnvFaultTest, ScheduleIsDeterministicAcrossReset) {
  TempDir dir("envdet");
  IoFaultConfig cfg;
  cfg.seed = 1234;
  cfg.rate = 0.3;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kEio);
  FaultEnv env(env::Posix(), cfg);

  auto run = [&]() {
    std::vector<bool> outcomes;
    const std::string path = dir.str() + "/det.bin";
    Result<int> fd = env.Open(path, O_CREAT | O_TRUNC | O_WRONLY, 0644);
    EXPECT_TRUE(fd.ok());
    char byte = 'x';
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(env.Write(fd.value(), &byte, 1, path).ok());
    }
    env.Close(fd.value());
    return outcomes;
  };

  std::vector<bool> first = run();
  uint64_t first_injections = env.injections();
  EXPECT_GT(first_injections, 0u);
  EXPECT_LT(first_injections, 64u);
  env.Reset();
  EXPECT_EQ(env.injections(), 0u);
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);  // same seed, same per-op indices, same schedule
  EXPECT_EQ(env.injections(), first_injections);
}

TEST(EnvFaultTest, InjectedErrorsAreTaggedAndClassified) {
  IoFaultConfig cfg;
  cfg.seed = 9;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kEnospc);
  FaultEnv env(env::Posix(), cfg);
  char byte = 'x';
  Result<size_t> wrote = env.Write(-1, &byte, 1, "/fault/probe");
  ASSERT_FALSE(wrote.ok());
  const Status& st = wrote.status();
  EXPECT_TRUE(env::IsInjectedIoFault(st)) << st.message();
  EXPECT_TRUE(env::IsOutOfSpace(st)) << st.message();
  EXPECT_TRUE(env::IsEnvIoError(st)) << st.message();
  EXPECT_FALSE(env::IsNotFound(st));
}

TEST(EnvFaultTest, DisarmStopsInjectionRearmResumes) {
  IoFaultConfig cfg;
  cfg.seed = 5;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kFsync);
  FaultEnv env(env::Posix(), cfg);
  EXPECT_FALSE(env.Fsync(-1, "x").ok());
  env.Disarm();
  // With injection off the call reaches the real fsync(-1) — EBADF, which
  // must NOT carry the injection tag.
  Status real = env.Fsync(-1, "x");
  ASSERT_FALSE(real.ok());
  EXPECT_FALSE(env::IsInjectedIoFault(real));
  env.Rearm();
  Status again = env.Fsync(-1, "x");
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(env::IsInjectedIoFault(again));
}

TEST(EnvFaultTest, WriteFullyAbsorbsShortWrites) {
  TempDir dir("shortw");
  IoFaultConfig cfg;
  cfg.seed = 2;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kShortWrite);
  cfg.max_injections = 3;  // three short landings, then clean writes
  FaultEnv env(env::Posix(), cfg);
  const std::string path = dir.str() + "/short.bin";
  Result<int> fd = env.Open(path, O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_TRUE(fd.ok());
  std::string payload(1000, 'q');
  int fd_value = fd.value();
  ASSERT_TRUE(
      env::WriteFully(&env, fd_value, payload.data(), payload.size(), path)
          .ok());
  env.Close(fd_value);
  EXPECT_EQ(env.injections(), 3u);
  EXPECT_EQ(fs::file_size(path), payload.size());
}

TEST(EnvFaultTest, ReadFullyReportsCleanEofVsPartialRead) {
  TempDir dir("readf");
  const std::string path = dir.str() + "/r.bin";
  Env* env = env::Posix();
  {
    Result<int> fd = env->Open(path, O_CREAT | O_TRUNC | O_WRONLY, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(env::WriteFully(env, fd.value(), "abcde", 5, path).ok());
    env->Close(fd.value());
  }
  Result<int> fd = env->Open(path, O_RDONLY, 0);
  ASSERT_TRUE(fd.ok());
  char buf[8];
  size_t got = 0;
  ASSERT_TRUE(env::ReadFully(env, fd.value(), buf, 5, path, &got).ok());
  EXPECT_EQ(got, 5u);  // full object
  ASSERT_TRUE(env::ReadFully(env, fd.value(), buf, 8, path, &got).ok());
  EXPECT_EQ(got, 0u);  // clean EOF boundary
  ASSERT_TRUE(env->Seek(fd.value(), 2, path).ok());
  ASSERT_TRUE(env::ReadFully(env, fd.value(), buf, 8, path, &got).ok());
  EXPECT_EQ(got, 3u);  // torn object: partial read short of the request
  env->Close(fd.value());
}

// ---- fsyncgate regression ----

// A failed WAL fsync may have dropped the dirty pages, so the engine must
// (a) report the triggering mutation as failed, (b) re-establish a durable
// log by rotating to a fresh segment — never by retrying fsync on the old
// fd — and (c) acknowledge later commits only against the rewritten log.
// Restarting must recover exactly the acknowledged set.
TEST(EnvFaultTest, FailedFsyncNeverAcknowledgesWithoutRotation) {
  TempDir dir("fsyncgate");
  auto engine = MakeEngine(dir.str());
  ASSERT_TRUE(engine->recovery_status().ok());
  ASSERT_TRUE(Seed(*engine).ok());

  IoFaultConfig cfg;
  cfg.seed = 77;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kFsync);
  cfg.kind_mask = KindBit(IoErrorKind::kFsyncFail);
  cfg.max_injections = 1;  // exactly one failed fsync
  FaultEnv fault_env(env::Posix(), cfg);
  std::set<int64_t> acknowledged = Ids(*engine);
  {
    ScopedEnv scoped(&fault_env);
    Status st = engine->Insert(
        "Pts", {{Value::Int(100), Value::Double(1.0)}});
    ASSERT_FALSE(st.ok());  // the un-durable mutation must not be acked
    EXPECT_EQ(fault_env.injections(), 1u);
    EXPECT_GE(engine->durability_stats().fsync_rotations, 1u);
    // The log re-established durability by rewrite; the next commit is
    // acknowledged against the fresh segment.
    ASSERT_TRUE(engine->Insert(
                          "Pts", {{Value::Int(200), Value::Double(2.0)}})
                    .ok());
    acknowledged.insert(200);
    EXPECT_EQ(Ids(*engine), acknowledged);  // 100 rolled back, 200 applied
  }

  engine.reset();
  auto recovered = MakeEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok());
  EXPECT_EQ(Ids(*recovered), acknowledged);
}

// ---- Degraded read-only mode ----

TEST(DegradedModeTest, EnospcDegradesToReadOnlyAndProbeRecovers) {
  TempDir dir("degraded");
  auto engine = MakeEngine(dir.str());
  ASSERT_TRUE(engine->recovery_status().ok());
  ASSERT_TRUE(Seed(*engine).ok());
  std::set<int64_t> before = Ids(*engine);

  IoFaultConfig cfg;
  cfg.seed = 11;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kEnospc);
  FaultEnv fault_env(env::Posix(), cfg);
  ScopedEnv scoped(&fault_env);

  // First mutation observes the full disk and flips the engine degraded.
  Status st = engine->Insert("Pts", {{Value::Int(300), Value::Double(3.0)}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kStorageDegraded) << st.message();
  EXPECT_TRUE(engine->storage_degraded());
  Dvms::StorageStats stats = engine->storage_stats();
  EXPECT_EQ(stats.degraded_entries, 1u);
  EXPECT_FALSE(stats.degraded_reason.empty());

  // Reads — direct, session snapshot, and the system relation — keep
  // serving while every mutation path rejects.
  EXPECT_EQ(Ids(*engine), before);
  {
    Session session(engine.get());
    Result<Table> via_session = session.Query("SELECT id FROM Pts");
    ASSERT_TRUE(via_session.ok()) << via_session.status().message();
    EXPECT_EQ(via_session.value().num_rows(), before.size());
    Result<Table> storage = session.Query(
        "SELECT name, value FROM dvms_storage WHERE name = 'degraded'");
    ASSERT_TRUE(storage.ok()) << storage.status().message();
    ASSERT_EQ(storage.value().num_rows(), 1u);
    EXPECT_EQ(storage.value().row(0)[1].int_value(), 1);
  }
  Status rejected =
      engine->Insert("Pts", {{Value::Int(301), Value::Double(3.1)}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kStorageDegraded);
  EXPECT_NE(rejected.message().find("degraded read-only"), std::string::npos);

  // "The disk frees up": disarm injection and retry until the backoff
  // probe (1 ms floor) re-enables writes.
  fault_env.Disarm();
  bool recovered = false;
  for (int i = 0; i < 4000 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    recovered =
        engine->Insert("Pts", {{Value::Int(400), Value::Double(4.0)}}).ok();
  }
  ASSERT_TRUE(recovered);
  EXPECT_FALSE(engine->storage_degraded());
  stats = engine->storage_stats();
  EXPECT_EQ(stats.degraded_exits, 1u);
  EXPECT_GT(stats.space_probes, 0u);
  EXPECT_TRUE(stats.degraded_reason.empty());
  before.insert(400);
  EXPECT_EQ(Ids(*engine), before);

  // The recovered log is coherent: a restart sees exactly the
  // acknowledged rows.
  engine.reset();
  auto restarted = MakeEngine(dir.str());
  ASSERT_TRUE(restarted->recovery_status().ok());
  EXPECT_EQ(Ids(*restarted), before);
}

TEST(DegradedModeTest, LogicalDurabilityFaultsDoNotDegrade) {
  // FaultSite::kDurabilityIo models a pre-sync transient — rollbackable,
  // NOT an out-of-space condition — so it must never flip the engine into
  // degraded mode.
  TempDir dir("logical");
  auto engine = MakeEngine(dir.str());
  ASSERT_TRUE(engine->recovery_status().ok());
  ASSERT_TRUE(Seed(*engine).ok());
  FaultConfig config;
  config.seed = 3;
  config.rate = 1.0;
  ScopedFaultInjector scoped(config);
  Status st = engine->Insert("Pts", {{Value::Int(500), Value::Double(5.0)}});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.code(), StatusCode::kStorageDegraded);
  EXPECT_FALSE(engine->storage_degraded());
}

// ---- Replication under a full disk ----

Dvms::Options ReplicaOptions(const std::string& primary_dir) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  options.replica_of = primary_dir;
  options.replica_poll_ms = 1;
  return options;
}

void AwaitReplicaRows(Dvms& replica, size_t want) {
  for (int i = 0; i < 20000; ++i) {
    Result<Table> table = replica.Query("SELECT id FROM Pts");
    if (table.ok() && table.value().num_rows() >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "replica never caught up to " << want << " rows";
}

TEST(DegradedModeTest, ReplicaKeepsServingWhilePrimaryIsDegraded) {
  TempDir dir("repl_degraded");
  auto primary = MakeEngine(dir.str());
  ASSERT_TRUE(primary->recovery_status().ok());
  ASSERT_TRUE(Seed(*primary).ok());
  ASSERT_TRUE(primary->FlushWal().ok());

  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());
  AwaitReplicaRows(replica, 8);
  std::set<int64_t> stale = Ids(replica);

  IoFaultConfig cfg;
  cfg.seed = 21;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kEnospc);
  FaultEnv fault_env(env::Posix(), cfg);
  {
    ScopedEnv scoped(&fault_env);
    Status st =
        primary->Insert("Pts", {{Value::Int(600), Value::Double(6.0)}});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kStorageDegraded);
    // The replica's view is stale-but-consistent: exactly the acknowledged
    // prefix, never a torn suffix.
    EXPECT_EQ(Ids(replica), stale);

    // Disarm models the disk freeing; the primary recovers and the
    // replica tails the new commit.
    fault_env.Disarm();
    bool recovered = false;
    for (int i = 0; i < 4000 && !recovered; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      recovered =
          primary->Insert("Pts", {{Value::Int(601), Value::Double(6.1)}})
              .ok();
    }
    ASSERT_TRUE(recovered);
    ASSERT_TRUE(primary->FlushWal().ok());
    AwaitReplicaRows(replica, stale.size() + 1);
  }
}

TEST(DegradedModeTest, PromotionDuringEnospcServesReadsAndDegradesWrites) {
  TempDir dir("promote_enospc");
  auto primary = MakeEngine(dir.str());
  ASSERT_TRUE(primary->recovery_status().ok());
  ASSERT_TRUE(Seed(*primary).ok());
  ASSERT_TRUE(primary->FlushWal().ok());

  Dvms replica(ReplicaOptions(dir.str()));
  ASSERT_TRUE(replica.recovery_status().ok());
  AwaitReplicaRows(replica, 8);
  std::set<int64_t> inherited = Ids(replica);
  primary.reset();  // the old primary is gone; failover begins

  IoFaultConfig cfg;
  cfg.seed = 31;
  cfg.rate = 1.0;
  cfg.op_mask = OpBit(IoOp::kWrite);
  cfg.kind_mask = KindBit(IoErrorKind::kEnospc);
  FaultEnv fault_env(env::Posix(), cfg);
  ScopedEnv scoped(&fault_env);

  // Promotion itself is recovery work (fault-exempt); the storm hits the
  // first post-promotion mutation instead, which must degrade gracefully
  // while every read keeps serving the inherited state.
  ASSERT_TRUE(replica.Promote().ok());
  Status st = replica.Insert("Pts", {{Value::Int(700), Value::Double(7.0)}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kStorageDegraded);
  EXPECT_TRUE(replica.storage_degraded());
  EXPECT_EQ(Ids(replica), inherited);

  fault_env.Disarm();
  bool recovered = false;
  for (int i = 0; i < 4000 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    recovered =
        replica.Insert("Pts", {{Value::Int(701), Value::Double(7.1)}}).ok();
  }
  ASSERT_TRUE(recovered);
  EXPECT_FALSE(replica.storage_degraded());
}

// ---- Seeded chaos differential ----

// Under full-kind injection the engine may fail mutations, degrade, or
// rotate segments — but it must never crash and never silently lose an
// acknowledged commit: after the storm, a clean restart recovers a
// superset of everything that was acknowledged.
TEST(EnvFaultChaosTest, AcknowledgedCommitsSurviveInjectionStorm) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TempDir dir("chaos_" + std::to_string(seed));
    std::set<int64_t> acknowledged;
    {
      Dvms::Options options;
      options.canvas_width = 64;
      options.canvas_height = 64;
      options.num_threads = 1;
      options.data_dir = dir.str();
      options.wal_fsync = "always";
      options.snapshot_interval = 4;  // exercise the snapshot path too
      Dvms engine(options);
      ASSERT_TRUE(engine.recovery_status().ok());
      Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
      ASSERT_TRUE(engine.CreateBaseTable("Pts", schema).ok());

      IoFaultConfig cfg;
      cfg.seed = seed;
      cfg.rate = 0.25;
      cfg.op_mask = OpBit(IoOp::kWrite) | OpBit(IoOp::kFsync) |
                    OpBit(IoOp::kRename);
      FaultEnv fault_env(env::Posix(), cfg);
      {
        ScopedEnv scoped(&fault_env);
        for (int64_t i = 0; i < 40; ++i) {
          Status st = engine.Insert(
              "Pts", {{Value::Int(i), Value::Double(i * 0.5)}});
          if (st.ok()) acknowledged.insert(i);
        }
      }
    }
    Dvms::Options options;
    options.canvas_width = 64;
    options.canvas_height = 64;
    options.num_threads = 1;
    options.data_dir = dir.str();
    options.wal_fsync = "always";
    options.snapshot_interval = 0;
    Dvms recovered(options);
    ASSERT_TRUE(recovered.recovery_status().ok())
        << "seed " << seed << ": " << recovered.recovery_status().message();
    std::set<int64_t> persisted = Ids(recovered);
    for (int64_t id : acknowledged) {
      EXPECT_TRUE(persisted.count(id))
          << "seed " << seed << " lost acknowledged row " << id;
    }
  }
}

}  // namespace
}  // namespace dvms
