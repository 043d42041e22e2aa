// Seeded cluster chaos sweep: a scripted DeVIL workload (linked brushing
// with a BACKWARD TRACE, so lineage is part of the checked state) is driven
// through a ClusterClient fronting one primary and two replicas while a
// seeded adversary kills primaries (detach + destroy, forcing automatic
// failover and replacement replicas), arms ENOSPC/IO-fault stretches
// against the durability layer, and concurrent reader threads hammer the
// routed read path. Invariants, per seed and thread count:
//
//   1. No acknowledged commit is ever lost: the surviving fleet's state is
//      bit-identical (all relations including the trace relation B, and
//      rendered pixels) to an in-memory reference replay of exactly the
//      acknowledged ops.
//   2. No routed read is served beyond the staleness bound
//      (stats.staleness_violations == 0).
//   3. After every failover the whole fleet converges to one fingerprint.
//
// Labeled `slow` in ctest; the fast deterministic routing tests live in
// cluster_test.cc.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/dvms.h"
#include "parser/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace cluster {
namespace {

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

/// The scripted trace (shared idiom with replication_crash_test.cc; each
/// chaos file is self-contained by design). Every op commits exactly one
/// log frame on the engine that executes it.
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
  ops.push_back({"b3-down", push(InputEvent::MouseDown(6, 20, 20))});
  ops.push_back({"b3-move", push(InputEvent::MouseMove(7, 70, 70))});
  ops.push_back({"b3-up", push(InputEvent::MouseUp(8, 70, 70))});
  return ops;
}

Dvms::Options PrimaryOptions(const std::string& data_dir) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 200;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";
  options.snapshot_interval = 0;
  return options;
}

Dvms::Options ReplicaOptions(const std::string& primary_dir,
                             uint64_t jitter_seed) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 200;
  options.num_threads = 1;
  options.replica_of = primary_dir;
  options.replica_poll_ms = 1;
  options.replica_jitter_seed = jitter_seed;
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

/// One chaos trial: seeded adversary vs. the routed workload.
void RunChaosTrial(uint64_t seed, size_t reader_threads) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " readers=" + std::to_string(reader_threads));
  TempDir dir("s" + std::to_string(seed) + "t" +
              std::to_string(reader_threads));
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + reader_threads);

  // Process-wide fault env, disarmed by default; the adversary arms it
  // for op-sized stretches. Ops write+fsync, kind enospc only: replica
  // tailing (reads, listings) stays clean and the fault class is the
  // transient, probe-healable one — mirroring "the primary's disk filled
  // up", not "the device is returning garbage".
  IoFaultConfig config = ParseIoFaultSpec(std::to_string(seed % 97 + 1) +
                                          ":0.3:write,fsync,enospc")
          .value();
  FaultEnv fault_env(env::Posix(), config);
  fault_env.Disarm();
  ScopedEnv scoped(&fault_env);

  std::map<std::string, std::unique_ptr<Dvms>> fleet;
  fleet["e0"] = std::make_unique<Dvms>(PrimaryOptions(dir.str()));
  ASSERT_TRUE(fleet["e0"]->recovery_status().ok());
  fleet["r1"] =
      std::make_unique<Dvms>(ReplicaOptions(dir.str(), seed * 2 + 1));
  fleet["r2"] =
      std::make_unique<Dvms>(ReplicaOptions(dir.str(), seed * 2 + 2));

  ClusterOptions copts;
  copts.staleness_bound_frames = 64;  // replicas serve during churn
  copts.max_attempts = 12;
  copts.backoff_floor_ms = 1;
  copts.backoff_cap_ms = 8;
  copts.hedge_percentile = 0;  // hedging covered by its own tests/bench
  copts.breaker_failures = 3;
  copts.breaker_cooldown_ms = 10;
  copts.deadline_ms = 0;
  copts.seed = seed + 1;
  ClusterClient client(copts);
  for (auto& [name, engine] : fleet) {
    ASSERT_TRUE(client.AddEndpoint(name, engine.get()).ok());
  }

  const std::vector<TraceOp> ops = Workload();
  std::vector<size_t> acked;  // indexes of ops the client acknowledged

  // Concurrent routed readers. During blackouts (primary dead, breakers
  // open) kUnavailable is legal, and a freshly-enrolled replacement
  // replica that is still within the staleness bound may serve a state
  // from before Sales existed (kNotFound is a *correct* stale read, not a
  // routing bug); anything else must succeed.
  std::atomic<bool> stop{false};
  std::atomic<bool> readers_go{false};
  std::atomic<uint64_t> reads_ok{0};
  std::vector<std::thread> readers;
  struct ReaderJoiner {  // join even when an ASSERT unwinds the trial early
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~ReaderJoiner() {
      stop.store(true);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, readers};
  for (size_t t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&client, &stop, &readers_go, &reads_ok] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!readers_go.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        Result<Table> r =
            client.Query("SELECT COUNT(*) AS n FROM Sales");
        if (r.ok()) {
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable ||
                      r.status().code() == StatusCode::kNotFound)
              << r.status().message();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  int kills = 0;
  int fresh = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    // ---- adversary ----
    bool fault_window = false;
    if (i > 0 && kills < 2 && rng.Bernoulli(0.2)) {
      // Kill the primary: detach (drains in-flight calls through the
      // client), destroy the engine, and enroll a fresh replacement
      // replica so the fleet stays at three endpoints. The next routed
      // write fails over automatically.
      Result<std::string> victim = client.PrimaryName();
      if (victim.ok()) {
        ASSERT_TRUE(client.DetachEndpoint(victim.value()).ok());
        fleet.erase(victim.value());
        ++kills;
        const std::string name = "f" + std::to_string(++fresh);
        fleet[name] = std::make_unique<Dvms>(
            ReplicaOptions(dir.str(), seed * 31 + fresh));
        ASSERT_TRUE(client.AddEndpoint(name, fleet[name].get()).ok());
      }
    } else if (i > 0 && rng.Bernoulli(0.25)) {
      fault_env.Rearm();  // ENOSPC / EIO stretch for this op
      fault_window = true;
    }

    // ---- the workload op, routed ----
    Status st = client.Write(ops[i].label.c_str(), ops[i].run);
    if (!st.ok()) {
      // The disk stayed sick through the whole retry budget: heal it and
      // re-issue. Every engine-side failure rolled back (or the failover
      // path suppressed the replay), so the retry is exactly-once.
      fault_env.Disarm();
      fault_window = false;
      st = client.Write(ops[i].label.c_str(), ops[i].run);
    }
    ASSERT_TRUE(st.ok()) << ops[i].label << ": " << st.message();
    acked.push_back(i);
    if (fault_window) fault_env.Disarm();
    if (i == 1) readers_go.store(true);  // Sales exists from here on
  }
  fault_env.Disarm();

  stop.store(true);
  for (std::thread& t : readers) t.join();

  // An ENOSPC that landed mid-op (after CheckWritable, at the WAL append
  // of an op whose DDL cannot roll back) fail-stops that engine's
  // durability; the client condemns it and fails over — its in-memory
  // state is a fork the durable log never saw. A replica whose promotion
  // was itself interrupted by a fault window fail-stops permanently-stale,
  // and the router already skips it. Either way the engine is out of
  // rotation: drop it from the convergence check, exactly as an operator
  // would replace the wedged node.
  for (auto it = fleet.begin(); it != fleet.end();) {
    if (!it->second->recovery_status().ok()) {
      it = fleet.erase(it);
    } else {
      ++it;
    }
  }

  // ---- convergence: the whole surviving fleet, bit-identical ----
  Result<std::string> primary_name = client.PrimaryName();
  ASSERT_TRUE(primary_name.ok()) << primary_name.status().message();
  Dvms* primary = fleet.at(primary_name.value()).get();
  ASSERT_TRUE(primary->FlushWal().ok());
  const uint64_t target = primary->wal_lsn();
  for (auto& [name, engine] : fleet) {
    if (!engine->is_replica()) continue;
    ASSERT_GE(engine->WaitForReplicaLsn(target, 20000), target)
        << name << " never caught up to lsn " << target;
  }
  const std::string fleet_fp = Fingerprint(*primary);
  for (auto& [name, engine] : fleet) {
    EXPECT_EQ(Fingerprint(*engine), fleet_fp) << name << " diverged";
    EXPECT_TRUE(engine->pixels().Equals(primary->pixels()))
        << name << " pixels diverged";
  }

  // ---- no acked commit lost: reference replay of exactly the acked ops.
  // Fingerprint() covers every relation including the BACKWARD TRACE
  // output B, so lineage is part of the equality. ----
  {
    Dvms reference(PrimaryOptions(""));
    for (size_t idx : acked) {
      Status st = ops[idx].run(reference);
      ASSERT_TRUE(st.ok()) << "reference " << ops[idx].label << ": "
                           << st.message();
    }
    EXPECT_EQ(fleet_fp, Fingerprint(reference))
        << "fleet state does not match the acknowledged-op replay";
    EXPECT_TRUE(primary->pixels().Equals(reference.pixels()));
  }

  // ---- routing invariants ----
  const ClusterStats s = client.stats();
  EXPECT_EQ(s.staleness_violations, 0u)
      << "a read was served beyond the staleness bound";
  // Every kill forces a failover; a condemned (durability-poisoned)
  // primary forces one more each.
  EXPECT_EQ(s.failovers, static_cast<uint64_t>(kills) + s.condemned_endpoints);
  EXPECT_EQ(s.acked_lsn, target);
  if (reader_threads > 0) {
    EXPECT_GT(reads_ok.load(), 0u) << "readers never got a routed read in";
  }
}

TEST(ClusterChaosTest, SeededSweepSingleReader) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) RunChaosTrial(seed, 1);
}

TEST(ClusterChaosTest, SeededSweepConcurrentReaders) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) RunChaosTrial(seed, 4);
}

}  // namespace
}  // namespace cluster
}  // namespace dvms
