// Linearizability / differential stress harness for concurrent
// snapshot-isolated reads (Plankton discipline: the same randomized
// schedule runs twice — once with N reader sessions racing one writer on
// the unlocked engine, once fully serialized on a fresh engine under the
// recorded commit order — and every concurrent read must be bit-identical
// to some prefix-consistent serial state). The epoch tag each session
// records per read (Session::last_read_epoch) is the explicit witness:
// serial replay maps every published epoch to the one table state readers
// were allowed to observe at it. The serial reference is read straight from
// the live catalog (ReadLiveCatalog): Dvms::Query and Session::Query both
// run the snapshot code under test, so a bug in SnapshotManager::Publish or
// RelationSnapshot::Read would agree with itself there.
//
// Runs at 1/2/4/8 reader threads; the TSan ci leg re-runs this suite with
// -DDVMS_SANITIZE=thread to catch data races the assertions cannot.

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dvms.h"
#include "core/session.h"
#include "parser/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

constexpr const char* kReadQuery = "SELECT id, v FROM T ORDER BY id, v";

std::string Fingerprint(const Table& table) {
  std::ostringstream out;
  for (const Row& row : table.rows()) {
    for (const Value& v : row) out << v.ToString() << '|';
    out << '\n';
  }
  return out.str();
}

/// One writer operation, fully determined by its payload so the live run
/// and the serial replay apply bit-identical mutations.
struct Op {
  bool insert = true;
  int64_t a = 0;  // insert: first id; delete: band start
  int64_t b = 0;  // insert: row count; delete: band width
};

std::vector<Op> MakeSchedule(uint32_t seed, int num_ops) {
  std::mt19937 rng(seed);
  std::vector<Op> ops;
  int64_t next_id = 0;
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    op.insert = rng() % 4 != 3;  // ~3:1 insert:delete
    if (op.insert) {
      op.a = next_id;
      op.b = 1 + static_cast<int64_t>(rng() % 5);
      next_id += op.b;
    } else {
      op.a = static_cast<int64_t>(rng() % (next_id > 0 ? next_id : 1));
      op.b = 1 + static_cast<int64_t>(rng() % 23);
    }
    ops.push_back(op);
  }
  return ops;
}

Status ApplyOp(Dvms& engine, const Op& op) {
  if (op.insert) {
    std::vector<Row> rows;
    for (int64_t j = 0; j < op.b; ++j) {
      int64_t id = op.a + j;
      rows.push_back({Value::Int(id), Value::Double((id * 37) % 101)});
    }
    return engine.Insert("T", std::move(rows));
  }
  auto pred = ParseExpression("id >= " + std::to_string(op.a) +
                              " AND id < " + std::to_string(op.a + op.b));
  if (!pred.ok()) return pred.status();
  return engine.Delete("T", pred.value()).status();
}

std::unique_ptr<Dvms> MakeEngine() {
  Dvms::Options options;
  options.canvas_width = 100;
  options.canvas_height = 100;
  options.auto_render = false;
  auto engine = std::make_unique<Dvms>(options);
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  EXPECT_TRUE(engine->CreateBaseTable("T", schema).ok());
  return engine;
}

struct ReadRecord {
  uint64_t epoch = 0;
  std::string fingerprint;
};

class LinearizabilityStress : public ::testing::TestWithParam<int> {};

TEST_P(LinearizabilityStress, ConcurrentReadsMatchSomeSerialPrefix) {
  const int num_readers = GetParam();
  const int num_ops = 60;
  const int reads_per_thread = 40;
  const std::vector<Op> schedule = MakeSchedule(/*seed=*/0xD5A5 + num_readers,
                                                num_ops);

  // ---- Live run: N reader sessions race the serialized writer. ----
  std::unique_ptr<Dvms> live = MakeEngine();
  const uint64_t epoch0 = live->published_epoch();
  ASSERT_GT(epoch0, 0u);  // the constructor publishes the empty state

  std::atomic<bool> writer_done{false};
  std::vector<uint64_t> commit_epochs;  // epoch after each committed op
  std::vector<std::vector<ReadRecord>> reads(num_readers);
  std::vector<Status> read_failures(num_readers, Status::OK());

  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      Session session(live.get());
      // Read until the writer is done (and at least reads_per_thread
      // times), so every reader overlaps the whole schedule.
      for (int i = 0; i < reads_per_thread || !writer_done.load(); ++i) {
        auto result = session.Query(kReadQuery);
        if (!result.ok()) {
          read_failures[r] = result.status();
          return;
        }
        reads[r].push_back(
            {session.last_read_epoch(), Fingerprint(result.value())});
      }
    });
  }

  for (const Op& op : schedule) {
    ASSERT_TRUE(ApplyOp(*live, op).ok());
    commit_epochs.push_back(live->published_epoch());
    std::this_thread::yield();  // interleave with the readers
  }
  writer_done.store(true);
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < num_readers; ++r) {
    ASSERT_TRUE(read_failures[r].ok()) << read_failures[r].ToString();
  }

  // ---- Serial replay: the recorded commit order on a fresh engine. ----
  std::unique_ptr<Dvms> serial = MakeEngine();
  ASSERT_EQ(serial->published_epoch(), epoch0);
  std::map<uint64_t, std::string> serial_state;  // epoch -> table state
  {
    auto initial = ReadLiveCatalog(*serial, kReadQuery);
    ASSERT_TRUE(initial.ok());
    serial_state[epoch0] = Fingerprint(initial.value());
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    ASSERT_TRUE(ApplyOp(*serial, schedule[i]).ok());
    // Epochs are a pure function of the mutation sequence: the live run's
    // concurrent readers published nothing.
    ASSERT_EQ(serial->published_epoch(), commit_epochs[i]) << "op " << i;
    auto result = ReadLiveCatalog(*serial, kReadQuery);
    ASSERT_TRUE(result.ok());
    serial_state[commit_epochs[i]] = Fingerprint(result.value());
  }

  // ---- The linearizability check proper. ----
  size_t total_reads = 0;
  for (int r = 0; r < num_readers; ++r) {
    uint64_t prev_epoch = 0;
    for (size_t i = 0; i < reads[r].size(); ++i) {
      const ReadRecord& rec = reads[r][i];
      // Each read observed a really-committed prefix ...
      auto it = serial_state.find(rec.epoch);
      ASSERT_NE(it, serial_state.end())
          << "reader " << r << " read " << i << " at unpublished epoch "
          << rec.epoch;
      // ... bit-identically ...
      EXPECT_EQ(rec.fingerprint, it->second)
          << "reader " << r << " read " << i << " diverged at epoch "
          << rec.epoch;
      // ... and the per-session epoch sequence is monotone (session order
      // consistency: no reader travels back in time).
      EXPECT_GE(rec.epoch, prev_epoch) << "reader " << r << " read " << i;
      prev_epoch = rec.epoch;
    }
    total_reads += reads[r].size();
  }

  // Exact governor accounting: every session read drew (and returned) a
  // reader slot, no mutation slots, and no pinned epoch leaked.
  Dvms::GovernorStats stats = live->governor_stats();
  EXPECT_EQ(stats.readers_admitted, static_cast<int64_t>(total_reads));
  EXPECT_EQ(stats.readers_rejected, 0);
  EXPECT_EQ(stats.pinned_snapshots, 0);
  EXPECT_EQ(stats.snapshot_epoch,
            static_cast<int64_t>(commit_epochs.back()));
}

INSTANTIATE_TEST_SUITE_P(Threads, LinearizabilityStress,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace dvms
