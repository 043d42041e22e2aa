// Integrity-scrubber coverage: bit flips in sealed WAL segments and
// snapshots are detected on the next pass (100% of single-byte flips),
// corrupt files are quarantined only when redundant — a sealed segment
// fully covered by a newer valid snapshot, a snapshot with a valid peer —
// and anything unrecoverable fails loud by poisoning durability instead of
// letting a future restart silently truncate acknowledged commits. Also
// covers the DVMS_SCRUB_MS / Options::scrub_ms background thread and the
// dvms_storage system relation.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dvms.h"
#include "core/session.h"
#include "durability/manager.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Dvms> MakeEngine(const std::string& data_dir,
                                 int64_t scrub_ms = 0) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";
  options.snapshot_interval = 0;  // explicit Checkpoint() only
  options.scrub_ms = scrub_ms;
  return std::make_unique<Dvms>(options);
}

void SeedRows(Dvms& engine, int64_t first, int64_t count) {
  std::vector<Row> rows;
  for (int64_t i = first; i < first + count; ++i) {
    rows.push_back({Value::Int(i), Value::Double((i * 37) % 101)});
  }
  ASSERT_TRUE(engine.Insert("Pts", rows).ok());
}

void MakeTable(Dvms& engine) {
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  ASSERT_TRUE(engine.CreateBaseTable("Pts", schema).ok());
}

size_t CountRows(Dvms& engine) {
  Result<Table> table = engine.Query("SELECT id FROM Pts");
  EXPECT_TRUE(table.ok()) << table.status().message();
  return table.ok() ? table.value().num_rows() : 0;
}

void FlipByte(const fs::path& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x40;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good()) << path;
}

/// The sealed (non-active) WAL segments in `dir`, ascending by LSN.
std::vector<fs::path> SealedSegments(const std::string& dir) {
  Result<std::vector<uint64_t>> lsns = ListWalSegments(dir);
  EXPECT_TRUE(lsns.ok());
  std::vector<fs::path> out;
  if (!lsns.ok()) return out;
  for (size_t i = 0; i + 1 < lsns.value().size(); ++i) {
    out.emplace_back(WalSegmentPath(dir, lsns.value()[i]));
  }
  return out;
}

std::map<std::string, int64_t> StorageRows(Dvms& engine) {
  std::map<std::string, int64_t> out;
  Result<Table> table = engine.Query("SELECT name, value FROM dvms_storage");
  EXPECT_TRUE(table.ok()) << table.status().message();
  if (!table.ok()) return out;
  for (const Row& row : table.value().rows()) {
    out[row[0].string_value()] = row[1].int_value();
  }
  return out;
}

/// Seeds + checkpoints twice: retention keeps a sealed mid segment (the
/// first checkpoint's successor, covered by the second snapshot) alongside
/// the active one. A single checkpoint leaves no sealed segment at all —
/// pruning removes everything the snapshot covers.
void BuildSealedSegment(Dvms& engine) {
  MakeTable(engine);
  SeedRows(engine, 0, 10);
  ASSERT_TRUE(engine.Checkpoint().ok());
  SeedRows(engine, 100, 5);
  ASSERT_TRUE(engine.Checkpoint().ok());
}

TEST(ScrubTest, CleanDirectoryScansQuietly) {
  TempDir dir("scrub_clean");
  auto engine = MakeEngine(dir.str());
  BuildSealedSegment(*engine);
  ASSERT_TRUE(engine->ScrubNow().ok());
  Dvms::StorageStats stats = engine->storage_stats();
  EXPECT_EQ(stats.scrub_passes, 1u);
  EXPECT_GT(stats.scrub_segments_scanned, 0u);
  EXPECT_GT(stats.scrub_snapshots_scanned, 0u);
  EXPECT_EQ(stats.scrub_corruptions, 0u);
  EXPECT_EQ(stats.scrub_quarantined, 0u);
  EXPECT_TRUE(stats.last_corruption.empty());
}

TEST(ScrubTest, ScrubNowWithoutDurabilityErrors) {
  Dvms::Options options;
  options.canvas_width = 64;
  options.canvas_height = 64;
  options.num_threads = 1;
  Dvms engine(options);
  EXPECT_FALSE(engine.ScrubNow().ok());
}

// Every single-byte flip in a sealed segment — magic, segment header,
// frame header, payload, trailing CRC byte — must be detected.
TEST(ScrubTest, DetectsBitFlipsAtEveryRegionOfASealedSegment) {
  TempDir dir("scrub_flips");
  auto engine = MakeEngine(dir.str());
  BuildSealedSegment(*engine);
  std::vector<fs::path> sealed = SealedSegments(dir.str());
  ASSERT_EQ(sealed.size(), 1u);
  const uint64_t size = fs::file_size(sealed[0]);
  ASSERT_GT(size, 20u);
  const std::vector<uint64_t> offsets = {0, 9, 17, size / 2, size - 1};

  uint64_t detected = 0;
  for (uint64_t offset : offsets) {
    FlipByte(sealed[0], offset);
    uint64_t before = engine->storage_stats().scrub_corruptions;
    ASSERT_TRUE(engine->ScrubNow().ok());
    Dvms::StorageStats stats = engine->storage_stats();
    EXPECT_GT(stats.scrub_corruptions, before)
        << "flip at offset " << offset << " went undetected";
    if (stats.scrub_corruptions > before) ++detected;
    EXPECT_FALSE(stats.last_corruption.empty());
    // The covered segment was quarantined on detection; put it back and
    // undo the flip so the next offset exercises the same sealed file.
    fs::path quarantined(sealed[0].string() + ".quarantined");
    ASSERT_TRUE(fs::exists(quarantined));
    fs::rename(quarantined, sealed[0]);
    FlipByte(sealed[0], offset);
  }
  EXPECT_EQ(detected, offsets.size());  // 100% of injected flips
}

TEST(ScrubTest, QuarantinesCorruptSealedSegmentOnlyWhenSnapshotCoversIt) {
  TempDir dir("scrub_covered");
  auto engine = MakeEngine(dir.str());
  BuildSealedSegment(*engine);
  SeedRows(*engine, 200, 3);  // lands in the fresh active segment
  std::vector<fs::path> sealed = SealedSegments(dir.str());
  ASSERT_EQ(sealed.size(), 1u);

  FlipByte(sealed[0], fs::file_size(sealed[0]) / 2);
  ASSERT_TRUE(engine->ScrubNow().ok());
  Dvms::StorageStats stats = engine->storage_stats();
  EXPECT_EQ(stats.scrub_corruptions, 1u);
  EXPECT_EQ(stats.scrub_quarantined, 1u);
  EXPECT_FALSE(fs::exists(sealed[0]));
  EXPECT_TRUE(fs::exists(sealed[0].string() + ".quarantined"));

  // The quarantined file is invisible to recovery: a restart rebuilds the
  // full acknowledged state from the snapshot + surviving log.
  size_t want = CountRows(*engine);
  ASSERT_TRUE(engine->FlushWal().ok());
  engine.reset();
  auto restarted = MakeEngine(dir.str());
  ASSERT_TRUE(restarted->recovery_status().ok())
      << restarted->recovery_status().message();
  EXPECT_EQ(CountRows(*restarted), want);
}

TEST(ScrubTest, UncoveredCorruptionFailsLoudInsteadOfQuarantining) {
  TempDir dir("scrub_uncovered");
  auto engine = MakeEngine(dir.str());
  BuildSealedSegment(*engine);
  std::vector<fs::path> sealed = SealedSegments(dir.str());
  ASSERT_EQ(sealed.size(), 1u);
  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir.str());
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 2u);

  // Rot hits the sealed segment AND both snapshots: nothing makes the
  // segment redundant anymore, so setting anything aside would turn the
  // next restart into silent loss of acknowledged commits.
  FlipByte(sealed[0], fs::file_size(sealed[0]) / 2);
  std::vector<fs::path> snap_paths;
  for (uint64_t lsn : snaps.value()) {
    snap_paths.emplace_back(WalSnapshotPath(dir.str(), lsn));
    FlipByte(snap_paths.back(), fs::file_size(snap_paths.back()) / 2);
  }

  ASSERT_TRUE(engine->ScrubNow().ok());
  Dvms::StorageStats stats = engine->storage_stats();
  EXPECT_GE(stats.scrub_corruptions, 3u);
  EXPECT_EQ(stats.scrub_quarantined, 0u);
  EXPECT_TRUE(fs::exists(sealed[0]));  // evidence stays in place
  for (const fs::path& p : snap_paths) EXPECT_TRUE(fs::exists(p));

  // Fail-stop: durability is poisoned loudly — the health status reports
  // it and Checkpoint refuses — while reads keep serving in-memory state.
  ASSERT_FALSE(engine->recovery_status().ok());
  EXPECT_NE(engine->recovery_status().message().find("fail-stop"),
            std::string::npos)
      << engine->recovery_status().message();
  Status st = engine->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fail-stop"), std::string::npos)
      << st.message();
  EXPECT_EQ(CountRows(*engine), 15u);
}

TEST(ScrubTest, QuarantinesCorruptSnapshotOnlyWithValidReplacement) {
  TempDir dir("scrub_snap");
  auto engine = MakeEngine(dir.str());
  MakeTable(*engine);
  SeedRows(*engine, 0, 10);
  ASSERT_TRUE(engine->Checkpoint().ok());
  SeedRows(*engine, 100, 5);
  ASSERT_TRUE(engine->Checkpoint().ok());  // two snapshots retained
  Result<std::vector<uint64_t>> snaps = ListWalSnapshots(dir.str());
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 2u);

  fs::path older(WalSnapshotPath(dir.str(), snaps.value()[0]));
  FlipByte(older, fs::file_size(older) / 2);
  ASSERT_TRUE(engine->ScrubNow().ok());
  Dvms::StorageStats stats = engine->storage_stats();
  EXPECT_EQ(stats.scrub_corruptions, 1u);
  EXPECT_EQ(stats.scrub_quarantined, 1u);
  EXPECT_FALSE(fs::exists(older));
  EXPECT_TRUE(fs::exists(older.string() + ".quarantined"));

  size_t want = CountRows(*engine);
  engine.reset();
  auto restarted = MakeEngine(dir.str());
  ASSERT_TRUE(restarted->recovery_status().ok());
  EXPECT_EQ(CountRows(*restarted), want);
}

TEST(ScrubTest, BackgroundThreadScrubsOnCadence) {
  TempDir dir("scrub_thread");
  auto engine = MakeEngine(dir.str(), /*scrub_ms=*/2);
  BuildSealedSegment(*engine);
  std::vector<fs::path> sealed = SealedSegments(dir.str());
  ASSERT_EQ(sealed.size(), 1u);
  FlipByte(sealed[0], fs::file_size(sealed[0]) / 2);
  // No explicit ScrubNow: the cadence thread must find the rot by itself.
  bool quarantined = false;
  for (int i = 0; i < 5000 && !quarantined; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    quarantined = engine->storage_stats().scrub_quarantined > 0;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_GT(engine->storage_stats().scrub_passes, 0u);
}

TEST(ScrubTest, ScrubMsEnvVarStartsTheThread) {
  TempDir dir("scrub_env");
  ::setenv("DVMS_SCRUB_MS", "2", 1);
  auto engine = MakeEngine(dir.str());  // Options::scrub_ms stays 0
  ::unsetenv("DVMS_SCRUB_MS");
  MakeTable(*engine);
  SeedRows(*engine, 0, 4);
  bool scrubbed = false;
  for (int i = 0; i < 5000 && !scrubbed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    scrubbed = engine->storage_stats().scrub_passes > 0;
  }
  EXPECT_TRUE(scrubbed);
}

TEST(ScrubTest, StorageRelationIsQueryable) {
  TempDir dir("scrub_rel");
  auto engine = MakeEngine(dir.str());
  BuildSealedSegment(*engine);
  ASSERT_TRUE(engine->ScrubNow().ok());

  std::map<std::string, int64_t> rows = StorageRows(*engine);
  EXPECT_EQ(rows.at("degraded"), 0);
  EXPECT_EQ(rows.at("scrub_passes"), 1);
  EXPECT_GT(rows.at("scrub_segments_scanned"), 0);
  EXPECT_GT(rows.at("scrub_snapshots_scanned"), 0);
  EXPECT_EQ(rows.at("scrub_corruptions"), 0);
  EXPECT_EQ(rows.count("io_fault_checks"), 1u);
  EXPECT_EQ(rows.count("io_faults_injected"), 1u);

  // The same relation is visible on the lock-free session read path.
  Session session(engine.get());
  Result<Table> via_session = session.Query(
      "SELECT name, value FROM dvms_storage WHERE name = 'scrub_passes'");
  ASSERT_TRUE(via_session.ok()) << via_session.status().message();
  ASSERT_EQ(via_session.value().num_rows(), 1u);
  EXPECT_GE(via_session.value().row(0)[1].int_value(), 1);
}

}  // namespace
}  // namespace dvms
