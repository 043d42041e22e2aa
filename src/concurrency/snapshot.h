#ifndef DVMS_CONCURRENCY_SNAPSHOT_H_
#define DVMS_CONCURRENCY_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "parser/ast.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"

namespace dvms {

/// An immutable freeze of one relation's full version surface at a publish
/// point: working state, committed `@vnow-k` history, per-event `@tnow-j`
/// steps, and the open-transaction base. Readers resolve every VersionRef
/// against this struct with the exact semantics of
/// VersionedTable::Version/StepVersion — no lock, no live storage.
struct RelationSnapshot {
  std::string name;        // display name (original casing)
  RelationKind kind = RelationKind::kBase;
  Schema declared_schema;  // for empty @tnow reads outside a transaction
  uint64_t table_epoch = 0;  // VersionedTable::epoch() at publish

  TablePtr current;                 // never null once published
  std::vector<TablePtr> committed;  // oldest first
  std::vector<TablePtr> steps;      // oldest first, within transaction
  TablePtr txn_base;                // null when no transaction was open
  bool in_transaction = false;

  /// Mirrors VersionedTable::Version (kVnow / kCurrent) and
  /// ::StepVersion (kTnow), including the out-of-range error texts.
  Result<TablePtr> Read(const VersionRef& version) const;
};

using RelationSnapshotPtr = std::shared_ptr<const RelationSnapshot>;

/// A consistent engine-wide snapshot: every relation frozen at the same
/// publish epoch. Immutable once published; shared_ptr ownership means a
/// pinned epoch cannot be reclaimed while any reader still holds it.
/// Serves both planner schema resolution and executor scans.
class EngineSnapshotView : public SchemaResolver, public RelationSource {
 public:
  /// Monotone publish epoch (1 = first publish after engine construction).
  uint64_t epoch() const { return epoch_; }

  const RelationSnapshotPtr* Find(const std::string& name) const;
  std::vector<std::string> Names() const { return names_; }

  // SchemaResolver: schema of the working state at the snapshot.
  Result<Schema> ResolveRelation(const std::string& name) const override;

  // RelationSource: versioned read against the frozen histories.
  Result<TablePtr> Read(const std::string& relation,
                        const VersionRef& version) const override;

 private:
  friend class SnapshotManager;

  uint64_t epoch_ = 0;
  std::unordered_map<std::string, RelationSnapshotPtr> relations_;  // IdentKey
  std::vector<std::string> names_;  // creation order, original casing
};

using SnapshotPtr = std::shared_ptr<const EngineSnapshotView>;

/// Relation names in `select`'s FROM clauses, subqueries included: the
/// relations a read may need overlaid.
void CollectFromNames(const SelectStmt& select, std::vector<std::string>* out);

/// Read view layered over a base schema resolver + relation source:
/// per-read overlays (fresh system relations like dvms_metrics, built from
/// thread-safe obs counters at read time) shadow the base without mutating
/// it. The base is a published EngineSnapshotView for lock-free reads, or
/// the live catalog for statements applied under the engine write lock.
class OverlaySnapshotView : public SchemaResolver, public RelationSource {
 public:
  OverlaySnapshotView(const SchemaResolver* base_schemas,
                      const RelationSource* base_rows)
      : base_schemas_(base_schemas), base_rows_(base_rows) {}

  /// Shadows `name` with a freshly built table for this read only.
  void AddOverlay(const std::string& name, Table table);

  bool HasOverlay(const std::string& name) const;

  Result<Schema> ResolveRelation(const std::string& name) const override;
  Result<TablePtr> Read(const std::string& relation,
                        const VersionRef& version) const override;

  /// Plans, binds and executes `select` against this view. With `explain`
  /// it returns the EXPLAIN report instead: one row per operator in
  /// pre-order, whose runtime columns (rows/morsels/self_us/total_us) are
  /// filled only under `analyze`, which executes the plan.
  Result<Table> Execute(const SelectStmt& select, bool explain, bool analyze,
                        const UdfRegistry* udfs, ExecOptions opts) const;

 private:
  const SchemaResolver* base_schemas_;
  const RelationSource* base_rows_;
  std::unordered_map<std::string, TablePtr> overlays_;  // IdentKey
};

/// Publishes and hands out engine snapshots.
///
/// Publish() runs under the engine write lock at the end of every mutation
/// unit; it is incremental — relations whose VersionedTable::epoch() did
/// not move since the last publish share the previous RelationSnapshot
/// (O(1) per unchanged relation), and if nothing moved at all the previous
/// EngineSnapshotView stays current and no new epoch is minted.
///
/// Acquire() is what readers call; it takes a brief internal mutex (never
/// the engine lock) and returns a shared_ptr that keeps the whole epoch
/// alive. GC is reference counting: an epoch is reclaimed when the last
/// reader (and the manager's own latest-pointer) releases it — a pinned
/// epoch can therefore never be reclaimed early, which ASan verifies for
/// free in the snapshot-invariant tests.
class SnapshotManager {
 public:
  /// Freezes `catalog`, named EXPLAIN reports (kSystem) included. Returns
  /// the now-current epoch.
  uint64_t Publish(const Catalog& catalog);

  /// The latest published snapshot; null before the first Publish.
  SnapshotPtr Acquire() const;

  /// Explicit pin accounting (session Pin/Unpin and per-read guards):
  /// purely for leak-checking via GovernorStats — lifetime itself is the
  /// shared_ptr.
  void NotePin();
  void NoteUnpin();

  uint64_t current_epoch() const;
  int64_t pinned() const;
  uint64_t epochs_published() const;
  /// Published epochs whose EngineSnapshotView has been destroyed.
  uint64_t epochs_retired() const;

 private:
  mutable std::mutex mu_;
  SnapshotPtr latest_;
  uint64_t next_epoch_ = 1;
  uint64_t epochs_published_ = 0;
  uint64_t retired_compacted_ = 0;  // retired views dropped from history_
  int64_t pinned_ = 0;
  /// Every published view, weakly held: retired = published - still alive.
  mutable std::vector<std::weak_ptr<const EngineSnapshotView>> history_;
};

}  // namespace dvms

#endif  // DVMS_CONCURRENCY_SNAPSHOT_H_
