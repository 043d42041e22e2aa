#ifndef DVMS_STORAGE_CATALOG_H_
#define DVMS_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/versioned_table.h"

namespace dvms {

/// How a relation came to exist; affects what the engine is allowed to do
/// with it (e.g. only views are recomputed by the executor, only event
/// tables are written by the event recognizer).
enum class RelationKind {
  kBase,   // user data loaded into the system
  kView,   // materialized result of a DeVIL view statement
  kEvent,  // compound-event table fed by the event recognizer
  kMarks,   // marks relation (a view whose output is renderable)
  kSystem,  // engine-maintained report (a named EXPLAIN); excluded from
            // commits, undo, durable snapshots, and the WAL
};

const char* RelationKindToString(RelationKind kind);

/// Name -> relation registry. Names are case-insensitive (SQL identifiers).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty relation. Errors if the name is taken.
  Result<VersionedTable*> CreateTable(const std::string& name, Schema schema,
                                      RelationKind kind,
                                      size_t max_history = 16);

  /// Looks up a relation; NotFound if absent.
  Result<VersionedTable*> Get(const std::string& name) const;

  /// Relation kind; NotFound if absent.
  Result<RelationKind> KindOf(const std::string& name) const;

  bool Exists(const std::string& name) const;

  Status Drop(const std::string& name);

  /// All relation names in creation order.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::unique_ptr<VersionedTable> table;
    RelationKind kind;
  };
  std::unordered_map<std::string, Entry> entries_;
  std::vector<std::string> creation_order_;  // IdentKeys
};

}  // namespace dvms

#endif  // DVMS_STORAGE_CATALOG_H_
