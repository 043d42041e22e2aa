#ifndef DVMS_STORAGE_TABLE_H_
#define DVMS_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/column.h"

namespace dvms {

/// Row identifier within one table version: the row's index.
using RowId = size_t;

/// An in-memory columnar relation: one typed ColumnVec per column (with
/// dictionary-interned strings and validity bitmaps), plus a lazily
/// materialized row view. Tables are value types; VersionedTable layers
/// snapshot semantics on top via shared immutable versions.
///
/// The event-to-pixels path (the vectorized executor, the rasterizer, the
/// crossfilter optimizer, DELETE) reads columns via `col(c)` / `ValueAt`.
/// The row view (`rows()` / `row(i)`) serves the row operators, kept as
/// the executor's reference, and consumers not yet moved to columns
/// (provenance, table UDFs, session event polling). It is a cache built
/// from the columns on first use, counted in the `table.row_views`
/// counter, and dropped on mutation; materialization is thread-safe on
/// shared `const Table`s (snapshot readers).
///
/// Rows whose arity differs from the column count (legacy "ragged" tables
/// built with AppendUnchecked) are preserved exactly: per-row widths are
/// tracked lazily and the row view reproduces each row at its original
/// arity.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  Table(Schema schema, std::vector<Row> rows);

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;
  ~Table();

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Row view (compat): materialized from columns on first use.
  const Row& row(RowId i) const { return rows()[i]; }
  const std::vector<Row>& rows() const;

  // ---- Columnar access (the vectorized hot path) ----
  size_t num_columns() const { return cols_.size(); }
  const ColumnVec& col(size_t c) const { return cols_[c]; }
  /// True if some row's arity differs from the column count; vectorized
  /// operators fall back to the row view for such (legacy-built) tables.
  bool IsRagged() const { return !row_widths_.empty(); }
  /// Cell (r, c) as a Value, straight from the column (no row view).
  Value ValueAt(RowId r, size_t c) const { return cols_[c].Get(r); }

  /// Appends after validating arity/types against the schema.
  Status Append(Row row);

  /// Appends without validation; for internal operators that construct
  /// schema-correct rows by construction.
  void AppendUnchecked(Row row);

  /// Appends src's rows [begin, end) (bulk column copy). Schemas must be
  /// layout-compatible; cells are copied positionally.
  void AppendRange(const Table& src, size_t begin, size_t end);

  /// Appends src's rows at the given indexes, in order (typed gather).
  void AppendGather(const Table& src, const std::vector<size_t>& idx);

  /// Appends src's rows [0, num_rows) projected to the given column
  /// indexes, in order (pure column copies, no row materialization).
  void AppendProjected(const Table& src, const std::vector<size_t>& col_idx);

  /// Replaces this table's contents with the given rows (schema kept).
  void ReplaceRows(std::vector<Row> rows);

  /// Decoder path: replaces the contents with pre-built columns, all of
  /// size `n`. Fails (leaving the table unchanged) on size mismatches.
  Status InstallColumns(std::vector<ColumnVec> cols, size_t n);

  /// Replaces the schema without touching the data; the new schema's arity
  /// must be layout-compatible with the stored columns (callers validate
  /// union compatibility).
  void ReplaceSchema(Schema schema);

  void Clear();
  void Reserve(size_t n);

  /// Value at (row, column-name); error if the column is absent.
  Result<Value> At(RowId row, const std::string& column) const;

  /// Stable-sorts rows lexicographically by the given column indexes.
  void SortByColumns(const std::vector<size_t>& cols);

  /// True iff same schema arity/types and same multiset of rows. Compares
  /// on columns (dictionary ids for strings) without materializing rows.
  bool SameContents(const Table& other) const;

  /// ASCII rendering with a header row; for debugging and bench output.
  std::string ToString(size_t max_rows = 50) const;

 private:
  struct RowCache {
    std::once_flag once;
    std::vector<Row> rows;
  };

  size_t RowWidth(RowId i) const {
    return row_widths_.empty() ? cols_.size() : row_widths_[i];
  }
  /// Marks the table ragged from this point if `width` deviates.
  void NoteRowWidth(size_t width);
  void AppendCells(const Row& row);
  RowCache* EnsureCache() const;
  void InvalidateRowCache();
  std::vector<Row> MaterializeRows() const;

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<ColumnVec> cols_;
  /// Non-empty only for ragged tables: per-row original arity.
  std::vector<uint32_t> row_widths_;
  /// Lazily created, mutation-invalidated row view. Owned; atomic so
  /// concurrent readers of a shared const table can race to create it.
  mutable std::atomic<RowCache*> row_cache_{nullptr};
};

using TablePtr = std::shared_ptr<const Table>;

/// Convenience: wraps a Table in a shared immutable pointer.
TablePtr MakeTablePtr(Table table);

}  // namespace dvms

#endif  // DVMS_STORAGE_TABLE_H_
