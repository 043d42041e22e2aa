#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/trace.h"

namespace dvms {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  cols_.resize(schema_.num_columns());
}

Table::Table(Schema schema, std::vector<Row> rows) : schema_(std::move(schema)) {
  cols_.resize(schema_.num_columns());
  Reserve(rows.size());
  for (Row& row : rows) AppendUnchecked(std::move(row));
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      num_rows_(other.num_rows_),
      cols_(other.cols_),
      row_widths_(other.row_widths_) {}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  num_rows_ = other.num_rows_;
  cols_ = other.cols_;
  row_widths_ = other.row_widths_;
  InvalidateRowCache();
  return *this;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      num_rows_(other.num_rows_),
      cols_(std::move(other.cols_)),
      row_widths_(std::move(other.row_widths_)) {
  row_cache_.store(other.row_cache_.exchange(nullptr, std::memory_order_acq_rel),
                   std::memory_order_release);
  other.num_rows_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  num_rows_ = other.num_rows_;
  cols_ = std::move(other.cols_);
  row_widths_ = std::move(other.row_widths_);
  delete row_cache_.exchange(
      other.row_cache_.exchange(nullptr, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  other.num_rows_ = 0;
  return *this;
}

Table::~Table() { delete row_cache_.load(std::memory_order_acquire); }

void Table::InvalidateRowCache() {
  delete row_cache_.exchange(nullptr, std::memory_order_acq_rel);
}

Table::RowCache* Table::EnsureCache() const {
  RowCache* cache = row_cache_.load(std::memory_order_acquire);
  if (cache == nullptr) {
    auto* fresh = new RowCache();
    RowCache* expected = nullptr;
    if (row_cache_.compare_exchange_strong(expected, fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      cache = fresh;
    } else {
      delete fresh;
      cache = expected;
    }
  }
  return cache;
}

std::vector<Row> Table::MaterializeRows() const {
  obs::Count("table.row_views");
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    size_t width = RowWidth(r);
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) row.push_back(cols_[c].Get(r));
    rows.push_back(std::move(row));
  }
  return rows;
}

const std::vector<Row>& Table::rows() const {
  RowCache* cache = EnsureCache();
  std::call_once(cache->once, [&] { cache->rows = MaterializeRows(); });
  return cache->rows;
}

void Table::NoteRowWidth(size_t width) {
  if (row_widths_.empty()) {
    // All prior rows (if any) have the current full column width.
    row_widths_.assign(num_rows_, static_cast<uint32_t>(cols_.size()));
  }
  row_widths_.push_back(static_cast<uint32_t>(width));
}

void Table::AppendCells(const Row& row) {
  size_t width = row.size();
  for (size_t c = 0; c < width; ++c) cols_[c].Append(row[c]);
  for (size_t c = width; c < cols_.size(); ++c) cols_[c].AppendNull();
}

void Table::AppendUnchecked(Row row) {
  size_t width = row.size();
  if (width > cols_.size()) {
    // Widen: prior rows keep their original arity via the ragged widths.
    if (num_rows_ > 0 && row_widths_.empty()) {
      row_widths_.assign(num_rows_, static_cast<uint32_t>(cols_.size()));
    }
    size_t old = cols_.size();
    cols_.resize(width);
    for (size_t c = old; c < width; ++c) cols_[c].AppendNulls(num_rows_);
  }
  if (!row_widths_.empty()) {
    row_widths_.push_back(static_cast<uint32_t>(width));
  } else if (width != cols_.size()) {
    NoteRowWidth(width);
  }
  AppendCells(row);
  ++num_rows_;
  InvalidateRowCache();
}

Status Table::Append(Row row) {
  if (!schema_.RowMatches(row)) {
    return Status::TypeError("row does not match schema [" +
                             schema_.ToString() + "]");
  }
  AppendUnchecked(std::move(row));
  return Status::OK();
}

void Table::AppendRange(const Table& src, size_t begin, size_t end) {
  if (begin >= end) return;
  if (!src.row_widths_.empty() || cols_.size() != src.cols_.size() ||
      !row_widths_.empty()) {
    for (size_t r = begin; r < end; ++r) {
      size_t width = src.RowWidth(r);
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) row.push_back(src.cols_[c].Get(r));
      AppendUnchecked(std::move(row));
    }
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendRange(src.cols_[c], begin, end);
  }
  num_rows_ += end - begin;
  InvalidateRowCache();
}

void Table::AppendGather(const Table& src, const std::vector<size_t>& idx) {
  if (idx.empty()) return;
  if (!src.row_widths_.empty() || cols_.size() != src.cols_.size() ||
      !row_widths_.empty()) {
    for (size_t r : idx) {
      size_t width = src.RowWidth(r);
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) row.push_back(src.cols_[c].Get(r));
      AppendUnchecked(std::move(row));
    }
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendGather(src.cols_[c], idx);
  }
  num_rows_ += idx.size();
  InvalidateRowCache();
}

void Table::AppendProjected(const Table& src,
                            const std::vector<size_t>& col_idx) {
  bool fast = src.row_widths_.empty() && row_widths_.empty() &&
              cols_.size() == col_idx.size();
  for (size_t k = 0; fast && k < col_idx.size(); ++k) {
    fast = col_idx[k] < src.cols_.size();
  }
  if (!fast) {
    for (size_t r = 0; r < src.num_rows_; ++r) {
      Row row;
      row.reserve(col_idx.size());
      for (size_t c : col_idx) {
        row.push_back(c < src.RowWidth(r) ? src.cols_[c].Get(r)
                                          : Value::Null());
      }
      AppendUnchecked(std::move(row));
    }
    return;
  }
  for (size_t k = 0; k < col_idx.size(); ++k) {
    cols_[k].AppendRange(src.cols_[col_idx[k]], 0, src.num_rows_);
  }
  num_rows_ += src.num_rows_;
  InvalidateRowCache();
}

void Table::ReplaceRows(std::vector<Row> rows) {
  Clear();
  Reserve(rows.size());
  for (Row& row : rows) AppendUnchecked(std::move(row));
}

Status Table::InstallColumns(std::vector<ColumnVec> cols, size_t n) {
  for (const ColumnVec& col : cols) {
    if (col.size() != n) {
      return Status::ExecutionError(
          "column size " + std::to_string(col.size()) +
          " does not match table row count " + std::to_string(n));
    }
  }
  cols_ = std::move(cols);
  num_rows_ = n;
  row_widths_.clear();
  InvalidateRowCache();
  return Status::OK();
}

void Table::ReplaceSchema(Schema schema) {
  schema_ = std::move(schema);
  if (schema_.num_columns() > cols_.size()) {
    if (num_rows_ > 0 && row_widths_.empty()) {
      row_widths_.assign(num_rows_, static_cast<uint32_t>(cols_.size()));
    }
    size_t old = cols_.size();
    cols_.resize(schema_.num_columns());
    for (size_t c = old; c < cols_.size(); ++c) {
      cols_[c].AppendNulls(num_rows_);
    }
    InvalidateRowCache();
  }
}

void Table::Clear() {
  for (ColumnVec& col : cols_) col.Clear();
  // Keep the column slots themselves: the schema still declares them.
  cols_.resize(schema_.num_columns());
  num_rows_ = 0;
  row_widths_.clear();
  InvalidateRowCache();
}

void Table::Reserve(size_t n) {
  for (ColumnVec& col : cols_) col.Reserve(n);
}

Result<Value> Table::At(RowId row, const std::string& column) const {
  if (row >= num_rows_) {
    return Status::InvalidArgument("row index out of range");
  }
  DVMS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(column));
  if (idx >= cols_.size()) return Value::Null();
  return cols_[idx].Get(row);
}

void Table::SortByColumns(const std::vector<size_t>& cols) {
  std::vector<size_t> perm(num_rows_);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [this, &cols](size_t a, size_t b) {
    for (size_t c : cols) {
      int cmp = cols_[c].CompareCells(a, cols_[c], b);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  Table sorted(schema_);
  sorted.Reserve(num_rows_);
  sorted.AppendGather(*this, perm);
  *this = std::move(sorted);
}

bool Table::SameContents(const Table& other) const {
  if (!schema_.UnionCompatible(other.schema_)) return false;
  if (num_rows_ != other.num_rows_) return false;
  if (!row_widths_.empty() || !other.row_widths_.empty() ||
      cols_.size() != other.cols_.size()) {
    // Ragged/mismatched layouts: fall back to row-view comparison.
    std::vector<Row> a = rows();
    std::vector<Row> b = other.rows();
    auto less = [](const Row& x, const Row& y) { return CompareRows(x, y) < 0; };
    std::sort(a.begin(), a.end(), less);
    std::sort(b.begin(), b.end(), less);
    for (size_t i = 0; i < a.size(); ++i) {
      if (!RowsEqual(a[i], b[i])) return false;
    }
    return true;
  }
  // Columnar path: sort both sides' row indexes by the shared total order
  // (dictionary ids short-circuit string equality), then compare the
  // sorted sequences cell-wise. No row materialization, no deep copies.
  auto sorted_perm = [](const Table& t) {
    std::vector<size_t> perm(t.num_rows_);
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&t](size_t a, size_t b) {
      for (size_t c = 0; c < t.cols_.size(); ++c) {
        int cmp = t.cols_[c].CompareCells(a, t.cols_[c], b);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    return perm;
  };
  std::vector<size_t> pa = sorted_perm(*this);
  std::vector<size_t> pb = sorted_perm(other);
  for (size_t k = 0; k < pa.size(); ++k) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (cols_[c].CompareCells(pa[k], other.cols_[c], pb[k]) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<size_t> widths(schema_.num_columns());
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    header.push_back(schema_.column(c).name);
    widths[c] = header.back().size();
  }
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    size_t row_width = std::min(RowWidth(r), schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      line.push_back(c < row_width ? cols_[c].Get(r).ToString() : "");
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  auto emit_line = [&widths](const std::vector<std::string>& line) {
    std::string out = "|";
    for (size_t c = 0; c < line.size(); ++c) {
      out += " " + line[c];
      out += std::string(widths[c] - line[c].size() + 1, ' ');
      out += "|";
    }
    return out + "\n";
  };
  std::string out = emit_line(header);
  std::string rule = "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c] + 2, '-') + "|";
  }
  out += rule + "\n";
  for (const auto& line : cells) out += emit_line(line);
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

TablePtr MakeTablePtr(Table table) {
  return std::make_shared<const Table>(std::move(table));
}

}  // namespace dvms
