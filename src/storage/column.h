#ifndef DVMS_STORAGE_COLUMN_H_
#define DVMS_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace dvms {

/// One typed column of a columnar Table: a dense vector of the column's
/// native representation plus a validity bitmap for NULLs. Strings are
/// stored as dense dictionary ids (see storage/dict.h); equality and
/// grouping compare ids, string bytes are touched only for ordering
/// between distinct ids and at output.
///
/// The encoding is decided by the first non-NULL value appended, not by
/// the declared schema type, so the exact per-cell Value type round-trips
/// bit-identically (a DOUBLE-declared column that received an INT64 keeps
/// producing Value::Int). A column that sees a second value type demotes
/// itself to a per-cell Value fallback (kVariant) — correctness never
/// depends on type homogeneity, only speed does.
class ColumnVec {
 public:
  enum class Enc : uint8_t {
    kEmpty = 0,  // no non-NULL value seen yet; every cell is NULL
    kInt64,
    kDouble,
    kBool,
    kDict,    // interned string ids
    kVariant  // mixed types: per-cell Value storage
  };

  ColumnVec() = default;

  size_t size() const { return size_; }
  Enc enc() const { return enc_; }
  bool IsNull(size_t i) const {
    return (valid_[i >> 6] & (1ull << (i & 63))) == 0;
  }
  size_t null_count() const { return null_count_; }
  bool all_valid() const { return null_count_ == 0; }

  /// Materializes cell `i` as a Value (exact type round-trip).
  Value Get(size_t i) const;

  void Append(const Value& v);
  void AppendNull();

  // Typed appends for bulk decode paths: fix the encoding on first use and
  // skip per-cell Value construction. The column must be empty-encoded or
  // already match (mixing typed appends across encodings is a programming
  // error and demotes to kVariant like Append would).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendDictId(uint32_t id);

  /// Appends src's cells [begin, end). Bulk-copies when encodings allow.
  void AppendRange(const ColumnVec& src, size_t begin, size_t end);

  /// Appends src's cells at the given row indexes, in order.
  void AppendGather(const ColumnVec& src, const std::vector<size_t>& idx);

  void Clear();
  void Reserve(size_t n);

  /// Appends `n` NULL cells (used to pad columns added after rows exist).
  void AppendNulls(size_t n);

  // ---- Typed access (valid only for the matching enc()) ----
  const std::vector<int64_t>& ints() const { return i64_; }
  const std::vector<double>& doubles() const { return f64_; }
  const std::vector<uint8_t>& bools() const { return b8_; }
  const std::vector<uint32_t>& dict_ids() const { return ids_; }
  const std::vector<Value>& variants() const { return var_; }
  const std::vector<uint64_t>& validity() const { return valid_; }

  // ---- Cell operations, exactly mirroring Value semantics ----
  // CompareCells mirrors Value::Compare (total order, NaN-last, exact
  // int64/double), CellEquals mirrors Value::Equals, and HashCell equals
  // Value::Hash of the cell without materializing it — so hashes agree
  // across encodings, as set operations and joins need when they compare
  // cells of different columns.
  int CompareCells(size_t i, const ColumnVec& other, size_t j) const;
  bool CellEquals(size_t i, const ColumnVec& other, size_t j) const;
  size_t HashCell(size_t i) const;

 private:
  void PushValidity(bool valid);
  /// Converts dense storage to per-cell Values (first mixed-type append).
  void Demote();
  /// Fixes enc_ from kEmpty on the first non-NULL append, backfilling
  /// placeholder slots for any NULLs appended before it.
  void Decide(ValueType t);

  Enc enc_ = Enc::kEmpty;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> valid_;  // bit i set = cell i is non-NULL
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<uint32_t> ids_;
  std::vector<Value> var_;
};

}  // namespace dvms

#endif  // DVMS_STORAGE_COLUMN_H_
