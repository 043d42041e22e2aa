#ifndef DVMS_COMMON_VALUE_H_
#define DVMS_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dvms {

/// Column/value types supported by the engine.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns "NULL", "BOOL", "INT64", "DOUBLE", or "STRING".
const char* ValueTypeToString(ValueType type);

/// A dynamically typed SQL value. NULL compares equal to NULL for grouping
/// purposes but is falsy in predicates (three-valued logic is collapsed to
/// "NULL predicate == false", which is what DeVIL needs).
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Storage(b)); }
  static Value Int(int64_t i) { return Value(Storage(i)); }
  static Value Double(double d) { return Value(Storage(d)); }
  static Value String(std::string s) { return Value(Storage(std::move(s))); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kBool;
      case 2:
        return ValueType::kInt64;
      case 3:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return data_.index() == 0; }

  /// Typed accessors. Callers must check type() first; accessing the wrong
  /// alternative is a programming error.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }

  /// Numeric coercion: INT64 and DOUBLE (and BOOL as 0/1) convert to double.
  /// Returns an error for STRING/NULL.
  Result<double> AsDouble() const;

  /// Numeric coercion to int64 (truncating for DOUBLE).
  Result<int64_t> AsInt() const;

  /// Truthiness for predicate evaluation: NULL -> false, BOOL -> itself,
  /// numbers -> != 0, STRING -> non-empty.
  bool IsTruthy() const;

  /// SQL-style equality used by joins/grouping: NULL == NULL is true here;
  /// INT64 and DOUBLE compare numerically.
  bool Equals(const Value& other) const;

  /// Total ordering for ORDER BY and map keys: NULL < BOOL < numbers <
  /// STRING; numbers compare numerically across INT64/DOUBLE.
  int Compare(const Value& other) const;

  /// Render for debugging / bench tables. Strings are unquoted.
  std::string ToString() const;

  /// Stable hash consistent with Equals.
  size_t Hash() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  using Storage =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Storage data) : data_(std::move(data)) {}

  Storage data_;
};

/// Total order on doubles for sorting/comparison: -0.0 == 0.0, and NaN
/// sorts after every other double (including +inf) with NaN == NaN. This
/// keeps Value::Compare a strict weak ordering in the presence of NaN.
int CompareDoublesTotal(double a, double b);

/// Exact comparison of an int64 against a double: classifies the double
/// against the int64 range before any widening, so integers of magnitude
/// > 2^53 are never misordered by a lossy double conversion. NaN compares
/// greater than every integer (consistent with CompareDoublesTotal).
int CompareInt64Double(int64_t a, double b);

/// A tuple of values. Row layout is positional against a Schema.
using Row = std::vector<Value>;

/// The hash Value::Hash gives a numeric value with double image `d`:
/// -0.0 hashes as 0.0 and every NaN alike, consistent with Equals.
size_t HashNumeric(double d);

/// Hash of an entire row (order-sensitive): HashRowStep folds each cell's
/// hash into kRowHashSeed in column order.
size_t HashRow(const Row& row);
inline constexpr size_t kRowHashSeed = 0x51ed2701a3c5e891ULL;
inline size_t HashRowStep(size_t h, size_t cell_hash) {
  return h ^ (cell_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// True iff rows have equal length and pairwise Equals values.
bool RowsEqual(const Row& a, const Row& b);

/// Lexicographic comparison of two rows via Value::Compare.
int CompareRows(const Row& a, const Row& b);

/// Functors for using Row in unordered containers.
struct RowHash {
  size_t operator()(const Row& row) const { return HashRow(row); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const { return RowsEqual(a, b); }
};

}  // namespace dvms

#endif  // DVMS_COMMON_VALUE_H_
