#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace dvms {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<double> Value::AsDouble() const {
  switch (type()) {
    case ValueType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case ValueType::kInt64:
      return static_cast<double>(int_value());
    case ValueType::kDouble:
      return double_value();
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               ValueTypeToString(type()) + " to DOUBLE");
  }
}

Result<int64_t> Value::AsInt() const {
  switch (type()) {
    case ValueType::kBool:
      return static_cast<int64_t>(bool_value());
    case ValueType::kInt64:
      return int_value();
    case ValueType::kDouble:
      return static_cast<int64_t>(double_value());
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               ValueTypeToString(type()) + " to INT64");
  }
}

bool Value::IsTruthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return bool_value();
    case ValueType::kInt64:
      return int_value() != 0;
    case ValueType::kDouble:
      return double_value() != 0.0;
    case ValueType::kString:
      return !string_value().empty();
  }
  return false;
}

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt64 ||
         t == ValueType::kDouble;
}

double NumericOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
      return v.bool_value() ? 1.0 : 0.0;
    case ValueType::kInt64:
      return static_cast<double>(v.int_value());
    default:
      return v.double_value();
  }
}

/// Shared numeric comparison for Compare/Equals: exact for int64 pairs and
/// int64-vs-double, total-ordered (NaN-last, NaN == NaN) for everything
/// that goes through doubles. BOOL participates via its 0/1 image, which
/// is always exactly representable.
int CompareNumericValues(const Value& a, const Value& b) {
  ValueType ta = a.type(), tb = b.type();
  if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
    int64_t x = a.int_value(), y = b.int_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ta == ValueType::kInt64 && tb == ValueType::kDouble) {
    return CompareInt64Double(a.int_value(), b.double_value());
  }
  if (ta == ValueType::kDouble && tb == ValueType::kInt64) {
    return -CompareInt64Double(b.int_value(), a.double_value());
  }
  return CompareDoublesTotal(NumericOf(a), NumericOf(b));
}

}  // namespace

int CompareDoublesTotal(double a, double b) {
  bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return na == nb ? 0 : (na ? 1 : -1);
  return a < b ? -1 : (a > b ? 1 : 0);
}

int CompareInt64Double(int64_t a, double b) {
  if (std::isnan(b)) return -1;  // every number sorts before NaN
  // 2^63 and -2^63 are exactly representable as doubles, so classifying b
  // against the int64 range is exact.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (b >= kTwo63) return -1;
  if (b < -kTwo63) return 1;
  // b is in [-2^63, 2^63): floor(b) fits in int64 and the cast is exact.
  double fb = std::floor(b);
  int64_t ib = static_cast<int64_t>(fb);
  if (a < ib) return -1;
  if (a > ib) return 1;
  // a == floor(b): equal unless b carries a fractional part.
  return b > fb ? -1 : 0;
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (IsNumeric(type()) && IsNumeric(other.type())) {
    return CompareNumericValues(*this, other) == 0;
  }
  if (type() != other.type()) return false;
  if (type() == ValueType::kString) {
    return string_value() == other.string_value();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kBool:
      case ValueType::kInt64:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(type());
  int rb = rank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return CompareNumericValues(*this, other);
    default: {
      const std::string& a = string_value();
      const std::string& b = other.string_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(int_value());
    case ValueType::kDouble: {
      double d = double_value();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        // Render integral doubles without a trailing ".000000".
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", d);
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case ValueType::kString:
      return string_value();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kBool:
    case ValueType::kInt64:
    case ValueType::kDouble:
      // Hash all numerics via their double image so Equals-equal values
      // hash equal. (Int64s beyond 2^53 may collide with nearby doubles
      // they no longer Equal; collisions are fine, inconsistency is not.)
      return HashNumeric(NumericOf(*this));
    case ValueType::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

size_t HashNumeric(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0
  if (std::isnan(d)) return 0x7ff8dead5eedf00dULL;  // NaN == NaN now
  return std::hash<double>()(d);
}

size_t HashRow(const Row& row) {
  size_t h = kRowHashSeed;
  for (const Value& v : row) h = HashRowStep(h, v.Hash());
  return h;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

}  // namespace dvms
