#include "storage/column.h"

#include <cassert>
#include <functional>

#include "storage/dict.h"

namespace dvms {

Value ColumnVec::Get(size_t i) const {
  assert(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (enc_) {
    case Enc::kEmpty:
      return Value::Null();
    case Enc::kInt64:
      return Value::Int(i64_[i]);
    case Enc::kDouble:
      return Value::Double(f64_[i]);
    case Enc::kBool:
      return Value::Bool(b8_[i] != 0);
    case Enc::kDict:
      return Value::String(strdict::Lookup(ids_[i]));
    case Enc::kVariant:
      return var_[i];
  }
  return Value::Null();
}

void ColumnVec::PushValidity(bool valid) {
  if ((size_ & 63) == 0) valid_.push_back(0);
  if (valid) {
    valid_.back() |= 1ull << (size_ & 63);
  } else {
    ++null_count_;
  }
  ++size_;
}

void ColumnVec::Decide(ValueType t) {
  assert(enc_ == Enc::kEmpty);
  switch (t) {
    case ValueType::kInt64:
      enc_ = Enc::kInt64;
      i64_.assign(size_, 0);
      break;
    case ValueType::kDouble:
      enc_ = Enc::kDouble;
      f64_.assign(size_, 0.0);
      break;
    case ValueType::kBool:
      enc_ = Enc::kBool;
      b8_.assign(size_, 0);
      break;
    case ValueType::kString:
      enc_ = Enc::kDict;
      ids_.assign(size_, strdict::kInvalidId);
      break;
    case ValueType::kNull:
      break;
  }
}

void ColumnVec::Demote() {
  std::vector<Value> values;
  values.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values.push_back(Get(i));
  var_ = std::move(values);
  i64_.clear();
  i64_.shrink_to_fit();
  f64_.clear();
  f64_.shrink_to_fit();
  b8_.clear();
  b8_.shrink_to_fit();
  ids_.clear();
  ids_.shrink_to_fit();
  enc_ = Enc::kVariant;
}

void ColumnVec::AppendNull() {
  switch (enc_) {
    case Enc::kEmpty:
      break;
    case Enc::kInt64:
      i64_.push_back(0);
      break;
    case Enc::kDouble:
      f64_.push_back(0.0);
      break;
    case Enc::kBool:
      b8_.push_back(0);
      break;
    case Enc::kDict:
      ids_.push_back(strdict::kInvalidId);
      break;
    case Enc::kVariant:
      var_.push_back(Value::Null());
      break;
  }
  PushValidity(false);
}

void ColumnVec::AppendNulls(size_t n) {
  for (size_t i = 0; i < n; ++i) AppendNull();
}

void ColumnVec::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (enc_ == Enc::kEmpty) Decide(v.type());
  switch (enc_) {
    case Enc::kInt64:
      if (v.type() != ValueType::kInt64) break;
      i64_.push_back(v.int_value());
      PushValidity(true);
      return;
    case Enc::kDouble:
      if (v.type() != ValueType::kDouble) break;
      f64_.push_back(v.double_value());
      PushValidity(true);
      return;
    case Enc::kBool:
      if (v.type() != ValueType::kBool) break;
      b8_.push_back(v.bool_value() ? 1 : 0);
      PushValidity(true);
      return;
    case Enc::kDict:
      if (v.type() != ValueType::kString) break;
      ids_.push_back(strdict::Intern(v.string_value()));
      PushValidity(true);
      return;
    case Enc::kVariant:
      var_.push_back(v);
      PushValidity(true);
      return;
    case Enc::kEmpty:
      break;
  }
  // Mixed-type append: fall back to per-cell Values.
  Demote();
  var_.push_back(v);
  PushValidity(true);
}

void ColumnVec::AppendInt64(int64_t v) {
  if (enc_ == Enc::kEmpty) Decide(ValueType::kInt64);
  if (enc_ != Enc::kInt64) {
    Append(Value::Int(v));
    return;
  }
  i64_.push_back(v);
  PushValidity(true);
}

void ColumnVec::AppendDouble(double v) {
  if (enc_ == Enc::kEmpty) Decide(ValueType::kDouble);
  if (enc_ != Enc::kDouble) {
    Append(Value::Double(v));
    return;
  }
  f64_.push_back(v);
  PushValidity(true);
}

void ColumnVec::AppendBool(bool v) {
  if (enc_ == Enc::kEmpty) Decide(ValueType::kBool);
  if (enc_ != Enc::kBool) {
    Append(Value::Bool(v));
    return;
  }
  b8_.push_back(v ? 1 : 0);
  PushValidity(true);
}

void ColumnVec::AppendDictId(uint32_t id) {
  if (enc_ == Enc::kEmpty) Decide(ValueType::kString);
  if (enc_ != Enc::kDict) {
    Append(Value::String(strdict::Lookup(id)));
    return;
  }
  ids_.push_back(id);
  PushValidity(true);
}

void ColumnVec::Clear() {
  enc_ = Enc::kEmpty;
  size_ = 0;
  null_count_ = 0;
  valid_.clear();
  i64_.clear();
  f64_.clear();
  b8_.clear();
  ids_.clear();
  var_.clear();
}

void ColumnVec::Reserve(size_t n) {
  valid_.reserve((n + 63) / 64);
  switch (enc_) {
    case Enc::kInt64:
      i64_.reserve(n);
      break;
    case Enc::kDouble:
      f64_.reserve(n);
      break;
    case Enc::kBool:
      b8_.reserve(n);
      break;
    case Enc::kDict:
      ids_.reserve(n);
      break;
    case Enc::kVariant:
      var_.reserve(n);
      break;
    case Enc::kEmpty:
      break;
  }
}

void ColumnVec::AppendRange(const ColumnVec& src, size_t begin, size_t end) {
  assert(end <= src.size_);
  if (begin >= end) return;
  // Bulk path: both sides agree on the dense encoding (or this column has
  // not decided yet and can adopt src's).
  if (enc_ == Enc::kEmpty && src.enc_ != Enc::kEmpty &&
      src.enc_ != Enc::kVariant) {
    Decide(src.enc_ == Enc::kInt64    ? ValueType::kInt64
           : src.enc_ == Enc::kDouble ? ValueType::kDouble
           : src.enc_ == Enc::kBool   ? ValueType::kBool
                                      : ValueType::kString);
  }
  if (enc_ == src.enc_ && enc_ != Enc::kVariant) {
    switch (enc_) {
      case Enc::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + begin,
                    src.i64_.begin() + end);
        break;
      case Enc::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + begin,
                    src.f64_.begin() + end);
        break;
      case Enc::kBool:
        b8_.insert(b8_.end(), src.b8_.begin() + begin, src.b8_.begin() + end);
        break;
      case Enc::kDict:
        ids_.insert(ids_.end(), src.ids_.begin() + begin,
                    src.ids_.begin() + end);
        break;
      default:
        break;
    }
    if (src.all_valid()) {
      for (size_t i = begin; i < end; ++i) PushValidity(true);
    } else {
      for (size_t i = begin; i < end; ++i) PushValidity(!src.IsNull(i));
    }
    return;
  }
  for (size_t i = begin; i < end; ++i) {
    if (src.IsNull(i)) {
      AppendNull();
    } else {
      Append(src.Get(i));
    }
  }
}

void ColumnVec::AppendGather(const ColumnVec& src,
                             const std::vector<size_t>& idx) {
  if (enc_ == Enc::kEmpty && src.enc_ != Enc::kEmpty &&
      src.enc_ != Enc::kVariant && !idx.empty()) {
    Decide(src.enc_ == Enc::kInt64    ? ValueType::kInt64
           : src.enc_ == Enc::kDouble ? ValueType::kDouble
           : src.enc_ == Enc::kBool   ? ValueType::kBool
                                      : ValueType::kString);
  }
  if (enc_ == src.enc_ && enc_ != Enc::kVariant && enc_ != Enc::kEmpty) {
    switch (enc_) {
      case Enc::kInt64:
        for (size_t i : idx) i64_.push_back(src.i64_[i]);
        break;
      case Enc::kDouble:
        for (size_t i : idx) f64_.push_back(src.f64_[i]);
        break;
      case Enc::kBool:
        for (size_t i : idx) b8_.push_back(src.b8_[i]);
        break;
      case Enc::kDict:
        for (size_t i : idx) ids_.push_back(src.ids_[i]);
        break;
      default:
        break;
    }
    if (src.all_valid()) {
      for (size_t n = 0; n < idx.size(); ++n) PushValidity(true);
    } else {
      for (size_t i : idx) PushValidity(!src.IsNull(i));
    }
    return;
  }
  for (size_t i : idx) {
    if (src.IsNull(i)) {
      AppendNull();
    } else {
      Append(src.Get(i));
    }
  }
}

int ColumnVec::CompareCells(size_t i, const ColumnVec& other, size_t j) const {
  bool an = IsNull(i), bn = other.IsNull(j);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);  // NULL sorts first
  if (enc_ == other.enc_) {
    switch (enc_) {
      case Enc::kInt64: {
        int64_t a = i64_[i], b = other.i64_[j];
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      case Enc::kDouble:
        return CompareDoublesTotal(f64_[i], other.f64_[j]);
      case Enc::kBool: {
        int a = b8_[i] != 0, b = other.b8_[j] != 0;
        return a - b;
      }
      case Enc::kDict: {
        uint32_t a = ids_[i], b = other.ids_[j];
        if (a == b) return 0;  // interned: equal ids iff equal strings
        const std::string& sa = strdict::Lookup(a);
        const std::string& sb = strdict::Lookup(b);
        return sa < sb ? -1 : (sa > sb ? 1 : 0);
      }
      default:
        break;
    }
  } else if (enc_ == Enc::kInt64 && other.enc_ == Enc::kDouble) {
    return CompareInt64Double(i64_[i], other.f64_[j]);
  } else if (enc_ == Enc::kDouble && other.enc_ == Enc::kInt64) {
    return -CompareInt64Double(other.i64_[j], f64_[i]);
  }
  return Get(i).Compare(other.Get(j));
}

bool ColumnVec::CellEquals(size_t i, const ColumnVec& other, size_t j) const {
  bool an = IsNull(i), bn = other.IsNull(j);
  if (an || bn) return an && bn;  // Value::Equals: NULL == NULL
  if (enc_ == other.enc_) {
    switch (enc_) {
      case Enc::kInt64:
        return i64_[i] == other.i64_[j];
      case Enc::kDouble:
        return CompareDoublesTotal(f64_[i], other.f64_[j]) == 0;
      case Enc::kBool:
        return b8_[i] == other.b8_[j];
      case Enc::kDict:
        return ids_[i] == other.ids_[j];
      default:
        break;
    }
  }
  return Get(i).Equals(other.Get(j));
}

size_t ColumnVec::HashCell(size_t i) const {
  if (IsNull(i)) return Value::Null().Hash();
  switch (enc_) {
    case Enc::kInt64:
      return HashNumeric(static_cast<double>(i64_[i]));
    case Enc::kDouble:
      return HashNumeric(f64_[i]);
    case Enc::kBool:
      return HashNumeric(b8_[i] != 0 ? 1.0 : 0.0);
    case Enc::kDict:
      return std::hash<std::string>()(strdict::Lookup(ids_[i]));
    case Enc::kVariant:
      return var_[i].Hash();
    case Enc::kEmpty:
      break;
  }
  return Value::Null().Hash();
}

}  // namespace dvms
