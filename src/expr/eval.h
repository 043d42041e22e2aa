#ifndef DVMS_EXPR_EVAL_H_
#define DVMS_EXPR_EVAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"
#include "expr/udf_registry.h"
#include "storage/table.h"

namespace dvms {

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.Equals(b); }
};

/// A hashed set of values, used to evaluate `IN <relation>` predicates
/// against a materialized single-column relation.
using ValueSet = std::unordered_set<Value, ValueHash, ValueEq>;

/// Everything an expression needs besides the input row. `in_sets` maps
/// IdentKey(relation-name) -> materialized first-column set for IN
/// predicates; callers populate it before evaluation (see
/// Executor::CollectInSets).
struct EvalContext {
  const UdfRegistry* udfs = nullptr;
  const std::unordered_map<std::string, std::shared_ptr<const ValueSet>>*
      in_sets = nullptr;
};

/// Cell accessors an ExprEvaluator reads column references through. Each
/// exposes the width of the logical input row and its cells as Values, so
/// the row and columnar operators share one evaluator.
///
/// A materialized row.
class RowCells {
 public:
  explicit RowCells(const Row& row) : row_(row) {}
  size_t size() const { return row_.size(); }
  Value Get(size_t i) const { return row_[i]; }

 private:
  const Row& row_;
};

/// Row `r` of a non-ragged columnar table, read from its columns.
class TableCells {
 public:
  TableCells(const Table& table, size_t r) : table_(table), r_(r) {}
  size_t size() const { return table_.num_columns(); }
  Value Get(size_t i) const { return table_.col(i).Get(r_); }

 private:
  const Table& table_;
  size_t r_;
};

/// The concatenation of a left row and a right row (join predicates), both
/// read from non-ragged columnar tables.
class JoinCells {
 public:
  JoinCells(const Table& left, size_t li, const Table& right, size_t ri)
      : left_(left), right_(right), li_(li), ri_(ri) {}
  size_t size() const { return left_.num_columns() + right_.num_columns(); }
  Value Get(size_t i) const {
    size_t lw = left_.num_columns();
    return i < lw ? left_.col(i).Get(li_) : right_.col(i - lw).Get(ri_);
  }

 private:
  const Table& left_;
  const Table& right_;
  size_t li_, ri_;
};

/// A bound expression prepared for repeated evaluation under one context:
/// each scalar UDF and IN set is resolved once, and every call site reuses
/// one argument buffer. A resolution failure is kept and returned when
/// the node is first evaluated, exactly where a per-row lookup would have
/// failed. Column references must have resolved_index set (see Binder);
/// aggregate calls are an error here (the Aggregate operator evaluates
/// them).
///
/// Evaluation writes the argument buffers, so each thread needs its own
/// evaluator; copies keep the resolved state.
class ExprEvaluator {
 public:
  ExprEvaluator(const Expr& expr, const EvalContext& ctx);

  /// Cells is RowCells, TableCells or JoinCells.
  template <typename Cells>
  Result<Value> Eval(const Cells& cells) {
    return EvalNode(0, cells);
  }

  /// Predicate semantics: NULL and every non-truthy value are false.
  template <typename Cells>
  Result<bool> EvalPredicate(const Cells& cells) {
    DVMS_ASSIGN_OR_RETURN(Value v, EvalNode(0, cells));
    return v.IsTruthy();
  }

 private:
  /// One expression node, stored in pre-order: a node's first child
  /// follows it, and each child's subtree spans `subtree` slots.
  struct Node {
    const Expr* expr = nullptr;
    size_t subtree = 1;
    const ScalarUdf* udf = nullptr;     // kFunctionCall
    const ValueSet* in_set = nullptr;   // kInRelation
    Status unresolved;                  // UDF or IN set lookup failure
    std::vector<Value> args;            // kFunctionCall scratch
  };

  size_t Prepare(const Expr& expr, const EvalContext& ctx);
  template <typename Cells>
  Result<Value> EvalNode(size_t n, const Cells& cells);

  std::vector<Node> nodes_;
};

/// One-shot evaluation of `expr` against `row` (an ExprEvaluator used once).
Result<Value> EvalExpr(const Expr& expr, const Row& row,
                       const EvalContext& ctx);

/// Evaluates `expr` as a predicate: NULL and errors-of-type collapse to
/// false per DeVIL's predicate semantics.
Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const EvalContext& ctx);

/// Applies a binary operator to two values (exposed for unit tests).
Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs);

}  // namespace dvms

#endif  // DVMS_EXPR_EVAL_H_
