#include "expr/eval.h"

#include <cmath>

#include "common/schema.h"

namespace dvms {

namespace {

bool BothInts(const Value& a, const Value& b) {
  return a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
}

}  // namespace

Result<Value> ApplyBinary(BinaryOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      // String + string concatenates.
      if (op == BinaryOp::kAdd && lhs.type() == ValueType::kString &&
          rhs.type() == ValueType::kString) {
        return Value::String(lhs.string_value() + rhs.string_value());
      }
      if (BothInts(lhs, rhs)) {
        int64_t a = lhs.int_value(), b = rhs.int_value();
        switch (op) {
          case BinaryOp::kAdd:
            return Value::Int(a + b);
          case BinaryOp::kSub:
            return Value::Int(a - b);
          case BinaryOp::kMul:
            return Value::Int(a * b);
          case BinaryOp::kDiv:
            if (b == 0) return Status::ExecutionError("integer division by zero");
            return Value::Int(a / b);
          default:
            if (b == 0) return Status::ExecutionError("integer modulo by zero");
            return Value::Int(a % b);
        }
      }
      DVMS_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      DVMS_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        case BinaryOp::kMul:
          return Value::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) return Status::ExecutionError("division by zero");
          return Value::Double(a / b);
        default:
          if (b == 0.0) return Status::ExecutionError("modulo by zero");
          return Value::Double(std::fmod(a, b));
      }
    }
    case BinaryOp::kEq:
      if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
      return Value::Bool(lhs.Equals(rhs));
    case BinaryOp::kNe:
      if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
      return Value::Bool(!lhs.Equals(rhs));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
      int c = lhs.Compare(rhs);
      switch (op) {
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kAnd:
      return Value::Bool(lhs.IsTruthy() && rhs.IsTruthy());
    case BinaryOp::kOr:
      return Value::Bool(lhs.IsTruthy() || rhs.IsTruthy());
  }
  return Status::Internal("unknown binary operator");
}

ExprEvaluator::ExprEvaluator(const Expr& expr, const EvalContext& ctx) {
  Prepare(expr, ctx);
}

size_t ExprEvaluator::Prepare(const Expr& expr, const EvalContext& ctx) {
  const size_t n = nodes_.size();
  nodes_.emplace_back();
  nodes_[n].expr = &expr;
  if (expr.kind == ExprKind::kFunctionCall) {
    Node& node = nodes_[n];
    if (ctx.udfs == nullptr) {
      node.unresolved = Status::BindError(
          "no UDF registry available for call to '" + expr.function_name +
          "'");
    } else {
      Result<const ScalarUdf*> udf = ctx.udfs->FindScalar(expr.function_name);
      if (!udf.ok()) {
        node.unresolved = udf.status();
      } else if (udf.value()->arity >= 0 &&
                 static_cast<size_t>(udf.value()->arity) !=
                     expr.children.size()) {
        node.unresolved = Status::InvalidArgument(
            "UDF '" + expr.function_name + "' expects " +
            std::to_string(udf.value()->arity) + " args, got " +
            std::to_string(expr.children.size()));
      } else {
        node.udf = udf.value();
        node.args.resize(expr.children.size());
      }
    }
  } else if (expr.kind == ExprKind::kInRelation) {
    if (ctx.in_sets != nullptr) {
      auto it = ctx.in_sets->find(IdentKey(expr.in_relation));
      if (it != ctx.in_sets->end()) nodes_[n].in_set = it->second.get();
    }
    if (nodes_[n].in_set == nullptr) {
      nodes_[n].unresolved = Status::Internal(
          "IN-relation set for '" + expr.in_relation +
          "' was not materialized");
    }
  }
  size_t subtree = 1;
  for (const ExprPtr& c : expr.children) subtree += Prepare(*c, ctx);
  nodes_[n].subtree = subtree;
  return subtree;
}

template <typename Cells>
Result<Value> ExprEvaluator::EvalNode(size_t n, const Cells& cells) {
  const Expr& expr = *nodes_[n].expr;
  const size_t first = n + 1;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.resolved_index < 0) {
        return Status::BindError("unresolved column reference '" +
                                 expr.ToString() + "'");
      }
      size_t idx = static_cast<size_t>(expr.resolved_index);
      if (idx >= cells.size()) {
        return Status::Internal("column index " + std::to_string(idx) +
                                " out of range for row of width " +
                                std::to_string(cells.size()));
      }
      return cells.Get(idx);
    }
    case ExprKind::kUnary: {
      DVMS_ASSIGN_OR_RETURN(Value child, EvalNode(first, cells));
      if (expr.unary_op == UnaryOp::kNot) {
        return Value::Bool(!child.IsTruthy());
      }
      if (child.is_null()) return Value::Null();
      if (child.type() == ValueType::kInt64) {
        return Value::Int(-child.int_value());
      }
      DVMS_ASSIGN_OR_RETURN(double d, child.AsDouble());
      return Value::Double(-d);
    }
    case ExprKind::kBinary: {
      const size_t second = first + nodes_[first].subtree;
      // Short-circuit AND/OR on the truthiness of the left side.
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        DVMS_ASSIGN_OR_RETURN(Value lhs, EvalNode(first, cells));
        bool left = lhs.IsTruthy();
        if (expr.binary_op == BinaryOp::kAnd && !left) return Value::Bool(false);
        if (expr.binary_op == BinaryOp::kOr && left) return Value::Bool(true);
        DVMS_ASSIGN_OR_RETURN(Value rhs, EvalNode(second, cells));
        return Value::Bool(rhs.IsTruthy());
      }
      DVMS_ASSIGN_OR_RETURN(Value lhs, EvalNode(first, cells));
      DVMS_ASSIGN_OR_RETURN(Value rhs, EvalNode(second, cells));
      return ApplyBinary(expr.binary_op, lhs, rhs);
    }
    case ExprKind::kFunctionCall: {
      if (nodes_[n].udf == nullptr) return nodes_[n].unresolved;
      size_t c = first;
      for (size_t k = 0; k < expr.children.size(); ++k) {
        DVMS_ASSIGN_OR_RETURN(Value v, EvalNode(c, cells));
        nodes_[n].args[k] = std::move(v);
        c += nodes_[c].subtree;
      }
      return nodes_[n].udf->fn(nodes_[n].args);
    }
    case ExprKind::kAggregateCall:
      return Status::BindError(
          "aggregate '" + expr.ToString() +
          "' cannot be evaluated as a scalar expression (missing GROUP BY "
          "lowering?)");
    case ExprKind::kInRelation: {
      if (nodes_[n].in_set == nullptr) return nodes_[n].unresolved;
      DVMS_ASSIGN_OR_RETURN(Value needle, EvalNode(first, cells));
      if (needle.is_null()) return Value::Bool(false);
      bool found = nodes_[n].in_set->count(needle) > 0;
      return Value::Bool(expr.negated ? !found : found);
    }
  }
  return Status::Internal("unknown expression kind");
}

template Result<Value> ExprEvaluator::EvalNode(size_t, const RowCells&);
template Result<Value> ExprEvaluator::EvalNode(size_t, const TableCells&);
template Result<Value> ExprEvaluator::EvalNode(size_t, const JoinCells&);

Result<Value> EvalExpr(const Expr& expr, const Row& row,
                       const EvalContext& ctx) {
  return ExprEvaluator(expr, ctx).Eval(RowCells(row));
}

Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const EvalContext& ctx) {
  return ExprEvaluator(expr, ctx).EvalPredicate(RowCells(row));
}

}  // namespace dvms
