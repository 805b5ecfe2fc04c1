#include "reference_eval.h"

#include <optional>
#include <string>

namespace biglake {

namespace {

bool IsNullLiteral(const Expr& e) {
  return e.kind() == Expr::Kind::kLiteral && e.literal().is_null();
}

bool IsNumeric(DataType t) {
  return IsIntegerPhysical(t) || t == DataType::kDouble;
}

/// A plain column from boxed values (NULL -> validity 0, placeholder 0).
Column FromValues(DataType type, const std::vector<Value>& values) {
  ColumnBuilder b(type);
  for (const Value& v : values) {
    Status s = b.AppendValue(v);
    (void)s;  // every caller builds values of `type`
  }
  return b.Finish();
}

bool CmpResult(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// One lane of int64 arithmetic; nullopt = NULL.
std::optional<int64_t> IntArith(ArithOp op, int64_t a, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a), ub = static_cast<uint64_t>(b);
  switch (op) {
    case ArithOp::kAdd:
      return static_cast<int64_t>(ua + ub);
    case ArithOp::kSub:
      return static_cast<int64_t>(ua - ub);
    case ArithOp::kMul:
      return static_cast<int64_t>(ua * ub);
    case ArithOp::kMod:
      if (b == 0) return std::nullopt;
      if (b == -1) return 0;
      return a % b;
    case ArithOp::kDiv:
      break;  // always double
  }
  return std::nullopt;
}

/// One lane of double arithmetic; nullopt = NULL.
std::optional<double> DoubleArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      if (b == 0) return std::nullopt;
      return a / b;
    case ArithOp::kMod:
      break;  // rejected before the loop
  }
  return std::nullopt;
}

Result<Column> Arith(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  Column operands[2];
  for (size_t k = 0; k < 2; ++k) {
    const Expr& child = *e.children()[k];
    if (IsNullLiteral(child)) {
      operands[k] = Column::MakeNull(DataType::kInt64, n);
    } else {
      BL_ASSIGN_OR_RETURN(operands[k], ReferenceEvaluate(child, batch));
    }
  }
  const Column& l = operands[0];
  const Column& r = operands[1];
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::InvalidArgument("arithmetic requires numeric operands: " +
                                   e.ToString());
  }
  const bool any_double =
      l.type() == DataType::kDouble || r.type() == DataType::kDouble;
  if (e.arith_op() == ArithOp::kMod && any_double) {
    return Status::InvalidArgument("MOD requires integer operands");
  }
  const bool as_double = any_double || e.arith_op() == ArithOp::kDiv;
  std::vector<Value> out(n);
  for (size_t i = 0; i < n; ++i) {
    Value a = l.GetValue(i), b = r.GetValue(i);
    if (a.is_null() || b.is_null()) continue;
    if (as_double) {
      auto v = DoubleArith(e.arith_op(), a.AsDouble(), b.AsDouble());
      if (v.has_value()) out[i] = Value::Double(*v);
    } else {
      auto v = IntArith(e.arith_op(), a.int64_value(), b.int64_value());
      if (v.has_value()) out[i] = Value::Int64(*v);
    }
  }
  return FromValues(as_double ? DataType::kDouble : DataType::kInt64, out);
}

Result<Column> Logical(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  std::vector<Column> in;
  for (const ExprPtr& child : e.children()) {
    BL_ASSIGN_OR_RETURN(Column c, ReferencePredicate(*child, batch));
    in.push_back(std::move(c));
  }
  std::vector<Value> out(n);
  for (size_t i = 0; i < n; ++i) {
    Value a = in[0].GetValue(i);
    if (e.logical_op() == LogicalOp::kNot) {
      if (!a.is_null()) out[i] = Value::Bool(!a.bool_value());
      continue;
    }
    Value b = in[1].GetValue(i);
    // Kleene: the dominant value (FALSE for AND, TRUE for OR) wins over
    // NULL; otherwise any NULL makes the lane NULL.
    const bool dominant = e.logical_op() == LogicalOp::kOr;
    if ((!a.is_null() && a.bool_value() == dominant) ||
        (!b.is_null() && b.bool_value() == dominant)) {
      out[i] = Value::Bool(dominant);
    } else if (!a.is_null() && !b.is_null()) {
      out[i] = Value::Bool(!dominant);
    }
  }
  return FromValues(DataType::kBool, out);
}

}  // namespace

Result<Column> ReferenceEvaluate(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind()) {
    case Expr::Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(e.column_name()));
      return *col;
    }
    case Expr::Kind::kLiteral: {
      BL_ASSIGN_OR_RETURN(DataType t, e.ResultType(*batch.schema()));
      return FromValues(t, std::vector<Value>(n, e.literal()));
    }
    case Expr::Kind::kCompare: {
      BL_ASSIGN_OR_RETURN(Column l, ReferenceEvaluate(*e.children()[0], batch));
      BL_ASSIGN_OR_RETURN(Column r, ReferenceEvaluate(*e.children()[1], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        Value a = l.GetValue(i), b = r.GetValue(i);
        if (a.is_null() || b.is_null()) continue;
        out[i] = Value::Bool(CmpResult(e.cmp_op(), a.Compare(b)));
      }
      return FromValues(DataType::kBool, out);
    }
    case Expr::Kind::kLogical:
      return Logical(e, batch);
    case Expr::Kind::kArith:
      return Arith(e, batch);
    case Expr::Kind::kIsNull: {
      BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(*e.children()[0], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = Value::Bool(c.GetValue(i).is_null());
      }
      return FromValues(DataType::kBool, out);
    }
    case Expr::Kind::kInList: {
      BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(*e.children()[0], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        Value v = c.GetValue(i);
        if (v.is_null()) continue;
        bool found = false;
        for (const Value& item : e.in_list()) found |= v == item;
        out[i] = Value::Bool(found);
      }
      return FromValues(DataType::kBool, out);
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<Column> ReferencePredicate(const Expr& e, const RecordBatch& batch) {
  if (IsNullLiteral(e)) {
    return Column::MakeNull(DataType::kBool, batch.num_rows());
  }
  BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(e, batch));
  if (c.type() != DataType::kBool) {
    return Status::InvalidArgument("predicate does not evaluate to BOOL");
  }
  return c;
}

std::vector<uint8_t> ReferenceMask(const Column& bool_col) {
  std::vector<uint8_t> mask(bool_col.length(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    Value v = bool_col.GetValue(i);
    mask[i] = !v.is_null() && v.bool_value() ? 1 : 0;
  }
  return mask;
}

}  // namespace biglake
