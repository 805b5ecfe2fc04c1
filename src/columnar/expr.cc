#include "columnar/expr.h"

#include "common/strings.h"

namespace biglake {

namespace {

DataType LiteralType(const Value& v) {
  if (v.is_bool()) return DataType::kBool;
  if (v.is_int64()) return DataType::kInt64;
  if (v.is_double()) return DataType::kDouble;
  return DataType::kString;
}

}  // namespace

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp MirrorCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
    case CmpOp::kNe:
      break;
  }
  return op;
}

ExprPtr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Lit(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCompare;
  e->cmp_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLogical;
  e->logical_op_ = LogicalOp::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLogical;
  e->logical_op_ = LogicalOp::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLogical;
  e->logical_op_ = LogicalOp::kNot;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kIsNull;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::InList(ExprPtr c, std::vector<Value> values) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kInList;
  e->children_ = {std::move(c)};
  e->in_list_ = std::move(values);
  return e;
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == Kind::kColumn) out->insert(column_name_);
  for (const auto& c : children_) c->CollectColumns(out);
}

Result<DataType> Expr::ResultType(const Schema& schema) const {
  switch (kind_) {
    case Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(Field f, schema.FindField(column_name_));
      return f.type;
    }
    case Kind::kLiteral:
      return LiteralType(literal_);
    case Kind::kCompare:
    case Kind::kLogical:
    case Kind::kIsNull:
    case Kind::kInList:
      return DataType::kBool;
    case Kind::kArith: {
      BL_ASSIGN_OR_RETURN(DataType lt, children_[0]->ResultType(schema));
      BL_ASSIGN_OR_RETURN(DataType rt, children_[1]->ResultType(schema));
      if (lt == DataType::kDouble || rt == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
  }
  return Status::Internal("unreachable expr kind");
}

PruneResult Expr::EvaluatePrune(
    const std::function<const ColumnStats*(const std::string&)>& lookup)
    const {
  switch (kind_) {
    case Kind::kCompare: {
      const Expr& lhs = *children_[0];
      const Expr& rhs = *children_[1];
      // Only col <op> literal (or literal <op> col) is prunable.
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      CmpOp op = cmp_op_;
      if (lhs.kind_ == Kind::kColumn && rhs.kind_ == Kind::kLiteral) {
        col = &lhs;
        lit = &rhs;
      } else if (rhs.kind_ == Kind::kColumn && lhs.kind_ == Kind::kLiteral) {
        col = &rhs;
        lit = &lhs;
        // Mirror the operator: lit < col  <=>  col > lit.
        op = MirrorCmpOp(cmp_op_);
      } else {
        return PruneResult::kMayMatch;
      }
      const ColumnStats* stats = lookup(col->column_name_);
      if (stats == nullptr || stats->min.is_null() || stats->max.is_null() ||
          lit->literal_.is_null()) {
        return PruneResult::kMayMatch;
      }
      const Value& v = lit->literal_;
      switch (op) {
        case CmpOp::kEq:
          if (v < stats->min || stats->max < v) {
            return PruneResult::kCannotMatch;
          }
          return PruneResult::kMayMatch;
        case CmpOp::kLt:  // need min < v
          return stats->min < v ? PruneResult::kMayMatch
                                : PruneResult::kCannotMatch;
        case CmpOp::kLe:  // need min <= v
          return v < stats->min ? PruneResult::kCannotMatch
                                : PruneResult::kMayMatch;
        case CmpOp::kGt:  // need max > v
          return v < stats->max ? PruneResult::kMayMatch
                                : PruneResult::kCannotMatch;
        case CmpOp::kGe:  // need max >= v
          return stats->max < v ? PruneResult::kCannotMatch
                                : PruneResult::kMayMatch;
        case CmpOp::kNe:
          // Prunable only if min == max == v.
          if (stats->min == v && stats->max == v && stats->null_count == 0) {
            return PruneResult::kCannotMatch;
          }
          return PruneResult::kMayMatch;
      }
      return PruneResult::kMayMatch;
    }
    case Kind::kLogical:
      if (logical_op_ == LogicalOp::kAnd) {
        // AND prunes if either side prunes.
        if (children_[0]->EvaluatePrune(lookup) == PruneResult::kCannotMatch ||
            children_[1]->EvaluatePrune(lookup) == PruneResult::kCannotMatch) {
          return PruneResult::kCannotMatch;
        }
        return PruneResult::kMayMatch;
      }
      if (logical_op_ == LogicalOp::kOr) {
        // OR prunes only if both sides prune.
        if (children_[0]->EvaluatePrune(lookup) == PruneResult::kCannotMatch &&
            children_[1]->EvaluatePrune(lookup) == PruneResult::kCannotMatch) {
          return PruneResult::kCannotMatch;
        }
        return PruneResult::kMayMatch;
      }
      return PruneResult::kMayMatch;  // NOT: conservative
    case Kind::kInList: {
      if (children_[0]->kind() != Kind::kColumn) return PruneResult::kMayMatch;
      const ColumnStats* stats = lookup(children_[0]->column_name_);
      if (stats == nullptr || stats->min.is_null() || stats->max.is_null()) {
        return PruneResult::kMayMatch;
      }
      for (const Value& v : in_list_) {
        if (v.is_null()) return PruneResult::kMayMatch;
        if (!(v < stats->min) && !(stats->max < v)) {
          return PruneResult::kMayMatch;
        }
      }
      return PruneResult::kCannotMatch;
    }
    default:
      return PruneResult::kMayMatch;
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_name_;
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kCompare:
      return StrCat("(", children_[0]->ToString(), " ", CmpOpName(cmp_op_),
                    " ", children_[1]->ToString(), ")");
    case Kind::kLogical:
      if (logical_op_ == LogicalOp::kNot) {
        return StrCat("NOT ", children_[0]->ToString());
      }
      return StrCat("(", children_[0]->ToString(),
                    logical_op_ == LogicalOp::kAnd ? " AND " : " OR ",
                    children_[1]->ToString(), ")");
    case Kind::kArith: {
      const char* op = arith_op_ == ArithOp::kAdd   ? "+"
                       : arith_op_ == ArithOp::kSub ? "-"
                       : arith_op_ == ArithOp::kMul ? "*"
                       : arith_op_ == ArithOp::kDiv ? "/"
                                                    : "%";
      return StrCat("(", children_[0]->ToString(), " ", op, " ",
                    children_[1]->ToString(), ")");
    }
    case Kind::kIsNull:
      return StrCat(children_[0]->ToString(), " IS NULL");
    case Kind::kInList: {
      std::string out = children_[0]->ToString() + " IN (";
      for (size_t i = 0; i < in_list_.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_list_[i].ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace biglake
