#include "columnar/expr.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {

namespace {

/// Counts comparisons resolved against dictionary entries (rather than rows):
/// the regression guard for the O(dict + rows) encoded-data fast path.
obs::Counter* DictComparesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter(METRIC_EXPR_DICT_COMPARES);
  return c;
}

/// Applies a comparison to two boxed values known to be non-null.
bool CompareValues(CmpOp op, const Value& a, const Value& b) {
  int c = a.Compare(b);
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

template <typename T>
bool CompareRaw(CmpOp op, const T& a, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

/// Fast path: plain int64 column vs int64 literal.
Column CompareInt64Literal(CmpOp op, const Column& col, int64_t lit) {
  const auto& data = col.int64_data();
  std::vector<uint8_t> out(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    out[i] = CompareRaw(op, data[i], lit) ? 1 : 0;
  }
  std::vector<uint8_t> validity = col.validity().ToVector();
  return Column::MakeBool(std::move(out), std::move(validity));
}

/// Fast path: plain double column vs numeric literal.
Column CompareDoubleLiteral(CmpOp op, const Column& col, double lit) {
  const auto& data = col.double_data();
  std::vector<uint8_t> out(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    out[i] = CompareRaw(op, data[i], lit) ? 1 : 0;
  }
  std::vector<uint8_t> validity = col.validity().ToVector();
  return Column::MakeBool(std::move(out), std::move(validity));
}

/// Encoded fast path: dictionary strings vs string literal. Compares each
/// dictionary entry once, then maps index->bool — O(dict + rows) instead of
/// O(rows * strcmp).
Column CompareDictStringLiteral(CmpOp op, const Column& col,
                                const std::string& lit) {
  const auto& dict = col.dictionary();
  std::vector<uint8_t> dict_match(dict.size());
  for (size_t d = 0; d < dict.size(); ++d) {
    dict_match[d] = CompareRaw(op, dict[d], std::string_view(lit)) ? 1 : 0;
  }
  DictComparesCounter()->Add(dict.size());
  const auto& idx = col.dict_indices();
  std::vector<uint8_t> out(idx.size());
  for (size_t i = 0; i < idx.size(); ++i) out[i] = dict_match[idx[i]];
  std::vector<uint8_t> validity = col.validity().ToVector();
  return Column::MakeBool(std::move(out), std::move(validity));
}

/// Encoded fast path: RLE int64 vs int64 literal — one comparison per run.
Column CompareRleInt64Literal(CmpOp op, const Column& col, int64_t lit) {
  const auto& values = col.run_values();
  const auto& lengths = col.run_lengths();
  std::vector<uint8_t> out;
  out.reserve(col.length());
  for (size_t r = 0; r < values.size(); ++r) {
    uint8_t m = CompareRaw(op, values[r], lit) ? 1 : 0;
    out.insert(out.end(), lengths[r], m);
  }
  return Column::MakeBool(std::move(out));
}

/// Generic (slow) path via boxed values with 3-valued logic.
Column CompareGeneric(CmpOp op, const Column& lhs, const Column& rhs) {
  size_t n = lhs.length();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint8_t> validity(n, 1);
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    Value a = lhs.GetValue(i);
    Value b = rhs.GetValue(i);
    if (a.is_null() || b.is_null()) {
      validity[i] = 0;
      any_null = true;
      continue;
    }
    out[i] = CompareValues(op, a, b) ? 1 : 0;
  }
  if (!any_null) validity.clear();
  return Column::MakeBool(std::move(out), std::move(validity));
}

Column BroadcastLiteral(const Value& v, DataType type, size_t n) {
  ColumnBuilder b(type);
  for (size_t i = 0; i < n; ++i) {
    Status s = b.AppendValue(v);
    assert(s.ok());
    (void)s;
  }
  return b.Finish();
}

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

Result<Column> Expr::Evaluate(const RecordBatch& batch) const {
  switch (kind_) {
    case Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(column_name_));
      return *col;
    }
    case Kind::kLiteral:
      return BroadcastLiteral(literal_, LiteralType(literal_),
                              batch.num_rows());
    case Kind::kCompare: {
      // Literal-vs-column fast paths (both operand orders), including
      // encoded-data kernels.
      const Expr& lhs = *children_[0];
      const Expr& rhs = *children_[1];
      const Expr* cexpr = nullptr;
      const Expr* lexpr = nullptr;
      CmpOp op = cmp_op_;
      if (lhs.kind_ == Kind::kColumn && rhs.kind_ == Kind::kLiteral) {
        cexpr = &lhs;
        lexpr = &rhs;
      } else if (lhs.kind_ == Kind::kLiteral && rhs.kind_ == Kind::kColumn) {
        // Mirror the operator: lit < col  <=>  col > lit.
        cexpr = &rhs;
        lexpr = &lhs;
        op = MirrorCmpOp(cmp_op_);
      }
      if (cexpr != nullptr && !lexpr->literal_.is_null()) {
        BL_ASSIGN_OR_RETURN(const Column* col,
                            batch.ColumnByName(cexpr->column_name_));
        const Value& lit = lexpr->literal_;
        if (col->encoding() == Encoding::kDictionary && lit.is_string()) {
          return CompareDictStringLiteral(op, *col, lit.string_value());
        }
        if (col->encoding() == Encoding::kRunLength && lit.is_int64()) {
          return CompareRleInt64Literal(op, *col, lit.int64_value());
        }
        if (col->encoding() == Encoding::kPlain) {
          if (IsIntegerPhysical(col->type()) && lit.is_int64()) {
            return CompareInt64Literal(op, *col, lit.int64_value());
          }
          if (col->type() == DataType::kDouble &&
              (lit.is_double() || lit.is_int64())) {
            return CompareDoubleLiteral(op, *col, lit.AsDouble());
          }
        }
      }
      BL_ASSIGN_OR_RETURN(Column l, lhs.Evaluate(batch));
      BL_ASSIGN_OR_RETURN(Column r, rhs.Evaluate(batch));
      if (l.length() != r.length()) {
        return Status::InvalidArgument("comparison of unequal-length columns");
      }
      return CompareGeneric(cmp_op_, l, r);
    }
    case Kind::kLogical: {
      if (logical_op_ == LogicalOp::kNot) {
        BL_ASSIGN_OR_RETURN(Column c, children_[0]->Evaluate(batch));
        size_t n = c.length();
        std::vector<uint8_t> out(n);
        std::vector<uint8_t> validity = c.validity().ToVector();
        const auto& in = c.bool_data();
        for (size_t i = 0; i < n; ++i) out[i] = in[i] ? 0 : 1;
        return Column::MakeBool(std::move(out), std::move(validity));
      }
      BL_ASSIGN_OR_RETURN(Column l, children_[0]->Evaluate(batch));
      BL_ASSIGN_OR_RETURN(Column r, children_[1]->Evaluate(batch));
      size_t n = l.length();
      const auto& lv = l.bool_data();
      const auto& rv = r.bool_data();
      std::vector<uint8_t> out(n, 0);
      std::vector<uint8_t> validity(n, 1);
      bool any_null = false;
      for (size_t i = 0; i < n; ++i) {
        bool ln = l.IsNull(i), rn = r.IsNull(i);
        bool lb = !ln && lv[i], rb = !rn && rv[i];
        if (logical_op_ == LogicalOp::kAnd) {
          // Kleene: FALSE dominates NULL.
          if ((!ln && !lv[i]) || (!rn && !rv[i])) {
            out[i] = 0;
          } else if (ln || rn) {
            validity[i] = 0;
            any_null = true;
          } else {
            out[i] = 1;
          }
        } else {  // OR: TRUE dominates NULL.
          if (lb || rb) {
            out[i] = 1;
          } else if (ln || rn) {
            validity[i] = 0;
            any_null = true;
          } else {
            out[i] = 0;
          }
        }
      }
      if (!any_null) validity.clear();
      return Column::MakeBool(std::move(out), std::move(validity));
    }
    case Kind::kArith: {
      BL_ASSIGN_OR_RETURN(Column l, children_[0]->Evaluate(batch));
      BL_ASSIGN_OR_RETURN(Column r, children_[1]->Evaluate(batch));
      Column lp = l.Decode();
      Column rp = r.Decode();
      size_t n = lp.length();
      bool as_double = lp.type() == DataType::kDouble ||
                       rp.type() == DataType::kDouble ||
                       arith_op_ == ArithOp::kDiv;
      std::vector<uint8_t> validity(n, 1);
      bool any_null = false;
      auto get_d = [](const Column& c, size_t i) {
        return c.type() == DataType::kDouble
                   ? c.double_data()[i]
                   : static_cast<double>(c.int64_data()[i]);
      };
      if (as_double) {
        std::vector<double> out(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
          if (lp.IsNull(i) || rp.IsNull(i)) {
            validity[i] = 0;
            any_null = true;
            continue;
          }
          double a = get_d(lp, i), b = get_d(rp, i);
          switch (arith_op_) {
            case ArithOp::kAdd:
              out[i] = a + b;
              break;
            case ArithOp::kSub:
              out[i] = a - b;
              break;
            case ArithOp::kMul:
              out[i] = a * b;
              break;
            case ArithOp::kDiv:
              if (b == 0) {
                validity[i] = 0;
                any_null = true;
              } else {
                out[i] = a / b;
              }
              break;
            case ArithOp::kMod:
              return Status::InvalidArgument("MOD requires integer operands");
          }
        }
        if (!any_null) validity.clear();
        return Column::MakeDouble(std::move(out), std::move(validity));
      }
      std::vector<int64_t> out(n, 0);
      const auto& a = lp.int64_data();
      const auto& b = rp.int64_data();
      for (size_t i = 0; i < n; ++i) {
        if (lp.IsNull(i) || rp.IsNull(i)) {
          validity[i] = 0;
          any_null = true;
          continue;
        }
        switch (arith_op_) {
          case ArithOp::kAdd:
            out[i] = a[i] + b[i];
            break;
          case ArithOp::kSub:
            out[i] = a[i] - b[i];
            break;
          case ArithOp::kMul:
            out[i] = a[i] * b[i];
            break;
          case ArithOp::kMod:
            if (b[i] == 0) {
              validity[i] = 0;
              any_null = true;
            } else {
              out[i] = a[i] % b[i];
            }
            break;
          case ArithOp::kDiv:
            break;  // handled in double branch
        }
      }
      if (!any_null) validity.clear();
      return Column::MakeInt64(std::move(out), std::move(validity));
    }
    case Kind::kIsNull: {
      BL_ASSIGN_OR_RETURN(Column c, children_[0]->Evaluate(batch));
      size_t n = c.length();
      std::vector<uint8_t> out(n);
      for (size_t i = 0; i < n; ++i) out[i] = c.IsNull(i) ? 1 : 0;
      return Column::MakeBool(std::move(out));
    }
    case Kind::kInList: {
      BL_ASSIGN_OR_RETURN(Column c, children_[0]->Evaluate(batch));
      size_t n = c.length();
      std::vector<uint8_t> out(n, 0);
      std::vector<uint8_t> validity(n, 1);
      bool any_null = false;
      for (size_t i = 0; i < n; ++i) {
        Value v = c.GetValue(i);
        if (v.is_null()) {
          validity[i] = 0;
          any_null = true;
          continue;
        }
        for (const Value& item : in_list_) {
          if (v == item) {
            out[i] = 1;
            break;
          }
        }
      }
      if (!any_null) validity.clear();
      return Column::MakeBool(std::move(out), std::move(validity));
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

std::vector<uint8_t> BoolColumnToMask(const Column& col) {
  size_t n = col.length();
  std::vector<uint8_t> mask(n, 0);
  const auto& data = col.bool_data();
  for (size_t i = 0; i < n; ++i) {
    mask[i] = (!col.IsNull(i) && data[i]) ? 1 : 0;
  }
  return mask;
}

}  // namespace biglake
