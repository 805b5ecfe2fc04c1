// Scalar expression trees.
//
// One expression tree serves four masters, exactly as GoogleSQL expressions
// do inside Superluminal (Sec 2.2.1):
//   * query predicates and projections in the Dremel-lite engine,
//   * filter pushdown inside the Storage Read API,
//   * row-access-policy filters and data-masking transforms (Sec 3.2),
//   * min/max statistics pruning against Big Metadata (Sec 3.3), via
//     EvaluatePrune, which decides from per-file column stats whether a file
//     can possibly contain matching rows.
//
// This header only builds and inspects trees. Evaluation over a batch has
// one implementation, the typed kernels in columnar/kernels.h
// (kernels::EvaluatePredicate for filters, kernels::EvaluateColumn for
// projections), which also work directly on dictionary- and run-length-
// encoded columns (Sec 3.4).

#ifndef BIGLAKE_COLUMNAR_EXPR_H_
#define BIGLAKE_COLUMNAR_EXPR_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/types.h"
#include "common/status.h"

namespace biglake {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp { kAnd, kOr, kNot };

const char* CmpOpName(CmpOp op);

/// The operator that makes `lit <op> col` equivalent to `col <mirror> lit`:
/// kLt <-> kGt, kLe <-> kGe; kEq/kNe are their own mirrors. Used to normalize
/// literal-vs-column comparisons so fast paths and kernels only handle the
/// column-on-the-left shape.
CmpOp MirrorCmpOp(CmpOp op);

/// Per-column physical statistics, as cached in Big Metadata.
struct ColumnStats {
  Value min;  // NULL if unknown
  Value max;  // NULL if unknown
  uint64_t null_count = 0;
  uint64_t row_count = 0;
  /// Number of distinct values if known (0 = unknown); feeds join planning.
  uint64_t distinct_count = 0;
};

/// Tri-state outcome of pruning a file/partition against a predicate.
enum class PruneResult {
  kCannotMatch,  // statistics prove no row can satisfy the predicate
  kMayMatch,     // must be scanned
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Build via the factory functions below.
class Expr {
 public:
  enum class Kind {
    kColumn,   // reference to a named column
    kLiteral,  // constant Value
    kCompare,  // child[0] <op> child[1]
    kLogical,  // AND / OR / NOT over bool children
    kArith,    // numeric arithmetic
    kIsNull,   // child[0] IS NULL
    kInList,   // child[0] IN (literals)
  };

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return column_name_; }
  const Value& literal() const { return literal_; }
  CmpOp cmp_op() const { return cmp_op_; }
  ArithOp arith_op() const { return arith_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::vector<Value>& in_list() const { return in_list_; }

  /// The result type given an input schema.
  Result<DataType> ResultType(const Schema& schema) const;

  /// Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  /// Statistics-based pruning: can any row of a file with these stats match?
  /// `lookup` returns per-column stats or nullptr when unknown. Conservative:
  /// anything not provably false returns kMayMatch.
  PruneResult EvaluatePrune(
      const std::function<const ColumnStats*(const std::string&)>& lookup)
      const;

  std::string ToString() const;

  // -- Factories -------------------------------------------------------------
  static ExprPtr Col(std::string name);
  static ExprPtr Lit(Value v);
  static ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kEq, l, r); }
  static ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLt, l, r); }
  static ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLe, l, r); }
  static ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGt, l, r); }
  static ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGe, l, r); }
  static ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kNe, l, r); }
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr IsNull(ExprPtr e);
  static ExprPtr InList(ExprPtr e, std::vector<Value> values);

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  std::string column_name_;
  Value literal_;
  CmpOp cmp_op_ = CmpOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  std::vector<ExprPtr> children_;
  std::vector<Value> in_list_;
};

/// Computes ColumnStats (min/max/null/distinct) over a column of any
/// encoding; used when building Big Metadata entries and Parquet-lite
/// footers. distinct_count is exact for this column (stats.cc).
ColumnStats ComputeColumnStats(const Column& col);

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_EXPR_H_
