// The expression evaluator: flat loops over raw typed spans.
//
// Every predicate and projection in the system — engine filters and
// projections, Read API filter pushdown, row-access policies, Spark-lite
// and object-table filters — is evaluated here, and nowhere else:
//
//   * compare kernels over int64/double spans, scalar-vs-span for literal
//     operands (no broadcast allocation) and span-vs-span for column/arith
//     operands (no per-row Value boxing);
//   * branch-free validity: null lanes are combined with `va[i] & vb[i]`
//     byte ANDs and result lanes are zeroed with `out[i] &= valid[i]`,
//     never with per-row branches;
//   * Kleene AND/OR/NOT as byte arithmetic (FALSE dominates NULL for AND,
//     TRUE dominates NULL for OR);
//   * encoded-data kernels: dictionary string columns compare the
//     dictionary once and map indices, RLE int64 columns compare per run —
//     the Superluminal Sec 3.4 trick of working on encoded data;
//   * one typed generic path for the remaining shapes (dictionary vs plain
//     strings, bool-valued operands, mixed type classes): both operands are
//     evaluated into columns, decoded, and compared by type class.
//
// Semantics (docs/ARCHITECTURE.md "One evaluator"): values compare by
// Value::Compare type class — bool < numeric < string, int64 against double
// compares as doubles; NULL operands give NULL (three-valued logic); int64
// +, - and * wrap in two's complement; x / 0 and x % 0 are NULL and
// x % -1 is 0; arithmetic over a non-numeric operand is InvalidArgument.
// Correctness never depends on the compiler actually vectorizing anything
// (scripts/check.sh has a -fno-tree-vectorize stage proving it).

#ifndef BIGLAKE_COLUMNAR_KERNELS_H_
#define BIGLAKE_COLUMNAR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "common/status.h"

namespace biglake {
namespace kernels {

/// A boolean vector with SQL three-valued logic. `data[i]` is 0 or 1;
/// `validity` is empty (all lanes valid) or one byte per lane (1 = valid).
/// Invalid (NULL) lanes always carry data 0.
struct BoolVec {
  std::vector<uint8_t> data;
  std::vector<uint8_t> validity;

  size_t size() const { return data.size(); }
  bool IsNull(size_t i) const {
    return !validity.empty() && validity[i] == 0;
  }
};

/// Converts to a filter mask: NULL -> 0 (excluded).
std::vector<uint8_t> BoolVecToMask(const BoolVec& v);

/// In-place byte AND of two masks of equal length (filter conjunction).
void AndMaskInPlace(std::vector<uint8_t>* mask,
                    const std::vector<uint8_t>& other);

/// Evaluates a BOOL-typed expression over `batch`. A predicate of any other
/// type is InvalidArgument ("predicate does not evaluate to BOOL").
/// Increments METRIC_EXPR_ROWS_EVALUATED by batch.num_rows().
Result<BoolVec> EvaluatePredicate(const Expr& expr, const RecordBatch& batch);

/// Evaluates any expression into a column of batch.num_rows() rows (the
/// projection entry point): a column reference returns that column itself
/// (zero-copy), a literal or constant-folded arithmetic a constant column,
/// arithmetic an int64 or double column, a predicate a BOOL column.
/// Computed columns carry data 0 under NULL lanes and a validity buffer
/// only when some lane is NULL.
Result<Column> EvaluateColumn(const Expr& expr, const RecordBatch& batch);

/// Records `selected` of `total` rows surviving a filter into the
/// METRIC_EXPR_SELECTIVITY histogram (as a 0-100 percentage). No-op when
/// total == 0.
void ObserveSelectivity(uint64_t selected, uint64_t total);

/// Increments METRIC_SELVEC_MATERIALIZATIONS: a deferred selection was
/// gathered into contiguous columns at an operator boundary.
void CountSelectionMaterialization();

}  // namespace kernels
}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_KERNELS_H_
