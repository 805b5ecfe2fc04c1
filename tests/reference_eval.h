// A boxed, row-at-a-time expression evaluator and group-by kept only as
// test oracles.
//
// The system has one expression evaluator, the typed kernels in
// columnar/kernels.h. This reference evaluates the same Expr trees the
// slowest obvious way — one boxed `Value` per operand per row, compared with
// Value::Compare — so tests can check every kernel fast path, encoded-data
// path and generic path against an independent implementation. It shares
// the kernels' definitions (docs/ARCHITECTURE.md "One evaluator"):
//
//   * comparisons order by Value::Compare (bool < numeric < string, int64
//     against double as doubles); a NULL operand gives NULL;
//   * AND/OR/NOT are Kleene three-valued logic;
//   * int64 +, - and * wrap in two's complement; x / 0 and x % 0 are NULL;
//     x % -1 is 0; `/` always yields DOUBLE; MOD over a double is an error;
//   * arithmetic over a non-numeric operand is InvalidArgument; a NULL
//     literal is a numeric operand whose every lane is NULL;
//   * a predicate that is not BOOL is InvalidArgument.
//
// NaN is the one value where the two differ (Value::Compare calls NaN equal
// to every number; the kernels compare IEEE doubles), so tests keep NaN out
// of data compared against this oracle.

#ifndef BIGLAKE_TESTS_REFERENCE_EVAL_H_
#define BIGLAKE_TESTS_REFERENCE_EVAL_H_

#include <cstdint>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/batch.h"
#include "columnar/expr.h"
#include "common/status.h"

namespace biglake {

/// Evaluates `e` over `batch` into a column: a column reference returns the
/// column itself, a literal a constant column (a NULL literal is an all-NULL
/// STRING column), arithmetic an INT64/DOUBLE column, predicates a BOOL
/// column. Computed columns hold 0 under NULL lanes and carry a validity
/// buffer only when some lane is NULL.
Result<Column> ReferenceEvaluate(const Expr& e, const RecordBatch& batch);

/// Evaluates a predicate into a BOOL column (a NULL literal is an all-NULL
/// BOOL); any other type is InvalidArgument.
Result<Column> ReferencePredicate(const Expr& e, const RecordBatch& batch);

/// The filter mask of a BOOL column: NULL -> 0 (excluded).
std::vector<uint8_t> ReferenceMask(const Column& bool_col);

// ---------------------------------------------------------------------------
// Boxed aggregation: the oracle for the typed HashAggregator (aggregate.h).
// Groups live in a std::map keyed by the EncodeColumnValue bytes of each
// row's key, every cell is boxed through GetValue, MIN/MAX compare boxed
// Values with `<`, and output goes through BatchBuilder — the definition
// the typed kernel must match byte for byte, NaN and -0.0 included.
// ---------------------------------------------------------------------------

/// Serial group-by of `input` (only `selection`'s row ids, in order, when
/// non-null): one partial step, so no input gives no row.
Result<RecordBatch> ReferenceAggregate(
    const RecordBatch& input, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<uint32_t>* selection = nullptr);

/// Merges partial aggregates row by row (COUNT and SUM partials add up,
/// MIN/MAX re-min/max). `final_step` adds the one row a global aggregate
/// returns over no input.
Result<RecordBatch> ReferenceMergePartials(const RecordBatch& partials,
                                           const std::vector<std::string>& group_by,
                                           const std::vector<AggSpec>& specs,
                                           bool final_step);

/// The engine's final group-by: ReferenceAggregate per fixed
/// kAggregateChunkRows-row chunk (AVG split into SUM and COUNT), the
/// partials merged in chunk order, AVG recomposed, and the empty global
/// row added.
Result<RecordBatch> ReferenceChunkedAggregate(
    const RecordBatch& input, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<uint32_t>* selection = nullptr);

}  // namespace biglake

#endif  // BIGLAKE_TESTS_REFERENCE_EVAL_H_
