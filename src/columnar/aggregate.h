// Vectorized hash aggregation over RecordBatches.
//
// Lives in the columnar library (not the engine) because aggregation runs
// in two places: the Dremel-lite engine (which Spark-lite queries run on)
// and — per the Sec 3.4 future-work item implemented here — *inside the
// Storage Read API*, which can compute partial aggregates server-side and
// return a much smaller payload (aggregate pushdown).

#ifndef BIGLAKE_COLUMNAR_AGGREGATE_H_
#define BIGLAKE_COLUMNAR_AGGREGATE_H_

#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/ipc.h"

namespace biglake {

enum class AggOp { kSum, kCount, kMin, kMax, kAvg };

struct AggSpec {
  AggOp op = AggOp::kCount;
  std::string input;   // ignored for COUNT(*) (empty input)
  std::string output;  // result column name
};

/// Hash group-by. Output schema: group columns, then one column per spec
/// (COUNT -> INT64, SUM/AVG -> DOUBLE, MIN/MAX -> input type).
///
/// `selection`, when non-null, is a span of `selection_size` strictly
/// ascending row ids: only those rows of `input` are aggregated, in that
/// order — equivalent to (but cheaper than) gathering them into a batch
/// first. The span form (rather than a vector) lets callers aggregate
/// sub-ranges of a selection without copying it.
Result<RecordBatch> AggregateBatch(const RecordBatch& input,
                                   const std::vector<std::string>& group_by,
                                   const std::vector<AggSpec>& aggregates,
                                   const uint32_t* selection = nullptr,
                                   size_t selection_size = 0);

/// Merges per-stream partial aggregates produced by Read API aggregate
/// pushdown into final results: COUNT partials are summed (staying INT64),
/// SUM partials are summed, MIN/MAX partials are re-min/maxed. `specs` must
/// be the same list the session pushed down.
Result<RecordBatch> MergePartialAggregates(
    const RecordBatch& partials, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs);

/// Serializes the values of `cols` at `row` into a joinable/groupable key.
std::string AggRowKey(const RecordBatch& batch, const std::vector<int>& cols,
                      size_t row);

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_AGGREGATE_H_
