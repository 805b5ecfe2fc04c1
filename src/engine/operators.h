// Shared vectorized relational operators. Used by the Dremel-lite engine
// and by the Spark-lite external engine (src/extengine) — the two engines
// differ in scan paths, optimizers and cost models, not in join/aggregate
// mechanics.

#ifndef BIGLAKE_ENGINE_OPERATORS_H_
#define BIGLAKE_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/thread_pool.h"
#include "engine/plan.h"

namespace biglake {
namespace ops {

/// Inner equi-join: returns build columns followed by probe columns (probe
/// columns colliding with build names get a "_r" suffix). Output rows come
/// in probe-row order, each probe row's matches in build-row order.
///
/// Keys are hashed and compared typed, never boxed or encoded. Two keys are
/// equal exactly when their EncodeColumnValue bytes are: INT64 matches
/// TIMESTAMP, STRING matches BYTES (plain or dictionary), doubles compare by
/// bit pattern, and keys of different classes never match. A NULL key never
/// matches anything, on either side.
///
/// The build side goes into one flat hash table; the probe side runs in
/// fixed 16 Ki-row chunks on `pool` (nullable: serial on the caller) and the
/// chunks' match lists concatenate in chunk order, so the output is
/// row-for-row identical at every worker count.
///
/// `build_sel`/`probe_sel`, when non-null, are deferred filter selections
/// (strictly ascending row ids) over the respective batches: only selected
/// rows participate, in selection order, and the output is row-identical to
/// joining the materialized (gathered) inputs — without copying them first.
Result<RecordBatch> HashJoin(ThreadPool* pool, const RecordBatch& build,
                             const RecordBatch& probe,
                             const std::vector<std::string>& build_keys,
                             const std::vector<std::string>& probe_keys,
                             uint64_t* matches_out = nullptr,
                             const std::vector<uint32_t>* build_sel = nullptr,
                             const std::vector<uint32_t>* probe_sel = nullptr);

/// Hash group-by; forwards to the shared columnar kernel (which the Read
/// API also uses for server-side aggregate pushdown).
inline Result<RecordBatch> AggregateBatch(
    const RecordBatch& input, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggregates,
    const uint32_t* selection = nullptr, size_t selection_size = 0) {
  return ::biglake::AggregateBatch(input, group_by, aggregates, selection,
                                   selection_size);
}

/// Parallel hash group-by: the input is cut into fixed `grain_rows` chunks
/// (chunking depends only on the data, not the worker count), each chunk is
/// partially aggregated on `pool`, and the partials are merged in chunk
/// order. AVG is decomposed into SUM+COUNT partials and recomposed after
/// the merge. COUNT/MIN/MAX results are exactly those of AggregateBatch;
/// SUM/AVG over doubles may differ from the serial kernel in floating-point
/// rounding (the summation tree differs) but are identical run-to-run for
/// any pool size > 1.
Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const RecordBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      size_t grain_rows = 4096,
                                      const std::vector<uint32_t>* selection =
                                          nullptr);

/// Stable multi-key sort in Value::Compare order (NULL first). `selection`,
/// when non-null, restricts (and pre-orders) the input to the selected row
/// ids; the output is the materialized sorted batch.
Result<RecordBatch> SortBatch(const RecordBatch& input,
                              const std::vector<SortKey>& keys,
                              const std::vector<uint32_t>* selection = nullptr);

/// Distinct non-null values of one column (used for dynamic partition
/// pruning IN-lists). Stops early past `max_values`, returning empty.
/// `selection` restricts the scan to the selected row ids.
std::vector<Value> DistinctValues(const RecordBatch& batch,
                                  const std::string& column,
                                  uint64_t max_values,
                                  const std::vector<uint32_t>* selection =
                                      nullptr);

}  // namespace ops
}  // namespace biglake

#endif  // BIGLAKE_ENGINE_OPERATORS_H_
