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

/// What ParallelAggregate did, for the operator's profile span.
struct AggregateStats {
  uint64_t groups = 0;  // distinct groups found
  uint64_t chunks = 0;  // fixed-size partial-aggregation chunks
};

/// The engine's hash group-by (the columnar HashAggregator, which the Read
/// API also uses for server-side aggregate pushdown). The input is cut into
/// fixed kAggregateChunkRows-row chunks (chunking depends only on the data,
/// not the worker count), each chunk builds typed partial states on `pool`,
/// and the states fold in chunk order. Every result — SUM/AVG included — is
/// therefore bit-identical at every pool size, one worker included. This is
/// a query's final aggregation: with no GROUP BY it returns one row even
/// over no input. `selection`, when non-null, restricts the input to those
/// strictly ascending row ids without copying them.
Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const RecordBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      const std::vector<uint32_t>* selection =
                                          nullptr,
                                      AggregateStats* stats = nullptr);

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
