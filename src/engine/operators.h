// The engine's vectorized relational operators. The Dremel-lite engine runs
// them for its own queries and for Spark-lite's (src/extengine), whose
// DataFrames lower to engine plans.
//
// Join and aggregation consume the engine's chunked data flow
// (columnar/chunked_batch.h) as it arrives: the join probes chunk by chunk
// and emits chunks, the group-by cuts its fixed partial-aggregation cuts
// across chunk boundaries. Only a join's build side and a sort's input are
// contiguous.

#ifndef BIGLAKE_ENGINE_OPERATORS_H_
#define BIGLAKE_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/chunked_batch.h"
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
/// The build side is one batch (the engine materializes it once) and goes
/// into one flat hash table; a deferred selection on it is honoured without
/// a copy. The probe side stays chunked: every chunk is probed in pieces of
/// at most 16 Ki logical rows, one pool task each (`pool` nullable: serial
/// on the caller), and each piece's matches are gathered right there into
/// one output chunk. Output chunks come in probe order (pieces without a
/// match emit none), so the output is row-for-row identical at every
/// worker count and for every chunking of the probe side.
Result<ChunkedBatch> HashJoin(ThreadPool* pool, const SelectedBatch& build,
                              const ChunkedBatch& probe,
                              const std::vector<std::string>& build_keys,
                              const std::vector<std::string>& probe_keys,
                              uint64_t* matches_out = nullptr);

/// The same join over two contiguous batches with optional deferred
/// selections (strictly ascending row ids), returning one contiguous batch
/// — row- and byte-identical to gathering each output column once.
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
  uint64_t chunks = 0;  // fixed-size partial-aggregation cuts
};

/// The engine's hash group-by (the columnar HashAggregator, which the Read
/// API also uses for server-side aggregate pushdown) over a chunk list. The
/// logical rows are cut into fixed kAggregateChunkRows-row cuts (the cuts
/// depend only on the rows, not on the worker count or the chunking), each
/// cut builds typed partial states on `pool`, and the states fold in cut
/// order. Every result — SUM/AVG included — is therefore bit-identical at
/// every pool size, one worker included. This is a query's final
/// aggregation: with no GROUP BY it returns one row even over no input.
Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const ChunkedBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      AggregateStats* stats = nullptr);

/// ParallelAggregate over one contiguous batch; `selection`, when non-null,
/// restricts the input to those strictly ascending row ids.
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
