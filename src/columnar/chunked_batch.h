// ChunkedBatch: rows as an ordered list of chunks, the engine's unit of data
// flow (in the style of Arrow's ChunkedArray/Table).
//
// A scan hands the engine the Read API's response batches as they are: one
// chunk per batch, each a zero-copy view of a decoded (often cached) block
// that keeps its dictionary and run-length encodings. Filters and
// projections run per chunk, a join probes chunk by chunk and the group-by
// cuts its fixed partial-aggregation chunks across chunk boundaries, so no
// operator needs the rows in one piece. Only a contiguity point — the query
// root, Sort, Map and a join's build side — calls Materialize/Contiguous,
// which gathers and concatenates every chunk once, per column on the pool,
// keeping a dictionary that all pieces share.

#ifndef BIGLAKE_COLUMNAR_CHUNKED_BATCH_H_
#define BIGLAKE_COLUMNAR_CHUNKED_BATCH_H_

#include <functional>
#include <optional>
#include <vector>

#include "columnar/batch.h"
#include "columnar/selection.h"
#include "common/thread_pool.h"

namespace biglake {

/// A batch plus an optional deferred filter result. When `sel` is set the
/// logical rows are `batch` rows at `sel`'s (strictly ascending) ids, in
/// order — nothing has been copied yet. Operators consume the selection
/// directly and materialize only where contiguous output is required.
struct SelectedBatch {
  RecordBatch batch;
  std::optional<SelectionVector> sel;

  size_t num_rows() const { return sel ? sel->size() : batch.num_rows(); }
  /// The selected row ids, or null when every row is selected.
  const std::vector<uint32_t>* ids() const {
    return sel ? &sel->ids() : nullptr;
  }
};

/// Logical rows as an ordered list of chunks sharing `schema`: chunk 0's
/// logical rows, then chunk 1's, and so on. Chunks never hold zero logical
/// rows when built through Append, so the chunk list of a scan depends only
/// on the data (one chunk per non-empty response batch), never on how many
/// read streams delivered it.
struct ChunkedBatch {
  SchemaPtr schema;
  std::vector<SelectedBatch> chunks;

  /// One chunk holding all of `batch` (kept even when it has no rows).
  static ChunkedBatch Of(RecordBatch batch);

  size_t num_rows() const;
  /// Appends `chunk` unless it has no logical row.
  void Append(SelectedBatch chunk);

  /// A contiguity point that may keep a deferred selection: a single chunk
  /// comes back as it is; several are gathered and concatenated into one
  /// batch (see Contiguous). Records a `materialize` span.
  Result<SelectedBatch> Materialize(ThreadPool* pool) &&;

  /// A contiguity point: the logical rows as one batch. A single chunk
  /// without selection is returned as a view. Otherwise each column is
  /// built by one Column::ConcatRows — selected rows gathered on the way,
  /// a dictionary that every piece shares kept — with one task per column
  /// on `pool` (serial when null). No chunk yields an empty batch of
  /// `schema`. Records a `materialize` span with `rows`, `pieces` and
  /// `bytes_copied`.
  Result<RecordBatch> Contiguous(ThreadPool* pool) &&;
};

/// Runs fn(i) for every i in [0, n) on `pool`, serially on the caller when
/// `pool` is null. The region is not a cancellation checkpoint (the caller's
/// token is not re-checked per task), so running an operator's per-chunk
/// work on the pool never moves the point where a query can be cancelled:
/// that stays at the operator entries and the scan, join and aggregate
/// regions. The lowest-indexed failure wins, as in ParallelFor.
Status ForEachChunk(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& fn);

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_CHUNKED_BATCH_H_
