// Vectorized hash aggregation over RecordBatches.
//
// Lives in the columnar library (not the engine) because aggregation runs
// in two places: the Dremel-lite engine (which Spark-lite queries run on)
// and — per the Sec 3.4 future-work item implemented here — *inside the
// Storage Read API*, which can compute partial aggregates server-side and
// return a much smaller payload (aggregate pushdown).
//
// One typed kernel serves every caller (docs/ARCHITECTURE.md "Aggregation
// kernel"): rows get dense group ids from a flat open-addressing table over
// typed key columns (key_column.h; a single dictionary key groups on its
// codes), and accumulators are flat typed vectors — no boxed values and no
// encoded key per row.

#ifndef BIGLAKE_COLUMNAR_AGGREGATE_H_
#define BIGLAKE_COLUMNAR_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/chunked_batch.h"
#include "common/thread_pool.h"

namespace biglake {

enum class AggOp { kSum, kCount, kMin, kMax, kAvg };

struct AggSpec {
  AggOp op = AggOp::kCount;
  std::string input;   // ignored for COUNT(*) (empty input)
  std::string output;  // result column name
};

/// Rows per partial-aggregation chunk in HashAggregator::AddChunked. Fixed,
/// so the chunk boundaries — and with them every SUM/AVG summation order —
/// depend only on the data, never on the worker count.
constexpr size_t kAggregateChunkRows = 4096;

/// Output schema of a group-by over `input`: the group columns, then one
/// nullable column per spec (COUNT -> INT64, SUM/AVG -> DOUBLE, MIN/MAX ->
/// the input's type, INT64 when the spec has no input).
Result<SchemaPtr> AggregateOutputSchema(const Schema& input,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggSpec>& specs);

/// Hash group-by over any number of batches that share one schema.
///
/// Semantics (those of SQL GROUP BY, byte for byte those of the boxed
/// reference in tests/reference_eval.h):
///   * keys group by the byte equality of EncodeColumnValue: INT64 and
///     TIMESTAMP alike, doubles by bit pattern (-0.0 and 0.0 apart, equal
///     NaNs together); NULL is one more key value;
///   * COUNT counts rows (COUNT(*)) or non-NULL inputs; SUM and AVG add
///     `double(v)` in row order from 0.0 and are NULL over no non-NULL
///     input (a non-numeric input counts but adds nothing);
///   * MIN/MAX keep the first non-NULL value and replace it only by a
///     strictly lower (higher) one: `<` on int64, IEEE `<` on doubles (a
///     NaN is never replaced and never replaces), false < true, bytewise
///     on strings;
///   * output rows come in ascending order of the groups' encoded keys.
///
/// Input::kPartials merges partial aggregates instead — rows of another
/// aggregator's non-final output for the same specs: COUNT partials add up,
/// SUM partials add in row order, MIN/MAX re-min/max; AVG is not mergeable.
class HashAggregator {
 public:
  enum class Input : uint8_t { kRows, kPartials };

  /// Resolves the group and input columns against `schema`, which every
  /// batch added later must equal.
  static Result<HashAggregator> Make(const SchemaPtr& schema,
                                     std::vector<std::string> group_by,
                                     std::vector<AggSpec> specs,
                                     Input input = Input::kRows);
  HashAggregator(HashAggregator&&) noexcept;
  HashAggregator& operator=(HashAggregator&&) noexcept;
  ~HashAggregator();

  /// Folds the rows of `batch` (only the strictly ascending row ids of
  /// `selection` when given) into the groups, in row order. The batch's
  /// buffers stay referenced until the aggregator is destroyed.
  Status Add(const RecordBatch& batch,
             const std::vector<uint32_t>* selection = nullptr);

  /// Folds the logical rows of `chunks` (each a batch plus an optional
  /// selection, in order) in fixed kAggregateChunkRows-row cuts: each cut
  /// builds typed partial states on `pool` (on the caller when null), and
  /// the states fold into the groups in cut order. Cuts run over logical
  /// rows, so one may span several chunks (it updates one partial from
  /// each in turn) and the cut boundaries do not depend on how the rows
  /// are chunked. SUM is thus 0.0 + p0 + p1 + ... over the cuts' partial
  /// sums, identical at every pool size and for every chunking.
  Status AddChunked(ThreadPool* pool, const std::vector<SelectedBatch>& chunks);

  /// Distinct groups seen so far.
  size_t num_groups() const;
  /// Cuts AddChunked has made so far.
  size_t num_chunks() const { return chunks_; }

  /// The result batch, one row per group. `final_step` is for a query's
  /// last aggregation: with no GROUP BY it returns exactly one row even
  /// over no input (COUNT 0, every other aggregate NULL), as SQL does; a
  /// partial step returns no row for no input.
  Result<RecordBatch> Finish(bool final_step);

 private:
  struct Source;
  struct GroupTable;
  struct RowRef;
  struct StrKey;

  HashAggregator();
  Result<uint32_t> AddSource(const RecordBatch& batch);
  /// True if the rows at `a` and `b` hold the same key (NULLs equal).
  bool SameKey(RowRef a, RowRef b) const;
  /// The group in `t` of the key at `key`, whose hash is `h`; a new group
  /// when there is none. With a single string key, `str` may pass the
  /// key's value, saving its lookup.
  uint32_t FindOrInsert(GroupTable* t, uint64_t h, RowRef key,
                        const StrKey* str = nullptr) const;
  /// True if the non-NULL MIN/MAX input at `cand` replaces the current
  /// extreme `best` of spec `a`: always when there is none, else only when
  /// strictly lower (higher).
  bool Replaces(size_t a, RowRef cand, RowRef best) const;
  /// Aggregates rows `rows[0, n)` of source `src` into `t`, in order.
  void Update(GroupTable* t, uint32_t src, const uint32_t* rows,
              size_t n) const;
  /// Folds `part` (later rows) into `into` group by group.
  void Fold(GroupTable* into, GroupTable&& part) const;

  Input input_ = Input::kRows;
  std::vector<AggSpec> specs_;
  SchemaPtr schema_;      // input schema every source must equal
  SchemaPtr out_schema_;
  std::vector<int> group_cols_;
  std::vector<int> input_cols_;  // per spec; -1 = no input (COUNT(*))
  bool str_key_ = false;         // one string key: groups keep its value
  std::vector<std::unique_ptr<Source>> sources_;
  std::unique_ptr<GroupTable> groups_;
  size_t chunks_ = 0;
};

/// Merges per-stream partial aggregates (Read API aggregate pushdown) into
/// final results: a kPartials HashAggregator over `partials` in order, all
/// of which but the empty ones share one schema. `specs` must be the list
/// the session pushed down. An empty list is InvalidArgument.
Result<RecordBatch> MergePartialAggregates(
    const std::vector<RecordBatch>& partials,
    const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs);

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_AGGREGATE_H_
