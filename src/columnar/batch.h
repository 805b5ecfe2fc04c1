// RecordBatch: a horizontal slice of a table — a schema plus one column per
// field, all of equal length. The unit of data flow through scans, kernels,
// the Read API wire format, and engine operators.

#ifndef BIGLAKE_COLUMNAR_BATCH_H_
#define BIGLAKE_COLUMNAR_BATCH_H_

#include <string>
#include <vector>

#include "columnar/column.h"
#include "columnar/types.h"
#include "common/status.h"

namespace biglake {

class RecordBatch {
 public:
  RecordBatch() : schema_(MakeSchema({})) {}
  RecordBatch(SchemaPtr schema, std::vector<Column> columns);

  static Result<RecordBatch> Make(SchemaPtr schema,
                                  std::vector<Column> columns);

  /// An empty batch (zero rows) with the given schema.
  static RecordBatch Empty(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// New batch with only the named columns (projection).
  Result<RecordBatch> Project(const std::vector<std::string>& names) const;

  /// New batch with only the rows whose ids appear in `row_ids`.
  RecordBatch Gather(const std::vector<uint32_t>& row_ids) const;

  /// New batch keeping rows where mask[i] != 0. `mask` length must equal
  /// num_rows().
  RecordBatch Filter(const std::vector<uint8_t>& mask) const;

  /// Rows [offset, offset+count). A window covering the whole batch (and
  /// any plain/dictionary sub-window) is a zero-copy shared view.
  RecordBatch Slice(size_t offset, size_t count) const;

  /// Vertically concatenates batches sharing a schema, column by column
  /// (Column::Concat: a dictionary every piece shares is kept). A single
  /// piece is returned as a shared view without copying. The engine's
  /// contiguity points concatenate chunk lists instead, per column on the
  /// pool (ChunkedBatch::Contiguous).
  static Result<RecordBatch> Concat(const std::vector<RecordBatch>& pieces);

  /// Boxed cell access (slow path, for tests and result printing).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  size_t MemoryBytes() const;

  /// Debug table rendering: header line + one line per row.
  std::string ToString(size_t max_rows = 20) const;

 private:
  SchemaPtr schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Row-at-a-time batch assembly (used by workload generators and the Write
/// API protocol decoding).
class BatchBuilder {
 public:
  explicit BatchBuilder(SchemaPtr schema);

  /// Appends one row; `row` must have one value per schema field.
  Status AppendRow(const std::vector<Value>& row);
  size_t num_rows() const { return num_rows_; }
  RecordBatch Finish();

 private:
  SchemaPtr schema_;
  std::vector<ColumnBuilder> builders_;
  size_t num_rows_ = 0;
};

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_BATCH_H_
