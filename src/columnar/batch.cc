#include "columnar/batch.h"

#include <cassert>

#include "common/strings.h"

namespace biglake {

RecordBatch::RecordBatch(SchemaPtr schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  num_rows_ = columns_.empty() ? 0 : columns_[0].length();
}

Result<RecordBatch> RecordBatch::Make(SchemaPtr schema,
                                      std::vector<Column> columns) {
  if (schema->num_fields() != columns.size()) {
    return Status::InvalidArgument(
        StrCat("schema has ", schema->num_fields(), " fields but ",
               columns.size(), " columns supplied"));
  }
  size_t rows = columns.empty() ? 0 : columns[0].length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].length() != rows) {
      return Status::InvalidArgument("ragged columns in RecordBatch");
    }
    if (columns[i].type() != schema->field(i).type) {
      return Status::InvalidArgument(
          StrCat("column ", i, " type ", DataTypeName(columns[i].type()),
                 " != schema type ", DataTypeName(schema->field(i).type)));
    }
  }
  return RecordBatch(std::move(schema), std::move(columns));
}

RecordBatch RecordBatch::Empty(SchemaPtr schema) {
  std::vector<Column> cols;
  cols.reserve(schema->num_fields());
  for (const Field& f : schema->fields()) {
    cols.push_back(ColumnBuilder(f.type).Finish());
  }
  return RecordBatch(std::move(schema), std::move(cols));
}

Result<const Column*> RecordBatch::ColumnByName(const std::string& name) const {
  int i = schema_->FieldIndex(name);
  if (i < 0) return Status::NotFound("no column named `" + name + "`");
  return &columns_[static_cast<size_t>(i)];
}

Result<RecordBatch> RecordBatch::Project(
    const std::vector<std::string>& names) const {
  BL_ASSIGN_OR_RETURN(SchemaPtr projected, schema_->Project(names));
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    cols.push_back(columns_[static_cast<size_t>(schema_->FieldIndex(name))]);
  }
  return RecordBatch(std::move(projected), std::move(cols));
}

RecordBatch RecordBatch::Gather(const std::vector<uint32_t>& row_ids) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const Column& c : columns_) cols.push_back(c.Gather(row_ids));
  return RecordBatch(schema_, std::move(cols));
}

RecordBatch RecordBatch::Filter(const std::vector<uint8_t>& mask) const {
  assert(mask.size() == num_rows_);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) ids.push_back(static_cast<uint32_t>(i));
  }
  return Gather(ids);
}

RecordBatch RecordBatch::Slice(size_t offset, size_t count) const {
  // Whole-batch window: hand back a shared view of this batch (refcount
  // bumps on every column buffer, no per-column slicing).
  if (offset == 0 && count >= num_rows_) return *this;
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const Column& c : columns_) cols.push_back(c.Slice(offset, count));
  return RecordBatch(schema_, std::move(cols));
}

Result<RecordBatch> RecordBatch::Concat(
    const std::vector<RecordBatch>& pieces) {
  if (pieces.empty()) return Status::InvalidArgument("Concat of zero batches");
  // Single piece: a shared view, not a column-by-column deep copy.
  if (pieces.size() == 1) return pieces[0];
  const SchemaPtr& schema = pieces[0].schema();
  std::vector<Column> cols;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    std::vector<Column> parts;
    parts.reserve(pieces.size());
    for (const RecordBatch& b : pieces) {
      if (!b.schema()->Equals(*schema)) {
        return Status::InvalidArgument("Concat of mismatched batch schemas");
      }
      parts.push_back(b.column(c));
    }
    BL_ASSIGN_OR_RETURN(Column merged, Column::Concat(parts));
    cols.push_back(std::move(merged));
  }
  return RecordBatch(schema, std::move(cols));
}

size_t RecordBatch::MemoryBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.MemoryBytes();
  return bytes;
}

std::string RecordBatch::ToString(size_t max_rows) const {
  std::string out = schema_->ToString() + "\n";
  size_t rows = std::min(num_rows_, max_rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += GetValue(r, c).ToString();
    }
    out += "\n";
  }
  if (rows < num_rows_) {
    out += StrCat("... (", num_rows_ - rows, " more rows)\n");
  }
  return out;
}

BatchBuilder::BatchBuilder(SchemaPtr schema) : schema_(std::move(schema)) {
  builders_.reserve(schema_->num_fields());
  for (const Field& f : schema_->fields()) builders_.emplace_back(f.type);
}

Status BatchBuilder::AppendRow(const std::vector<Value>& row) {
  if (row.size() != builders_.size()) {
    return Status::InvalidArgument(
        StrCat("row has ", row.size(), " values, schema has ",
               builders_.size(), " fields"));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    BL_RETURN_NOT_OK(builders_[i].AppendValue(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

RecordBatch BatchBuilder::Finish() {
  std::vector<Column> cols;
  cols.reserve(builders_.size());
  for (auto& b : builders_) cols.push_back(b.Finish());
  num_rows_ = 0;
  return RecordBatch(schema_, std::move(cols));
}

}  // namespace biglake
