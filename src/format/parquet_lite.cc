#include "format/parquet_lite.h"

#include <optional>
#include <string_view>

#include "columnar/flat_id_map.h"
#include "common/coding.h"
#include "common/strings.h"

namespace biglake {

namespace {
constexpr uint32_t kParquetLiteMagic = 0x504c4b31;  // "PLK1"
}  // namespace

Result<std::string> StringSource::Read(uint64_t offset,
                                       uint64_t length) const {
  if (offset > data_.size()) {
    return Status::OutOfRange("read past end of source");
  }
  uint64_t n = std::min<uint64_t>(length, data_.size() - offset);
  return data_.substr(offset, n);
}

ColumnStats ParquetFileMeta::FileColumnStats(size_t column_index) const {
  ColumnStats merged;
  bool first = true;
  for (const RowGroupMeta& rg : row_groups) {
    const ColumnStats& s = rg.columns[column_index].stats;
    merged.null_count += s.null_count;
    merged.row_count += s.row_count;
    merged.distinct_count += s.distinct_count;  // upper bound
    if (s.min.is_null() && s.max.is_null()) continue;
    if (first) {
      merged.min = s.min;
      merged.max = s.max;
      first = false;
    } else {
      if (s.min < merged.min) merged.min = s.min;
      if (merged.max < s.max) merged.max = s.max;
    }
  }
  return merged;
}

std::map<std::string, ColumnStats> ParquetFileMeta::FileColumnStatsByName()
    const {
  std::map<std::string, ColumnStats> out;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    out[schema->field(c).name] = FileColumnStats(c);
  }
  return out;
}

ParquetWriter::ParquetWriter(SchemaPtr schema, ParquetWriteOptions options)
    : schema_(std::move(schema)), options_(options) {
  // Header magic so readers can sanity-check the leading bytes too.
  PutFixed32(&file_, kParquetLiteMagic);
}

Status ParquetWriter::Append(const RecordBatch& batch) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (!batch.schema()->Equals(*schema_)) {
    return Status::InvalidArgument("batch schema does not match writer schema");
  }
  pending_.push_back(batch);
  pending_rows_ += batch.num_rows();
  while (pending_rows_ >= options_.row_group_size) {
    BL_RETURN_NOT_OK(FlushRowGroup());
  }
  return Status::OK();
}

namespace {

/// Dictionary-encodes string column `col` (plain or dictionary input): one
/// entry per distinct value in order of first appearance, a NULL row reading
/// as "". Returns nullopt once the cardinality exceeds dict_max_card or
/// dict_cardinality_ratio of the rows. Dictionary input is remapped through
/// its indices, resolving each referenced entry once instead of per row.
std::optional<Column> DictionaryEncode(const Column& col,
                                       const ParquetWriteOptions& opts) {
  const size_t n = col.length();
  const bool encoded = col.encoding() == Encoding::kDictionary;
  const StringBuffer& values = encoded ? col.dictionary() : col.string_data();
  // The entry each source position was assigned (-1 = not yet resolved).
  std::vector<int32_t> remap(encoded ? values.size() : 0, -1);
  int32_t null_entry = -1;
  FlatIdMap<std::string_view> ids;
  std::vector<uint32_t> indices;
  indices.reserve(n);
  StringBufferBuilder dict;
  for (size_t i = 0; i < n; ++i) {
    const bool is_null = col.IsNull(i);
    const size_t pos = encoded && !is_null ? col.dict_indices()[i] : i;
    int32_t* cached =
        is_null ? &null_entry : (encoded ? &remap[pos] : nullptr);
    if (cached != nullptr && *cached >= 0) {
      indices.push_back(static_cast<uint32_t>(*cached));
      continue;
    }
    const std::string_view s = is_null ? std::string_view() : values[pos];
    auto [id, inserted] = ids.Insert(s);
    if (inserted) {
      dict.Append(s);
      if (dict.size() > opts.dict_max_card ||
          static_cast<double>(dict.size()) >
              opts.dict_cardinality_ratio * static_cast<double>(n)) {
        return std::nullopt;
      }
    }
    if (cached != nullptr) *cached = static_cast<int32_t>(id);
    indices.push_back(id);
  }
  // Validity is shared with the input column, not copied.
  return Column::MakeDictionaryString(
      Buffer<uint32_t>::FromVector(std::move(indices)), dict.Finish(),
      col.validity());
}

/// Re-encodes a column with the cheapest applicable encoding.
Column ChooseEncoding(const Column& col, const ParquetWriteOptions& opts) {
  if (IsStringPhysical(col.type()) && col.length() > 0) {
    std::optional<Column> dict = DictionaryEncode(col, opts);
    return dict ? *std::move(dict) : col.Decode();
  }
  Column plain = col.Decode();
  if (IsIntegerPhysical(plain.type()) && plain.length() > 0 &&
      !plain.has_validity()) {
    // RLE when runs are long on average.
    const auto& data = plain.int64_data();
    std::vector<int64_t> values;
    std::vector<uint32_t> lengths;
    values.push_back(data[0]);
    lengths.push_back(1);
    for (size_t i = 1; i < data.size(); ++i) {
      if (data[i] == values.back()) {
        ++lengths.back();
      } else {
        values.push_back(data[i]);
        lengths.push_back(1);
      }
    }
    double avg_run =
        static_cast<double>(data.size()) / static_cast<double>(values.size());
    if (avg_run >= opts.rle_min_avg_run) {
      return Column::MakeRunLengthInt64(std::move(values), std::move(lengths),
                                        plain.type());
    }
  }
  return plain;
}

}  // namespace

Status ParquetWriter::FlushRowGroup() {
  if (pending_rows_ == 0) return Status::OK();
  // Assemble up to row_group_size rows from pending batches.
  uint64_t want = std::min<uint64_t>(options_.row_group_size, pending_rows_);
  BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(pending_));
  RecordBatch group = all.Slice(0, want);
  RecordBatch rest =
      all.Slice(want, all.num_rows() - want);
  pending_.clear();
  if (rest.num_rows() > 0) pending_.push_back(rest);
  pending_rows_ = rest.num_rows();

  RowGroupMeta rg;
  rg.num_rows = group.num_rows();
  for (size_t c = 0; c < group.num_columns(); ++c) {
    Column encoded = ChooseEncoding(group.column(c), options_);
    ColumnChunkMeta chunk;
    chunk.offset = file_.size();
    chunk.stats = ComputeColumnStats(group.column(c));
    EncodeColumn(&file_, encoded);
    chunk.size = file_.size() - chunk.offset;
    rg.columns.push_back(std::move(chunk));
  }
  row_groups_.push_back(std::move(rg));
  total_rows_ += group.num_rows();
  return Status::OK();
}

Result<std::string> ParquetWriter::Finish() {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  while (pending_rows_ > 0) {
    BL_RETURN_NOT_OK(FlushRowGroup());
  }
  finished_ = true;
  // Footer: schema + row-group directory.
  std::string footer;
  EncodeSchema(&footer, *schema_);
  PutVarint64(&footer, total_rows_);
  PutVarint64(&footer, row_groups_.size());
  for (const RowGroupMeta& rg : row_groups_) {
    PutVarint64(&footer, rg.num_rows);
    PutVarint64(&footer, rg.columns.size());
    for (const ColumnChunkMeta& c : rg.columns) {
      PutVarint64(&footer, c.offset);
      PutVarint64(&footer, c.size);
      EncodeColumnStats(&footer, c.stats);
    }
  }
  uint64_t footer_offset = file_.size();
  file_ += footer;
  // Trailer: footer offset + checksum + magic.
  PutFixed64(&file_, footer_offset);
  PutFixed64(&file_, Fnv1a64(footer));
  PutFixed32(&file_, kParquetLiteMagic);
  return std::move(file_);
}

Result<std::string> WriteParquetFile(const RecordBatch& batch,
                                     ParquetWriteOptions options) {
  ParquetWriter writer(batch.schema(), options);
  BL_RETURN_NOT_OK(writer.Append(batch));
  return writer.Finish();
}

Result<ParquetFileMeta> ReadParquetFooter(const RandomAccessSource& source) {
  constexpr uint64_t kTrailerSize = 8 + 8 + 4;
  uint64_t size = source.Size();
  if (size < kTrailerSize + 4) {
    return Status::DataLoss("file too small to be Parquet-lite");
  }
  // Read 1: the fixed-size trailer at the end of the file.
  BL_ASSIGN_OR_RETURN(std::string trailer,
                      source.Read(size - kTrailerSize, kTrailerSize));
  Decoder tdec(trailer);
  uint64_t footer_offset = 0, checksum = 0;
  uint32_t magic = 0;
  BL_RETURN_NOT_OK(tdec.GetFixed64(&footer_offset));
  BL_RETURN_NOT_OK(tdec.GetFixed64(&checksum));
  BL_RETURN_NOT_OK(tdec.GetFixed32(&magic));
  if (magic != kParquetLiteMagic) {
    return Status::DataLoss("bad Parquet-lite trailer magic");
  }
  if (footer_offset >= size - kTrailerSize) {
    return Status::DataLoss("bad footer offset");
  }
  // Read 2: the footer body.
  BL_ASSIGN_OR_RETURN(
      std::string footer,
      source.Read(footer_offset, size - kTrailerSize - footer_offset));
  if (Fnv1a64(footer) != checksum) {
    return Status::DataLoss("footer checksum mismatch");
  }
  Decoder dec(footer);
  ParquetFileMeta meta;
  BL_ASSIGN_OR_RETURN(meta.schema, DecodeSchema(&dec));
  BL_RETURN_NOT_OK(dec.GetVarint64(&meta.total_rows));
  uint64_t num_groups;
  BL_RETURN_NOT_OK(dec.GetVarint64(&num_groups));
  meta.row_groups.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    RowGroupMeta rg;
    BL_RETURN_NOT_OK(dec.GetVarint64(&rg.num_rows));
    uint64_t num_cols;
    BL_RETURN_NOT_OK(dec.GetVarint64(&num_cols));
    rg.columns.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) {
      ColumnChunkMeta chunk;
      BL_RETURN_NOT_OK(dec.GetVarint64(&chunk.offset));
      BL_RETURN_NOT_OK(dec.GetVarint64(&chunk.size));
      BL_RETURN_NOT_OK(DecodeColumnStats(&dec, &chunk.stats));
      rg.columns.push_back(std::move(chunk));
    }
    meta.row_groups.push_back(std::move(rg));
  }
  return meta;
}

Result<RecordBatch> VectorizedReader::ReadRowGroup(
    size_t row_group, const std::vector<std::string>& columns) const {
  if (row_group >= meta_.row_groups.size()) {
    return Status::OutOfRange(StrCat("row group ", row_group, " of ",
                                     meta_.row_groups.size()));
  }
  const RowGroupMeta& rg = meta_.row_groups[row_group];
  std::vector<std::string> wanted = columns;
  if (wanted.empty()) {
    for (const Field& f : meta_.schema->fields()) wanted.push_back(f.name);
  }
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const std::string& name : wanted) {
    int idx = meta_.schema->FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column named `" + name + "`");
    const ColumnChunkMeta& chunk = rg.columns[static_cast<size_t>(idx)];
    BL_ASSIGN_OR_RETURN(std::string bytes,
                        source_->Read(chunk.offset, chunk.size));
    Decoder dec(bytes);
    BL_ASSIGN_OR_RETURN(Column col, DecodeColumn(&dec));
    if (col.length() != rg.num_rows) {
      return Status::DataLoss("column chunk row count mismatch");
    }
    fields.push_back(meta_.schema->field(static_cast<size_t>(idx)));
    cols.push_back(std::move(col));
  }
  return RecordBatch::Make(MakeSchema(std::move(fields)), std::move(cols));
}

Result<bool> RowOrientedReader::Next(std::vector<Value>* row) {
  while (true) {
    if (loaded_ == nullptr) {
      if (current_group_ >= meta_.row_groups.size()) return false;
      // Load the entire row group (all columns — the row-oriented reader
      // cannot skip columns), then iterate row by row.
      VectorizedReader vec(source_, meta_);
      BL_ASSIGN_OR_RETURN(RecordBatch batch, vec.ReadRowGroup(current_group_));
      loaded_ = std::make_unique<RecordBatch>(std::move(batch));
      current_row_ = 0;
    }
    if (current_row_ < loaded_->num_rows()) {
      row->clear();
      row->reserve(loaded_->num_columns());
      for (size_t c = 0; c < loaded_->num_columns(); ++c) {
        row->push_back(loaded_->GetValue(current_row_, c));
      }
      ++current_row_;
      return true;
    }
    loaded_.reset();
    ++current_group_;
  }
}

Result<RecordBatch> RowOrientedReader::ReadAllTranscoded() {
  BatchBuilder builder(meta_.schema);
  std::vector<Value> row;
  while (true) {
    BL_ASSIGN_OR_RETURN(bool has_row, Next(&row));
    if (!has_row) break;
    BL_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

}  // namespace biglake
