#include "columnar/ipc.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {

namespace {
// Value tags.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt64 = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

constexpr uint32_t kBatchMagic = 0x424c4231;  // "BLB1"

// Cached handles into the leaked metrics registry (same pattern as
// buffer.cc). Counter adds are commutative, so the codec totals are
// worker-count deterministic.
struct IpcMetrics {
  obs::Counter* serialize;
  obs::Counter* deserialize;
  obs::Counter* local_bypass;
};

const IpcMetrics& Metrics() {
  static const IpcMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Default();
    return new IpcMetrics{
        reg.GetCounter(METRIC_IPC_SERIALIZE),
        reg.GetCounter(METRIC_IPC_DESERIALIZE),
        reg.GetCounter(METRIC_IPC_LOCAL_BYPASS),
    };
  }();
  return *m;
}
}  // namespace

void EncodeValue(std::string* dst, const Value& v) {
  if (v.is_null()) {
    dst->push_back(static_cast<char>(kTagNull));
  } else if (v.is_bool()) {
    dst->push_back(static_cast<char>(kTagBool));
    dst->push_back(v.bool_value() ? 1 : 0);
  } else if (v.is_int64()) {
    dst->push_back(static_cast<char>(kTagInt64));
    PutVarint64Signed(dst, v.int64_value());
  } else if (v.is_double()) {
    dst->push_back(static_cast<char>(kTagDouble));
    PutDouble(dst, v.double_value());
  } else {
    dst->push_back(static_cast<char>(kTagString));
    PutLengthPrefixed(dst, v.string_value());
  }
}

Status DecodeValue(Decoder* dec, Value* out) {
  uint64_t tag;
  BL_RETURN_NOT_OK(dec->GetVarint64(&tag));
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagBool: {
      uint64_t b;
      BL_RETURN_NOT_OK(dec->GetVarint64(&b));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case kTagInt64: {
      int64_t i;
      BL_RETURN_NOT_OK(dec->GetVarint64Signed(&i));
      *out = Value::Int64(i);
      return Status::OK();
    }
    case kTagDouble: {
      double d;
      BL_RETURN_NOT_OK(dec->GetDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case kTagString: {
      std::string s;
      BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    default:
      return Status::DataLoss("unknown value tag");
  }
}

void EncodeColumnValue(std::string* dst, const Column& col, size_t row) {
  if (col.IsNull(row)) {
    dst->push_back(static_cast<char>(kTagNull));
    return;
  }
  switch (col.encoding()) {
    case Encoding::kPlain:
      switch (col.type()) {
        case DataType::kBool:
          dst->push_back(static_cast<char>(kTagBool));
          dst->push_back(col.bool_data()[row] ? 1 : 0);
          return;
        case DataType::kInt64:
        case DataType::kTimestamp:
          dst->push_back(static_cast<char>(kTagInt64));
          PutVarint64Signed(dst, col.int64_data()[row]);
          return;
        case DataType::kDouble:
          dst->push_back(static_cast<char>(kTagDouble));
          PutDouble(dst, col.double_data()[row]);
          return;
        case DataType::kString:
        case DataType::kBytes:
          dst->push_back(static_cast<char>(kTagString));
          PutLengthPrefixed(dst, col.string_data()[row]);
          return;
      }
      break;
    case Encoding::kDictionary:
      dst->push_back(static_cast<char>(kTagString));
      PutLengthPrefixed(dst, col.dictionary()[col.dict_indices()[row]]);
      return;
    case Encoding::kRunLength:
      break;  // run lookup is not O(1); box through GetValue below
  }
  EncodeValue(dst, col.GetValue(row));
}

void EncodeSchema(std::string* dst, const Schema& schema) {
  PutVarint64(dst, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutLengthPrefixed(dst, f.name);
    dst->push_back(static_cast<char>(f.type));
    dst->push_back(f.nullable ? 1 : 0);
  }
}

Result<SchemaPtr> DecodeSchema(Decoder* dec) {
  uint64_t n;
  BL_RETURN_NOT_OK(dec->GetVarint64(&n));
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&f.name));
    uint64_t type, nullable;
    BL_RETURN_NOT_OK(dec->GetVarint64(&type));
    BL_RETURN_NOT_OK(dec->GetVarint64(&nullable));
    if (type > static_cast<uint64_t>(DataType::kBytes)) {
      return Status::DataLoss("unknown field type tag");
    }
    f.type = static_cast<DataType>(type);
    f.nullable = nullable != 0;
    fields.push_back(std::move(f));
  }
  return MakeSchema(std::move(fields));
}

void EncodeColumnStats(std::string* dst, const ColumnStats& stats) {
  EncodeValue(dst, stats.min);
  EncodeValue(dst, stats.max);
  PutVarint64(dst, stats.null_count);
  PutVarint64(dst, stats.row_count);
  PutVarint64(dst, stats.distinct_count);
}

Status DecodeColumnStats(Decoder* dec, ColumnStats* out) {
  BL_RETURN_NOT_OK(DecodeValue(dec, &out->min));
  BL_RETURN_NOT_OK(DecodeValue(dec, &out->max));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->null_count));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->row_count));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->distinct_count));
  return Status::OK();
}

void EncodeColumn(std::string* dst, const Column& col) {
  dst->push_back(static_cast<char>(col.type()));
  dst->push_back(static_cast<char>(col.encoding()));
  PutVarint64(dst, col.length());
  // Validity.
  PutVarint64(dst, col.validity().size());
  for (uint8_t v : col.validity()) dst->push_back(static_cast<char>(v));
  switch (col.encoding()) {
    case Encoding::kPlain:
      switch (col.type()) {
        case DataType::kInt64:
        case DataType::kTimestamp: {
          // Delta-zigzag-varint: compact for sorted/clustered data. Deltas
          // wrap modulo 2^64 (unsigned arithmetic: no signed overflow).
          uint64_t prev = 0;
          for (int64_t v : col.int64_data()) {
            PutVarint64Signed(dst, static_cast<int64_t>(
                                       static_cast<uint64_t>(v) - prev));
            prev = static_cast<uint64_t>(v);
          }
          break;
        }
        case DataType::kDouble:
          for (double v : col.double_data()) PutDouble(dst, v);
          break;
        case DataType::kBool:
          for (uint8_t v : col.bool_data()) dst->push_back(static_cast<char>(v));
          break;
        case DataType::kString:
        case DataType::kBytes:
          for (const auto& s : col.string_data()) PutLengthPrefixed(dst, s);
          break;
      }
      break;
    case Encoding::kDictionary:
      PutVarint64(dst, col.dictionary().size());
      for (const auto& s : col.dictionary()) PutLengthPrefixed(dst, s);
      for (uint32_t idx : col.dict_indices()) PutVarint64(dst, idx);
      break;
    case Encoding::kRunLength:
      PutVarint64(dst, col.run_values().size());
      for (size_t r = 0; r < col.run_values().size(); ++r) {
        PutVarint64Signed(dst, col.run_values()[r]);
        PutVarint64(dst, col.run_lengths()[r]);
      }
      break;
  }
}

Result<Column> DecodeColumn(Decoder* dec) {
  uint64_t type_tag, enc_tag, length, validity_len;
  BL_RETURN_NOT_OK(dec->GetVarint64(&type_tag));
  BL_RETURN_NOT_OK(dec->GetVarint64(&enc_tag));
  BL_RETURN_NOT_OK(dec->GetVarint64(&length));
  BL_RETURN_NOT_OK(dec->GetVarint64(&validity_len));
  if (type_tag > static_cast<uint64_t>(DataType::kBytes) || enc_tag > 2) {
    return Status::DataLoss("bad column header");
  }
  DataType type = static_cast<DataType>(type_tag);
  Encoding enc = static_cast<Encoding>(enc_tag);
  std::vector<uint8_t> validity(validity_len);
  for (uint64_t i = 0; i < validity_len; ++i) {
    uint64_t v;
    BL_RETURN_NOT_OK(dec->GetVarint64(&v));
    validity[i] = static_cast<uint8_t>(v);
  }
  switch (enc) {
    case Encoding::kPlain:
      switch (type) {
        case DataType::kInt64:
        case DataType::kTimestamp: {
          std::vector<int64_t> vals(length);
          uint64_t prev = 0;
          for (uint64_t i = 0; i < length; ++i) {
            int64_t delta;
            BL_RETURN_NOT_OK(dec->GetVarint64Signed(&delta));
            prev += static_cast<uint64_t>(delta);
            vals[i] = static_cast<int64_t>(prev);
          }
          Column c = Column::MakeInt64(std::move(vals), std::move(validity));
          if (type == DataType::kTimestamp) c = c.WithType(DataType::kTimestamp);
          return c;
        }
        case DataType::kDouble: {
          std::vector<double> vals(length);
          for (uint64_t i = 0; i < length; ++i) {
            BL_RETURN_NOT_OK(dec->GetDouble(&vals[i]));
          }
          return Column::MakeDouble(std::move(vals), std::move(validity));
        }
        case DataType::kBool: {
          std::vector<uint8_t> vals(length);
          for (uint64_t i = 0; i < length; ++i) {
            uint64_t v;
            BL_RETURN_NOT_OK(dec->GetVarint64(&v));
            vals[i] = static_cast<uint8_t>(v);
          }
          return Column::MakeBool(std::move(vals), std::move(validity));
        }
        case DataType::kString:
        case DataType::kBytes: {
          // Arena-direct decode: each length-prefixed payload is viewed in
          // place in the wire buffer and appended straight into one arena —
          // no per-row std::string allocation.
          StringBufferBuilder vals;
          vals.Reserve(length, 0);
          for (uint64_t i = 0; i < length; ++i) {
            std::string_view s;
            BL_RETURN_NOT_OK(dec->GetLengthPrefixed(&s));
            vals.Append(s);
          }
          Column c = Column::MakeString(vals.Finish(), std::move(validity));
          if (type == DataType::kBytes) return c.WithType(DataType::kBytes);
          return c;
        }
      }
      return Status::DataLoss("bad plain column type");
    case Encoding::kDictionary: {
      uint64_t dict_size;
      BL_RETURN_NOT_OK(dec->GetVarint64(&dict_size));
      StringBufferBuilder dict;
      dict.Reserve(dict_size, 0);
      for (uint64_t i = 0; i < dict_size; ++i) {
        std::string_view s;
        BL_RETURN_NOT_OK(dec->GetLengthPrefixed(&s));
        dict.Append(s);
      }
      std::vector<uint32_t> indices(length);
      for (uint64_t i = 0; i < length; ++i) {
        uint64_t idx;
        BL_RETURN_NOT_OK(dec->GetVarint64(&idx));
        if (idx >= dict_size) return Status::DataLoss("dict index overflow");
        indices[i] = static_cast<uint32_t>(idx);
      }
      return Column::MakeDictionaryString(
          Buffer<uint32_t>::FromVector(std::move(indices)), dict.Finish(),
          validity.empty() ? Buffer<uint8_t>()
                           : Buffer<uint8_t>::FromVector(std::move(validity)));
    }
    case Encoding::kRunLength: {
      uint64_t runs;
      BL_RETURN_NOT_OK(dec->GetVarint64(&runs));
      std::vector<int64_t> values(runs);
      std::vector<uint32_t> lengths(runs);
      for (uint64_t r = 0; r < runs; ++r) {
        BL_RETURN_NOT_OK(dec->GetVarint64Signed(&values[r]));
        uint64_t l;
        BL_RETURN_NOT_OK(dec->GetVarint64(&l));
        lengths[r] = static_cast<uint32_t>(l);
      }
      return Column::MakeRunLengthInt64(std::move(values), std::move(lengths),
                                        type);
    }
  }
  return Status::DataLoss("bad column encoding");
}

std::string SerializeBatch(const RecordBatch& batch) {
  Metrics().serialize->Add(1);
  std::string body;
  EncodeSchema(&body, *batch.schema());
  PutVarint64(&body, batch.num_rows());
  PutVarint64(&body, batch.num_columns());
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    EncodeColumn(&body, batch.column(i));
  }
  std::string out;
  PutFixed32(&out, kBatchMagic);
  PutFixed64(&out, Fnv1a64(body));
  out += body;
  return out;
}

Result<RecordBatch> DeserializeBatch(std::string_view data) {
  Metrics().deserialize->Add(1);
  Decoder dec(data);
  uint32_t magic = 0;
  BL_RETURN_NOT_OK(dec.GetFixed32(&magic));
  if (magic != kBatchMagic) return Status::DataLoss("bad batch magic");
  uint64_t checksum = 0;
  BL_RETURN_NOT_OK(dec.GetFixed64(&checksum));
  std::string_view body = data.substr(dec.position());
  if (Fnv1a64(body) != checksum) {
    return Status::DataLoss("batch checksum mismatch");
  }
  BL_ASSIGN_OR_RETURN(SchemaPtr schema, DecodeSchema(&dec));
  uint64_t rows, cols;
  BL_RETURN_NOT_OK(dec.GetVarint64(&rows));
  BL_RETURN_NOT_OK(dec.GetVarint64(&cols));
  std::vector<Column> columns;
  columns.reserve(cols);
  for (uint64_t i = 0; i < cols; ++i) {
    BL_ASSIGN_OR_RETURN(Column c, DecodeColumn(&dec));
    if (c.length() != rows) return Status::DataLoss("ragged decoded batch");
    columns.push_back(std::move(c));
  }
  return RecordBatch::Make(std::move(schema), std::move(columns));
}

Result<RecordBatch> BatchHandle::Open() const {
  if (local_) {
    Metrics().local_bypass->Add(1);
    return *local_;  // columns are refcounted views; no payload copy
  }
  if (wire_) return DeserializeBatch(*wire_);
  return Status::InvalidArgument("empty batch handle");
}

std::string BatchHandle::ToWire() const {
  if (local_) return SerializeBatch(*local_);
  if (wire_) return *wire_;
  return std::string();
}

uint64_t BatchHandle::SizeBytes() const {
  if (local_) return local_->MemoryBytes();
  if (wire_) return wire_->size();
  return 0;
}

}  // namespace biglake
