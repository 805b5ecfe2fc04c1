#include "columnar/column.h"

#include <algorithm>
#include <cassert>

namespace biglake {

namespace {

// Empty vectors wrap to the null buffer (no storage block) so that e.g. the
// absent-validity case costs nothing and has_validity() stays false.
template <typename T>
Buffer<T> WrapIfNonEmpty(std::vector<T> v) {
  if (v.empty()) return Buffer<T>();
  return Buffer<T>::FromVector(std::move(v));
}

template <typename T>
Buffer<T> WrapCopied(std::vector<T> v) {
  if (v.empty()) return Buffer<T>();
  return Buffer<T>::FromVectorCopied(std::move(v));
}

}  // namespace

Column Column::MakeInt64(std::vector<int64_t> values,
                         std::vector<uint8_t> validity) {
  return MakeInt64(WrapIfNonEmpty(std::move(values)),
                   WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeInt64(Buffer<int64_t> values, Buffer<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kInt64;
  c.length_ = values.size();
  c.ints_ = std::move(values);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::MakeTimestamp(std::vector<int64_t> values,
                             std::vector<uint8_t> validity) {
  Column c = MakeInt64(std::move(values), std::move(validity));
  c.type_ = DataType::kTimestamp;
  return c;
}

Column Column::MakeDouble(std::vector<double> values,
                          std::vector<uint8_t> validity) {
  return MakeDouble(WrapIfNonEmpty(std::move(values)),
                    WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeDouble(Buffer<double> values, Buffer<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kDouble;
  c.length_ = values.size();
  c.doubles_ = std::move(values);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::MakeBool(std::vector<uint8_t> values,
                        std::vector<uint8_t> validity) {
  return MakeBool(WrapIfNonEmpty(std::move(values)),
                  WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeBool(Buffer<uint8_t> values, Buffer<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kBool;
  c.length_ = values.size();
  c.bools_ = std::move(values);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::MakeString(std::vector<std::string> values,
                          std::vector<uint8_t> validity) {
  return MakeString(StringBuffer::FromStrings(values),
                    WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeString(StringBuffer values, Buffer<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kString;
  c.length_ = values.size();
  c.strings_ = std::move(values);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::MakeString(StringBuffer values, std::vector<uint8_t> validity) {
  return MakeString(std::move(values), WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeBytes(std::vector<std::string> values,
                         std::vector<uint8_t> validity) {
  Column c = MakeString(std::move(values), std::move(validity));
  c.type_ = DataType::kBytes;
  return c;
}

Column Column::MakeBytes(StringBuffer values, Buffer<uint8_t> validity) {
  Column c = MakeString(std::move(values), std::move(validity));
  c.type_ = DataType::kBytes;
  return c;
}

Column Column::MakeNull(DataType type, size_t length) {
  Column c;
  c.type_ = type;
  c.length_ = length;
  c.validity_ = WrapIfNonEmpty(std::vector<uint8_t>(length, 0));
  if (IsIntegerPhysical(type)) {
    c.ints_ = WrapIfNonEmpty(std::vector<int64_t>(length, 0));
  } else if (type == DataType::kDouble) {
    c.doubles_ = WrapIfNonEmpty(std::vector<double>(length, 0.0));
  } else if (type == DataType::kBool) {
    c.bools_ = WrapIfNonEmpty(std::vector<uint8_t>(length, 0));
  } else {
    c.strings_ = StringBuffer::Empties(length);
  }
  return c;
}

Column Column::MakeDictionaryString(std::vector<uint32_t> indices,
                                    std::vector<std::string> dictionary,
                                    std::vector<uint8_t> validity) {
  return MakeDictionaryString(WrapIfNonEmpty(std::move(indices)),
                              StringBuffer::FromStrings(dictionary),
                              WrapIfNonEmpty(std::move(validity)));
}

Column Column::MakeDictionaryString(Buffer<uint32_t> indices,
                                    StringBuffer dictionary,
                                    Buffer<uint8_t> validity) {
  Column c;
  c.type_ = DataType::kString;
  c.encoding_ = Encoding::kDictionary;
  c.length_ = indices.size();
  c.dict_indices_ = std::move(indices);
  c.strings_ = std::move(dictionary);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::MakeRunLengthInt64(std::vector<int64_t> run_values,
                                  std::vector<uint32_t> run_lengths,
                                  DataType type) {
  assert(run_values.size() == run_lengths.size());
  Column c;
  c.type_ = type;
  c.encoding_ = Encoding::kRunLength;
  size_t total = 0;
  for (uint32_t l : run_lengths) total += l;
  c.ints_ = WrapIfNonEmpty(std::move(run_values));
  c.run_lengths_ = WrapIfNonEmpty(std::move(run_lengths));
  c.length_ = total;
  return c;
}

size_t Column::NullCount() const {
  if (validity_.empty()) return 0;
  size_t n = 0;
  for (uint8_t v : validity_) n += (v == 0);
  return n;
}

Value Column::GetValue(size_t i) const {
  assert(i < length_);
  if (IsNull(i)) return Value::Null();
  switch (encoding_) {
    case Encoding::kPlain:
      switch (type_) {
        case DataType::kInt64:
          return Value::Int64(ints_[i]);
        case DataType::kTimestamp:
          return Value::Timestamp(ints_[i]);
        case DataType::kDouble:
          return Value::Double(doubles_[i]);
        case DataType::kBool:
          return Value::Bool(bools_[i] != 0);
        case DataType::kString:
        case DataType::kBytes:
          return Value::String(std::string(strings_[i]));
      }
      return Value::Null();
    case Encoding::kDictionary:
      return Value::String(std::string(strings_[dict_indices_[i]]));
    case Encoding::kRunLength: {
      size_t pos = 0;
      for (size_t r = 0; r < run_lengths_.size(); ++r) {
        pos += run_lengths_[r];
        if (i < pos) {
          return type_ == DataType::kTimestamp ? Value::Timestamp(ints_[r])
                                               : Value::Int64(ints_[r]);
        }
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

Column Column::Decode() const {
  if (encoding_ == Encoding::kPlain) return *this;
  if (encoding_ == Encoding::kDictionary) {
    // Expand into a compacted arena: payload flows dictionary -> new arena
    // once, with no per-row std::string allocations.
    StringBufferBuilder out;
    size_t payload = 0;
    for (size_t i = 0; i < length_; ++i) {
      if (!IsNull(i)) payload += strings_[dict_indices_[i]].size();
    }
    out.Reserve(length_, payload);
    for (size_t i = 0; i < length_; ++i) {
      out.Append(IsNull(i) ? std::string_view() : strings_[dict_indices_[i]]);
    }
    // Validity is shared with the source, not copied.
    Column c = MakeString(out.Finish(/*copied=*/true), validity_);
    c.type_ = type_;
    return c;
  }
  // Run-length.
  std::vector<int64_t> out;
  out.reserve(length_);
  for (size_t r = 0; r < run_lengths_.size(); ++r) {
    out.insert(out.end(), run_lengths_[r], ints_[r]);
  }
  Column c = MakeInt64(WrapCopied(std::move(out)), Buffer<uint8_t>());
  c.type_ = type_;
  return c;
}

Column Column::Gather(const std::vector<uint32_t>& row_ids) const {
  if (encoding_ == Encoding::kDictionary) {
    // Stay dictionary-encoded: gather only the (cheap) index vector. The
    // dictionary itself is shared with the source, not duplicated.
    std::vector<uint32_t> idx;
    idx.reserve(row_ids.size());
    std::vector<uint8_t> val;
    if (!validity_.empty()) val.reserve(row_ids.size());
    for (uint32_t r : row_ids) {
      idx.push_back(dict_indices_[r]);
      if (!validity_.empty()) val.push_back(validity_[r]);
    }
    BufferPool::Current().CountSlice();  // the shared-dictionary handoff
    Column c = MakeDictionaryString(WrapCopied(std::move(idx)), strings_,
                                    WrapCopied(std::move(val)));
    c.type_ = type_;
    return c;
  }
  const Column src = encoding_ == Encoding::kPlain ? *this : Decode();
  std::vector<uint8_t> val;
  if (!src.validity_.empty()) {
    val.reserve(row_ids.size());
    for (uint32_t r : row_ids) val.push_back(src.validity_[r]);
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      std::vector<int64_t> out;
      out.reserve(row_ids.size());
      for (uint32_t r : row_ids) out.push_back(src.ints_[r]);
      Column c = MakeInt64(WrapCopied(std::move(out)), WrapCopied(std::move(val)));
      c.type_ = type_;
      return c;
    }
    case DataType::kDouble: {
      std::vector<double> out;
      out.reserve(row_ids.size());
      for (uint32_t r : row_ids) out.push_back(src.doubles_[r]);
      return MakeDouble(WrapCopied(std::move(out)), WrapCopied(std::move(val)));
    }
    case DataType::kBool: {
      std::vector<uint8_t> out;
      out.reserve(row_ids.size());
      for (uint32_t r : row_ids) out.push_back(src.bools_[r]);
      return MakeBool(WrapCopied(std::move(out)), WrapCopied(std::move(val)));
    }
    case DataType::kString:
    case DataType::kBytes: {
      // Arena compaction: copy only the payload bytes the selection
      // references into a fresh arena (O(output), not O(input)).
      StringBufferBuilder out;
      size_t payload = 0;
      for (uint32_t r : row_ids) payload += src.strings_[r].size();
      out.Reserve(row_ids.size(), payload);
      for (uint32_t r : row_ids) out.Append(src.strings_[r]);
      Column c = MakeString(out.Finish(/*copied=*/true),
                            WrapCopied(std::move(val)));
      c.type_ = type_;
      return c;
    }
  }
  return Column();
}

Column Column::Slice(size_t offset, size_t count) const {
  if (offset > length_) offset = length_;
  if (count > length_ - offset) count = length_ - offset;

  if (encoding_ == Encoding::kRunLength) {
    // Trim the run list to the window: copies only O(runs), not O(rows).
    std::vector<int64_t> vals;
    std::vector<uint32_t> lens;
    size_t pos = 0;
    const size_t end = offset + count;
    for (size_t r = 0; r < run_lengths_.size() && pos < end; ++r) {
      size_t run_end = pos + run_lengths_[r];
      size_t take_begin = std::max(pos, offset);
      size_t take_end = std::min(run_end, end);
      if (take_end > take_begin) {
        vals.push_back(ints_[r]);
        lens.push_back(static_cast<uint32_t>(take_end - take_begin));
      }
      pos = run_end;
    }
    return MakeRunLengthInt64(std::move(vals), std::move(lens), type_);
  }

  Column c;
  c.type_ = type_;
  c.encoding_ = encoding_;
  c.length_ = count;
  c.validity_ = validity_.Slice(offset, count);
  if (encoding_ == Encoding::kDictionary) {
    c.dict_indices_ = dict_indices_.Slice(offset, count);
    c.strings_ = strings_;  // dictionary shared whole
    return c;
  }
  c.ints_ = ints_.Slice(offset, count);
  c.doubles_ = doubles_.Slice(offset, count);
  c.bools_ = bools_.Slice(offset, count);
  c.strings_ = strings_.Slice(offset, count);
  return c;
}

Column Column::WithType(DataType type) const {
  Column c = *this;
  c.type_ = type;
  return c;
}

Result<Column> Column::Concat(const std::vector<Column>& pieces) {
  return ConcatRows(pieces, {});
}

Result<Column> Column::ConcatRows(
    const std::vector<Column>& pieces,
    const std::vector<const std::vector<uint32_t>*>& rows) {
  if (pieces.size() == 1 && (rows.empty() || rows[0] == nullptr)) {
    // Shared view: a refcount bump on every backing buffer, no copy.
    BufferPool::Current().CountSlice();
    return pieces[0];
  }
  BL_ASSIGN_OR_RETURN(ConcatJob job, ConcatJob::Make(pieces, rows));
  job.Measure(0, job.num_pieces());
  job.Allocate();
  job.Size();
  job.Fill(0, job.num_pieces());
  return job.Finish();
}

namespace {

/// Calls fn(j, r) for the j-th contributing row r of `piece`, in order.
template <typename Fn>
void ForRows(const Column& piece, const std::vector<uint32_t>* ids, Fn&& fn) {
  if (ids != nullptr) {
    for (size_t j = 0; j < ids->size(); ++j) fn(j, (*ids)[j]);
  } else {
    for (size_t r = 0, n = piece.length(); r < n; ++r) fn(r, r);
  }
}

/// Copies the contributing elements of a per-row buffer to `out`.
template <typename Buf, typename T>
void CopyRows(const Column& piece, const std::vector<uint32_t>* ids,
              const Buf& buf, T* out) {
  if (ids == nullptr) {
    std::copy(buf.begin(), buf.end(), out);
  } else {
    for (size_t j = 0; j < ids->size(); ++j) out[j] = buf[(*ids)[j]];
  }
}

/// A string row's value; a dictionary piece reads NULL rows as "", as
/// Decode does.
std::string_view StringAt(const Column& p, size_t r) {
  if (p.encoding() == Encoding::kPlain) return p.string_data()[r];
  return p.IsNull(r) ? std::string_view()
                     : p.dictionary()[p.dict_indices()[r]];
}

}  // namespace

Result<Column::ConcatJob> Column::ConcatJob::Make(
    std::vector<Column> pieces, std::vector<const std::vector<uint32_t>*> rows) {
  if (pieces.empty()) return Status::InvalidArgument("Concat of zero columns");
  if (!rows.empty() && rows.size() != pieces.size()) {
    return Status::InvalidArgument("Concat rows/pieces mismatch");
  }
  ConcatJob job;
  job.type_ = pieces[0].type();
  job.row_begin_.reserve(pieces.size() + 1);
  job.row_begin_.push_back(0);
  for (size_t i = 0; i < pieces.size(); ++i) {
    const Column& p = pieces[i];
    if (p.type() != job.type_) {
      return Status::InvalidArgument("Concat of mismatched column types");
    }
    const std::vector<uint32_t>* ids = rows.empty() ? nullptr : rows[i];
    job.row_begin_.push_back(job.row_begin_.back() +
                             (ids != nullptr ? ids->size() : p.length()));
    job.validity_ = job.validity_ || p.has_validity();
    job.one_dictionary_ = job.one_dictionary_ &&
                          p.encoding_ == Encoding::kDictionary &&
                          p.strings_.SameViewAs(pieces[0].strings_);
  }
  if (IsStringPhysical(job.type_) && !job.one_dictionary_) {
    job.byte_begin_.assign(pieces.size() + 1, 0);
  }
  job.pieces_ = std::move(pieces);
  job.rows_ = std::move(rows);
  return job;
}

void Column::ConcatJob::Measure(size_t begin, size_t end) {
  if (byte_begin_.empty()) return;  // not a plain string result
  for (size_t i = begin; i < end; ++i) {
    const Column& p = pieces_[i];
    const std::vector<uint32_t>* ids = RowsOf(i);
    uint64_t bytes = 0;
    if (p.encoding_ == Encoding::kPlain && ids == nullptr) {
      bytes = p.strings_.PayloadBytes();
    } else {
      ForRows(p, ids, [&](size_t, size_t r) { bytes += StringAt(p, r).size(); });
    }
    byte_begin_[i + 1] = bytes;  // prefix-summed by Allocate
  }
}

void Column::ConcatJob::Allocate() {
  const size_t rows = row_begin_.back();
  if (validity_) val_.reserve(rows);
  if (one_dictionary_) {
    codes_.reserve(rows);
  } else if (IsIntegerPhysical(type_)) {
    ints_.reserve(rows);
  } else if (type_ == DataType::kDouble) {
    doubles_.reserve(rows);
  } else if (type_ == DataType::kBool) {
    bools_.reserve(rows);
  } else {
    for (size_t i = 1; i < byte_begin_.size(); ++i) {
      byte_begin_[i] += byte_begin_[i - 1];
    }
    offsets_.reserve(rows + 1);
    bytes_.reserve(byte_begin_.back());
  }
}

void Column::ConcatJob::Size() {
  const size_t rows = row_begin_.back();
  if (validity_) val_.resize(rows);
  if (one_dictionary_) {
    codes_.resize(rows);
  } else if (IsIntegerPhysical(type_)) {
    ints_.resize(rows);
  } else if (type_ == DataType::kDouble) {
    doubles_.resize(rows);
  } else if (type_ == DataType::kBool) {
    bools_.resize(rows);
  } else {
    offsets_.resize(rows + 1);  // offsets_[0] = 0
    bytes_.resize(byte_begin_.back());
  }
}

void Column::ConcatJob::Fill(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Column& p = pieces_[i];
    const std::vector<uint32_t>* ids = RowsOf(i);
    const size_t at = row_begin_[i];
    if (validity_) {
      if (p.has_validity()) {
        CopyRows(p, ids, p.validity_, val_.data() + at);
      } else {
        std::fill(val_.begin() + at, val_.begin() + row_begin_[i + 1], 1);
      }
    }
    if (one_dictionary_) {
      // Codes into the one shared dictionary; it is not copied.
      CopyRows(p, ids, p.dict_indices_, codes_.data() + at);
    } else if (IsIntegerPhysical(type_)) {
      if (p.encoding_ == Encoding::kPlain) {
        CopyRows(p, ids, p.ints_, ints_.data() + at);
        continue;
      }
      // Run-length: walk the runs alongside the (ascending) rows.
      size_t run = 0;
      size_t run_end = p.run_lengths_.empty() ? 0 : p.run_lengths_[0];
      ForRows(p, ids, [&](size_t j, size_t r) {
        while (r >= run_end) run_end += p.run_lengths_[++run];
        ints_[at + j] = p.ints_[run];
      });
    } else if (type_ == DataType::kDouble) {
      CopyRows(p, ids, p.doubles_, doubles_.data() + at);
    } else if (type_ == DataType::kBool) {
      CopyRows(p, ids, p.bools_, bools_.data() + at);
    } else {
      // Into one compacted arena: this piece's payload starts at
      // byte_begin_[i], and its rows' end offsets follow.
      uint64_t pos = byte_begin_[i];
      ForRows(p, ids, [&](size_t j, size_t r) {
        const std::string_view v = StringAt(p, r);
        std::copy(v.begin(), v.end(), bytes_.begin() + pos);
        pos += v.size();
        offsets_[at + j + 1] = static_cast<uint32_t>(pos);
      });
    }
  }
}

Column Column::ConcatJob::Finish() {
  Buffer<uint8_t> val = WrapCopied(std::move(val_));
  Column c;
  if (one_dictionary_) {
    BufferPool::Current().CountSlice();  // the shared-dictionary handoff
    c = MakeDictionaryString(WrapCopied(std::move(codes_)),
                             pieces_[0].strings_, std::move(val));
  } else if (IsIntegerPhysical(type_)) {
    c = MakeInt64(WrapCopied(std::move(ints_)), std::move(val));
  } else if (type_ == DataType::kDouble) {
    c = MakeDouble(WrapCopied(std::move(doubles_)), std::move(val));
  } else if (type_ == DataType::kBool) {
    c = MakeBool(WrapCopied(std::move(bools_)), std::move(val));
  } else {
    c = MakeString(StringBuffer::FromPartsCopied(std::move(offsets_),
                                                 std::move(bytes_)),
                   std::move(val));
  }
  c.type_ = type_;
  return c;
}

size_t Column::MemoryBytes() const {
  // Exact O(1): fixed-width buffers by width, strings by arena arithmetic.
  return ints_.size() * sizeof(int64_t) + doubles_.size() * sizeof(double) +
         bools_.size() + dict_indices_.size() * sizeof(uint32_t) +
         run_lengths_.size() * sizeof(uint32_t) + validity_.size() +
         strings_.ByteSize();
}

void ColumnBuilder::AppendNull() {
  saw_null_ = true;
  validity_.resize(length_, 1);
  validity_.push_back(0);
  // Push a placeholder into the physical buffer.
  if (IsIntegerPhysical(type_)) {
    ints_.push_back(0);
  } else if (type_ == DataType::kDouble) {
    doubles_.push_back(0.0);
  } else if (type_ == DataType::kBool) {
    bools_.push_back(0);
  } else {
    strings_.Append(std::string_view());
  }
  ++length_;
}

void ColumnBuilder::AppendInt64(int64_t v) {
  ints_.push_back(v);
  if (saw_null_) validity_.push_back(1);
  ++length_;
}

void ColumnBuilder::AppendDouble(double v) {
  doubles_.push_back(v);
  if (saw_null_) validity_.push_back(1);
  ++length_;
}

void ColumnBuilder::AppendBool(bool v) {
  bools_.push_back(v ? 1 : 0);
  if (saw_null_) validity_.push_back(1);
  ++length_;
}

void ColumnBuilder::AppendString(std::string_view v) {
  strings_.Append(v);
  if (saw_null_) validity_.push_back(1);
  ++length_;
}

Status ColumnBuilder::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (!v.is_int64()) break;
      AppendInt64(v.int64_value());
      return Status::OK();
    case DataType::kDouble:
      if (!v.is_double() && !v.is_int64()) break;
      AppendDouble(v.AsDouble());
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.bool_value());
      return Status::OK();
    case DataType::kString:
    case DataType::kBytes:
      if (!v.is_string()) break;
      AppendString(v.string_value());
      return Status::OK();
  }
  return Status::InvalidArgument(std::string("value ") + v.ToString() +
                                 " does not match column type " +
                                 DataTypeName(type_));
}

Column ColumnBuilder::Finish() {
  Column c;
  switch (type_) {
    case DataType::kInt64:
      c = Column::MakeInt64(std::move(ints_), std::move(validity_));
      break;
    case DataType::kTimestamp:
      c = Column::MakeTimestamp(std::move(ints_), std::move(validity_));
      break;
    case DataType::kDouble:
      c = Column::MakeDouble(std::move(doubles_), std::move(validity_));
      break;
    case DataType::kBool:
      c = Column::MakeBool(std::move(bools_), std::move(validity_));
      break;
    case DataType::kString:
      c = Column::MakeString(strings_.Finish(), std::move(validity_));
      break;
    case DataType::kBytes:
      c = Column::MakeBytes(strings_.Finish(),
                            WrapIfNonEmpty(std::move(validity_)));
      break;
  }
  length_ = 0;
  saw_null_ = false;
  return c;
}

int ComparePlainRows(const Column& col, size_t a, size_t b) {
  const bool null_a = col.IsNull(a), null_b = col.IsNull(b);
  if (null_a || null_b) {
    return static_cast<int>(null_b) - static_cast<int>(null_a);
  }
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t x = col.int64_data()[a], y = col.int64_data()[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      const double x = col.double_data()[a], y = col.double_data()[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kBool:
      return static_cast<int>(col.bool_data()[a] != 0) -
             static_cast<int>(col.bool_data()[b] != 0);
    case DataType::kString:
    case DataType::kBytes:
      return col.string_data()[a].compare(col.string_data()[b]);
  }
  return 0;
}

Result<Column> ConstantColumn(DataType type, const Value& v, size_t length) {
  if (v.is_null()) return Column::MakeNull(type, length);
  // Type check (and its error) exactly as the row-by-row builder does.
  ColumnBuilder probe(type);
  BL_RETURN_NOT_OK(probe.AppendValue(v));
  switch (type) {
    case DataType::kInt64:
      return Column::MakeInt64(std::vector<int64_t>(length, v.int64_value()));
    case DataType::kTimestamp:
      return Column::MakeTimestamp(
          std::vector<int64_t>(length, v.int64_value()));
    case DataType::kDouble:
      return Column::MakeDouble(std::vector<double>(length, v.AsDouble()));
    case DataType::kBool:
      return Column::MakeBool(
          std::vector<uint8_t>(length, v.bool_value() ? 1 : 0));
    case DataType::kString:
    case DataType::kBytes: {
      const std::string& s = v.string_value();
      StringBufferBuilder out;
      out.Reserve(length, length * s.size());
      for (size_t i = 0; i < length; ++i) out.Append(s);
      return type == DataType::kBytes
                 ? Column::MakeBytes(out.Finish(), Buffer<uint8_t>())
                 : Column::MakeString(out.Finish(), Buffer<uint8_t>());
    }
  }
  return Status::InvalidArgument("unknown column type");
}

Result<Column> ReplaceWhere(const Column& col, const std::vector<uint8_t>& mask,
                            const Value& v) {
  const DataType type = col.type();
  if (!v.is_null()) {
    // Type check (and its error) exactly as the row-by-row builder does.
    ColumnBuilder probe(type);
    BL_RETURN_NOT_OK(probe.AppendValue(v));
  }
  const Column src = col.Decode();
  const size_t n = src.length();
  const bool set_null = v.is_null();
  // Keep[i]: row i retains its own non-NULL value.
  auto keep = [&](size_t i) { return mask[i] == 0 && !src.IsNull(i); };
  std::vector<uint8_t> validity(n);
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    validity[i] = mask[i] != 0 ? !set_null : !src.IsNull(i);
    any_null |= validity[i] == 0;
  }
  if (!any_null) validity.clear();
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t x = set_null ? 0 : v.int64_value();
      const int64_t* in = src.int64_data().data();
      std::vector<int64_t> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = keep(i) ? in[i] : (mask[i] != 0 ? x : 0);
      }
      return type == DataType::kTimestamp
                 ? Column::MakeTimestamp(std::move(out), std::move(validity))
                 : Column::MakeInt64(std::move(out), std::move(validity));
    }
    case DataType::kDouble: {
      const double x = set_null ? 0.0 : v.AsDouble();
      const double* in = src.double_data().data();
      std::vector<double> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = keep(i) ? in[i] : (mask[i] != 0 ? x : 0.0);
      }
      return Column::MakeDouble(std::move(out), std::move(validity));
    }
    case DataType::kBool: {
      const uint8_t x = !set_null && v.bool_value() ? 1 : 0;
      const uint8_t* in = src.bool_data().data();
      std::vector<uint8_t> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = keep(i) ? (in[i] != 0 ? 1 : 0) : (mask[i] != 0 ? x : 0);
      }
      return Column::MakeBool(std::move(out), std::move(validity));
    }
    case DataType::kString:
    case DataType::kBytes: {
      const std::string_view x =
          set_null ? std::string_view() : std::string_view(v.string_value());
      const StringBuffer& in = src.string_data();
      StringBufferBuilder out;
      for (size_t i = 0; i < n; ++i) {
        out.Append(keep(i) ? in[i]
                           : (mask[i] != 0 ? x : std::string_view()));
      }
      return type == DataType::kBytes
                 ? Column::MakeBytes(out.Finish(),
                                     WrapIfNonEmpty(std::move(validity)))
                 : Column::MakeString(out.Finish(), std::move(validity));
    }
  }
  return Status::InvalidArgument("unknown column type");
}

}  // namespace biglake
