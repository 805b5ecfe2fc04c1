// Column: an immutable, optionally encoded vector of values of one type.
//
// Mirrors the relevant design points of Superluminal (Sec 2.2.1, Sec 3.4):
// columnar in-memory layout, validity masks, and the ability of kernels to
// operate *directly* on dictionary- and run-length-encoded data without
// decoding first (see kernels.h). Dictionary encoding is supported for
// string columns and run-length encoding for int64 columns, matching where
// those encodings pay off in analytic data.
//
// Storage is buffer-backed (buffer.h): every physical array — values,
// validity bitmap, dictionary, indices — is a refcounted immutable view, so
// copying a Column, `Slice`, projection, and sharing a dictionary across
// gathered columns are O(1) refcount bumps. Data moves only at the counted
// materialization points: `Gather` copies surviving rows, `Decode` expands
// encodings, multi-piece `Concat` merges storage.

#ifndef BIGLAKE_COLUMNAR_COLUMN_H_
#define BIGLAKE_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/buffer.h"
#include "columnar/string_buffer.h"
#include "columnar/types.h"
#include "common/status.h"

namespace biglake {

enum class Encoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,  // string columns: uint32 indices into a dictionary
  kRunLength = 2,   // int64 columns: (value, run_length) pairs
};

class Column {
 public:
  Column() = default;

  // ---- Factories ----------------------------------------------------------
  // Vector overloads wrap freshly built storage (counted as allocation);
  // Buffer overloads share existing storage without a copy.

  static Column MakeInt64(std::vector<int64_t> values,
                          std::vector<uint8_t> validity = {});
  static Column MakeInt64(Buffer<int64_t> values,
                          Buffer<uint8_t> validity = {});
  static Column MakeTimestamp(std::vector<int64_t> values,
                              std::vector<uint8_t> validity = {});
  static Column MakeDouble(std::vector<double> values,
                           std::vector<uint8_t> validity = {});
  static Column MakeDouble(Buffer<double> values, Buffer<uint8_t> validity = {});
  static Column MakeBool(std::vector<uint8_t> values,
                         std::vector<uint8_t> validity = {});
  static Column MakeBool(Buffer<uint8_t> values, Buffer<uint8_t> validity = {});
  static Column MakeString(std::vector<std::string> values,
                           std::vector<uint8_t> validity = {});
  static Column MakeString(StringBuffer values, Buffer<uint8_t> validity = {});
  static Column MakeString(StringBuffer values, std::vector<uint8_t> validity);
  static Column MakeBytes(std::vector<std::string> values,
                          std::vector<uint8_t> validity = {});
  static Column MakeBytes(StringBuffer values, Buffer<uint8_t> validity = {});
  /// All-NULL column of the given type.
  static Column MakeNull(DataType type, size_t length);

  /// Dictionary-encoded strings: `indices[i]` selects `dictionary[...]`.
  static Column MakeDictionaryString(std::vector<uint32_t> indices,
                                     std::vector<std::string> dictionary,
                                     std::vector<uint8_t> validity = {});
  static Column MakeDictionaryString(Buffer<uint32_t> indices,
                                     StringBuffer dictionary,
                                     Buffer<uint8_t> validity = {});

  /// Run-length-encoded int64: logical value i falls in the run determined
  /// by prefix sums of `run_lengths`.
  static Column MakeRunLengthInt64(std::vector<int64_t> run_values,
                                   std::vector<uint32_t> run_lengths,
                                   DataType type = DataType::kInt64);

  // ---- Introspection ------------------------------------------------------

  DataType type() const { return type_; }
  Encoding encoding() const { return encoding_; }
  size_t length() const { return length_; }
  bool has_validity() const { return !validity_.empty(); }

  /// True if row i is NULL.
  bool IsNull(size_t i) const {
    return !validity_.empty() && validity_[i] == 0;
  }
  size_t NullCount() const;

  /// Boxed scalar access (slow path; kernels use the typed spans below).
  Value GetValue(size_t i) const;

  // ---- Typed raw access (plain encoding only) -----------------------------
  // Shared immutable views; `ToVector()` on one is an explicit counted copy.

  const Buffer<int64_t>& int64_data() const { return ints_; }
  const Buffer<double>& double_data() const { return doubles_; }
  const Buffer<uint8_t>& bool_data() const { return bools_; }
  /// Varbinary view (string_buffer.h): elements are `std::string_view`s into
  /// a shared arena, valid while any view of the column is alive.
  const StringBuffer& string_data() const { return strings_; }
  const Buffer<uint8_t>& validity() const { return validity_; }

  // ---- Encoded access -----------------------------------------------------

  const Buffer<uint32_t>& dict_indices() const { return dict_indices_; }
  const StringBuffer& dictionary() const { return strings_; }
  const Buffer<int64_t>& run_values() const { return ints_; }
  const Buffer<uint32_t>& run_lengths() const { return run_lengths_; }

  // ---- Transformations ----------------------------------------------------

  /// Fully decodes to plain encoding (no-op for plain columns; the validity
  /// buffer is shared, not copied).
  Column Decode() const;

  /// Gathers rows by index (the filter-materialization primitive). Copies
  /// only the selected rows; dictionary columns stay dictionary-encoded and
  /// *share* the dictionary buffer with the source.
  Column Gather(const std::vector<uint32_t>& row_ids) const;

  /// Column of rows [offset, offset+count): an O(1) shared view for plain
  /// and dictionary columns; run-length columns copy only the trimmed runs.
  Column Slice(size_t offset, size_t count) const;

  /// Identical data re-tagged with a physically compatible type (the IPC
  /// timestamp/bytes re-brand) — shares all buffers, copies nothing.
  Column WithType(DataType type) const;

  /// Concatenates columns of identical type. A single piece is returned as
  /// a shared view. Several pieces that all view one dictionary (the same
  /// arena and offsets window, e.g. slices or gathers of one block) stay
  /// dictionary-encoded: only their codes and validity are copied and the
  /// dictionary is shared. Any other mix merges into one plain copy,
  /// decoding dictionary and run-length pieces on the way, so each value is
  /// copied once.
  static Result<Column> Concat(const std::vector<Column>& pieces);

  /// Concat with a gather fused in: piece i contributes only its rows
  /// `rows[i]` (strictly ascending ids; null = every row), so a selected
  /// piece is copied once, not gathered and then merged. `rows` is empty
  /// or has one entry per piece; one piece with rows equals Gather.
  static Result<Column> ConcatRows(
      const std::vector<Column>& pieces,
      const std::vector<const std::vector<uint32_t>*>& rows);

  /// ConcatRows laid out before it copies, for a caller that copies ranges
  /// of pieces on pool threads into one output. Steps, in order:
  ///   Make      checks and lays out the pieces (cheap, O(pieces));
  ///   Measure   sizes the string payload of a piece range (reads only; any
  ///             thread, disjoint ranges concurrently; every piece once);
  ///   Allocate  reserves the output buffers — on the caller's thread, so
  ///             the memory comes from, and goes back to, one allocator
  ///             arena whichever worker fills it;
  ///   Size      sizes the reserved buffers (any thread, once);
  ///   Fill      copies a piece range into its output range (any thread,
  ///             disjoint ranges concurrently; every piece once);
  ///   Finish    wraps the output column.
  /// ConcatRows runs them all in a row on the caller.
  class ConcatJob {
   public:
    static Result<ConcatJob> Make(
        std::vector<Column> pieces,
        std::vector<const std::vector<uint32_t>*> rows);
    size_t num_pieces() const { return pieces_.size(); }
    void Measure(size_t begin, size_t end);
    void Allocate();
    void Size();
    void Fill(size_t begin, size_t end);
    Column Finish();

   private:
    ConcatJob() = default;
    const std::vector<uint32_t>* RowsOf(size_t i) const {
      return rows_.empty() ? nullptr : rows_[i];
    }

    std::vector<Column> pieces_;
    std::vector<const std::vector<uint32_t>*> rows_;
    DataType type_ = DataType::kInt64;
    bool validity_ = false;
    bool one_dictionary_ = true;
    std::vector<size_t> row_begin_;     // per piece, plus the total
    std::vector<uint64_t> byte_begin_;  // plain strings: payload per piece,
                                        // prefix-summed by Allocate
    std::vector<uint8_t> val_;
    std::vector<int64_t> ints_;
    std::vector<double> doubles_;
    std::vector<uint8_t> bools_;
    std::vector<uint32_t> codes_;    // shared-dictionary codes
    std::vector<uint32_t> offsets_;  // plain strings
    std::vector<uint8_t> bytes_;
  };

  /// Exact heap footprint of the viewed data in O(1) — fixed-width buffers
  /// by width, string data by arena arithmetic (offsets + referenced payload
  /// span). What the block/result caches charge.
  size_t MemoryBytes() const;

 private:
  DataType type_ = DataType::kInt64;
  Encoding encoding_ = Encoding::kPlain;
  size_t length_ = 0;

  // Physical buffers; which are populated depends on type_ and encoding_.
  Buffer<int64_t> ints_;        // plain int64/timestamp; RLE run values
  Buffer<double> doubles_;      // plain double
  Buffer<uint8_t> bools_;       // plain bool (1 byte per value)
  StringBuffer strings_;        // plain strings; dictionary values (varbinary)
  Buffer<uint32_t> dict_indices_;
  Buffer<uint32_t> run_lengths_;
  Buffer<uint8_t> validity_;    // empty = all valid; else 1=valid
};

/// Incremental, type-checked column construction.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(DataType type) : type_(type) {}

  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string_view v);
  /// Appends a boxed value; must match the builder's type or be NULL.
  Status AppendValue(const Value& v);

  size_t length() const { return length_; }
  Column Finish();

 private:
  DataType type_;
  size_t length_ = 0;
  bool saw_null_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  StringBufferBuilder strings_;  // appends straight into the arena
  std::vector<uint8_t> validity_;
};

/// Three-way comparison of rows `a` and `b` of a plain-encoded column in
/// Value::Compare order (NULL first), without boxing either value.
int ComparePlainRows(const Column& col, size_t a, size_t b);

/// `length` copies of `v` as a plain column of `type`, byte-identical to
/// appending `v` that many times to a ColumnBuilder (the all-NULL layout of
/// Column::MakeNull when `v` is NULL). `v` must be NULL or fit the type, as
/// for ColumnBuilder::AppendValue. Used for literals and hive partition
/// columns.
Result<Column> ConstantColumn(DataType type, const Value& v, size_t length);

/// UPDATE's rewrite: a plain copy of `col` with every row where `mask` is
/// non-zero set to `v`, identical to appending each row's boxed value (or
/// `v`) to a ColumnBuilder — NULL rows hold the builder's placeholder and
/// validity is present only when a NULL remains. `v` must be NULL or fit
/// the column type, as for ColumnBuilder::AppendValue.
Result<Column> ReplaceWhere(const Column& col, const std::vector<uint8_t>& mask,
                            const Value& v);

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_COLUMN_H_
