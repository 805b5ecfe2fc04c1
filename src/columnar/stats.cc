// ComputeColumnStats: the typed column-statistics kernel of the write path.
//
// Every Parquet-lite row group and every data file's Big Metadata entry
// gets its statistics from here, so the kernel switches once on encoding
// and physical type and then runs flat loops over the typed buffers — no
// per-row Value, no per-row string copy, no ordered set. Its results are
// defined by the boxed formulation (box every row, seed min/max with the
// first non-null value, fold with Value::operator<, count distinct int64 /
// string values exactly; DOUBLE and BOOL report distinct_count 0), and
// must equal it field by field, including the Value type tag of min/max:
// tests/write_kernels_test.cc keeps that boxed loop as the reference.
//
// Only the DOUBLE fold depends on row order (NaN compares neither less nor
// greater, -0.0 == +0.0), so it alone walks rows in order; string, int64
// and bool orders are total, which lets dictionary and run-length columns
// fold over their referenced entries and runs instead of their rows.

#include <string_view>
#include <vector>

#include "columnar/expr.h"
#include "columnar/flat_id_map.h"

namespace biglake {

namespace {

/// Min/max in fold order with the boxed path's `<`: the first value seeds
/// both, later values replace them only when strictly smaller / larger.
template <typename T>
struct MinMax {
  bool seen = false;
  T min{};
  T max{};

  void Add(T v) {
    if (!seen) {
      min = max = v;
      seen = true;
      return;
    }
    if (v < min) min = v;
    if (max < v) max = v;
  }
};

/// Null flag per row of a plain or dictionary column: nullptr = no nulls.
const uint8_t* ValidityOf(const Column& col) {
  return col.has_validity() ? col.validity().data() : nullptr;
}

bool IsValid(const uint8_t* validity, size_t i) {
  return validity == nullptr || validity[i] != 0;
}

/// Exact number of distinct values among the valid `values[0..n)`, all of
/// which lie in [min, max]. A bitmap over the span when it costs no more
/// than about one byte per row, else a flat hash set; scratch is O(n).
uint64_t DistinctInts(const int64_t* values, const uint8_t* validity,
                      size_t n, int64_t min, int64_t max) {
  const uint64_t span =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  if (span / 8 <= n) {
    std::vector<uint64_t> bits(span / 64 + 1, 0);
    uint64_t distinct = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!IsValid(validity, i)) continue;
      const uint64_t off =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(min);
      const uint64_t bit = uint64_t{1} << (off & 63);
      uint64_t& word = bits[off >> 6];
      distinct += (word & bit) == 0;
      word |= bit;
    }
    return distinct;
  }
  FlatIdMap<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    if (IsValid(validity, i)) ids.Insert(values[i]);
  }
  return ids.size();
}

/// Folds min/max over the non-null rows of a plain column in row order,
/// counting the null rows into `stats`; `get(i)` reads row i.
template <typename T, typename Get>
MinMax<T> FoldRows(const Column& col, ColumnStats* stats, Get get) {
  const uint8_t* validity = ValidityOf(col);
  MinMax<T> mm;
  for (size_t i = 0; i < col.length(); ++i) {
    if (IsValid(validity, i)) {
      mm.Add(get(i));
    } else {
      ++stats->null_count;
    }
  }
  return mm;
}

template <typename T, typename Box>
void SetMinMax(const MinMax<T>& mm, Box box, ColumnStats* stats) {
  if (!mm.seen) return;
  stats->min = box(mm.min);
  stats->max = box(mm.max);
}

Value BoxString(std::string_view s) { return Value::String(std::string(s)); }

/// Run-length int64: one step per run (a run's rows share its value).
void RunLengthStats(const Column& col, ColumnStats* stats) {
  const uint8_t* validity = ValidityOf(col);
  const Buffer<int64_t>& run_values = col.run_values();
  const Buffer<uint32_t>& run_lengths = col.run_lengths();
  std::vector<int64_t> present;  // values of runs with a non-null row
  present.reserve(run_values.size());
  MinMax<int64_t> mm;
  size_t pos = 0;
  for (size_t r = 0; r < run_lengths.size(); ++r) {
    const size_t len = run_lengths[r];
    size_t valid = len;
    if (validity != nullptr) {
      valid = 0;
      for (size_t i = pos; i < pos + len; ++i) valid += validity[i] != 0;
    }
    pos += len;
    stats->null_count += len - valid;
    if (valid == 0) continue;
    mm.Add(run_values[r]);
    present.push_back(run_values[r]);
  }
  SetMinMax(mm, Value::Int64, stats);
  if (mm.seen) {
    stats->distinct_count = DistinctInts(present.data(), nullptr,
                                         present.size(), mm.min, mm.max);
  }
}

/// Dictionary strings: mark the referenced entries, then fold over those
/// (a dictionary may hold unused and duplicate entries).
void DictionaryStats(const Column& col, ColumnStats* stats) {
  const uint8_t* validity = ValidityOf(col);
  const Buffer<uint32_t>& indices = col.dict_indices();
  const StringBuffer& dict = col.dictionary();
  std::vector<uint8_t> referenced(dict.size(), 0);
  size_t num_referenced = 0;
  for (size_t i = 0; i < col.length(); ++i) {
    if (!IsValid(validity, i)) {
      ++stats->null_count;
      continue;
    }
    uint8_t& ref = referenced[indices[i]];
    num_referenced += ref == 0;
    ref = 1;
  }
  MinMax<std::string_view> mm;
  FlatIdMap<std::string_view> distinct(num_referenced);
  for (size_t e = 0; e < dict.size(); ++e) {
    if (referenced[e] == 0) continue;
    mm.Add(dict[e]);
    distinct.Insert(dict[e]);
  }
  SetMinMax(mm, BoxString, stats);
  stats->distinct_count = distinct.size();
}

}  // namespace

ColumnStats ComputeColumnStats(const Column& col) {
  ColumnStats stats;
  stats.row_count = col.length();
  if (col.length() == 0) return stats;
  switch (col.encoding()) {
    case Encoding::kRunLength:
      RunLengthStats(col, &stats);
      return stats;
    case Encoding::kDictionary:
      DictionaryStats(col, &stats);
      return stats;
    case Encoding::kPlain:
      break;
  }
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t* values = col.int64_data().data();
      MinMax<int64_t> mm = FoldRows<int64_t>(
          col, &stats, [values](size_t i) { return values[i]; });
      SetMinMax(mm, Value::Int64, &stats);
      if (mm.seen) {
        stats.distinct_count = DistinctInts(values, ValidityOf(col),
                                            col.length(), mm.min, mm.max);
      }
      break;
    }
    case DataType::kDouble: {
      const double* values = col.double_data().data();
      SetMinMax(FoldRows<double>(col, &stats,
                                 [values](size_t i) { return values[i]; }),
                Value::Double, &stats);
      break;
    }
    case DataType::kBool: {
      const uint8_t* values = col.bool_data().data();
      SetMinMax(FoldRows<bool>(col, &stats,
                               [values](size_t i) { return values[i] != 0; }),
                Value::Bool, &stats);
      break;
    }
    case DataType::kString:
    case DataType::kBytes: {
      const StringBuffer& strings = col.string_data();
      FlatIdMap<std::string_view> distinct;
      SetMinMax(FoldRows<std::string_view>(col, &stats,
                                           [&](size_t i) {
                                             distinct.Insert(strings[i]);
                                             return strings[i];
                                           }),
                BoxString, &stats);
      stats.distinct_count = distinct.size();
      break;
    }
  }
  return stats;
}

}  // namespace biglake
