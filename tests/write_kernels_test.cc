// Differential tests of the typed write-path kernels against their boxed
// definitions, on seeded random columns of every type, encoding, null
// pattern and view shape.
//
// ReferenceColumnStats is the boxed definition of ColumnStats: box every
// row through Column::GetValue, seed min/max with the first non-null value,
// fold with Value::operator<, count distinct int64/string values exactly in
// ordered sets. ComputeColumnStats (columnar/stats.cc) must equal it field
// by field — min/max down to the Value type tag and, for doubles, the bit
// pattern (NaN and -0.0 included). ReplaceWhere must build the column a
// row-by-row ColumnBuilder would, and ComparePlainRows must order rows as
// Value::Compare does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "columnar/column.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "common/random.h"

namespace biglake {
namespace {

ColumnStats ReferenceColumnStats(const Column& col) {
  ColumnStats stats;
  stats.row_count = col.length();
  std::set<std::string> distinct_strings;
  std::set<int64_t> distinct_ints;
  bool first = true;
  for (size_t i = 0; i < col.length(); ++i) {
    Value v = col.GetValue(i);
    if (v.is_null()) {
      ++stats.null_count;
      continue;
    }
    if (v.is_string()) {
      distinct_strings.insert(v.string_value());
    } else if (v.is_int64()) {
      distinct_ints.insert(v.int64_value());
    }
    if (first) {
      stats.min = v;
      stats.max = v;
      first = false;
    } else {
      if (v < stats.min) stats.min = v;
      if (stats.max < v) stats.max = v;
    }
  }
  stats.distinct_count =
      std::max(distinct_strings.size(), distinct_ints.size());
  return stats;
}

const char* TypeTag(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return "bool";
  if (v.is_int64()) return "int64";
  if (v.is_double()) return "double";
  return "string";
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectSameValue(const Value& want, const Value& got, const char* what) {
  ASSERT_STREQ(TypeTag(want), TypeTag(got)) << what;
  if (want.is_double()) {
    EXPECT_EQ(DoubleBits(want.double_value()), DoubleBits(got.double_value()))
        << what << ": " << want.double_value() << " vs "
        << got.double_value();
  } else if (want.is_string()) {
    EXPECT_EQ(want.string_value(), got.string_value()) << what;
  } else if (!want.is_null()) {
    EXPECT_TRUE(want == got) << what << ": " << want.ToString() << " vs "
                             << got.ToString();
  }
}

void ExpectStatsMatchReference(const Column& col) {
  ColumnStats want = ReferenceColumnStats(col);
  ColumnStats got = ComputeColumnStats(col);
  EXPECT_EQ(want.row_count, got.row_count);
  EXPECT_EQ(want.null_count, got.null_count);
  EXPECT_EQ(want.distinct_count, got.distinct_count);
  ExpectSameValue(want.min, got.min, "min");
  ExpectSameValue(want.max, got.max, "max");
}

/// Also checks the non-zero-offset slices and a gathered view of `col`.
void ExpectStatsMatchReferenceWithViews(const Column& col, Random* rng) {
  {
    SCOPED_TRACE("whole column");
    ExpectStatsMatchReference(col);
  }
  const size_t n = col.length();
  if (n == 0) return;
  for (int s = 0; s < 3; ++s) {
    size_t off = 1 + rng->Uniform(n);
    size_t count = rng->Uniform(n - std::min(off, n) + 1);
    SCOPED_TRACE("slice at " + std::to_string(off) + " of " +
                 std::to_string(count));
    ExpectStatsMatchReference(col.Slice(off, count));
  }
  std::vector<uint32_t> ids(rng->Uniform(2 * n) + 1);
  for (auto& id : ids) id = static_cast<uint32_t>(rng->Uniform(n));
  SCOPED_TRACE("gathered view");
  ExpectStatsMatchReference(col.Gather(ids));
}

enum class Nulls { kNone, kSome, kAll };

std::vector<uint8_t> RandomValidity(Random* rng, size_t n, Nulls nulls) {
  switch (nulls) {
    case Nulls::kNone:
      return {};
    case Nulls::kAll:
      return std::vector<uint8_t>(n, 0);
    case Nulls::kSome:
      break;
  }
  std::vector<uint8_t> v(n);
  const uint64_t one_in = 2 + rng->Uniform(6);
  for (auto& b : v) b = rng->OneIn(one_in) ? 0 : 1;
  return v;
}

/// Int64 values over a narrow span (bitmap path), a wide one (hash path) or
/// touching the int64 extremes.
std::vector<int64_t> RandomInts(Random* rng, size_t n, int64_t base) {
  std::vector<int64_t> v(n);
  const uint64_t shape = rng->Uniform(3);
  for (auto& x : v) {
    if (shape == 0) {
      x = base + rng->UniformRange(-20, 20);
    } else if (shape == 1) {
      x = base + static_cast<int64_t>(rng->Next() >> 20);
    } else {
      const uint64_t pick = rng->Uniform(4);
      x = pick == 0   ? std::numeric_limits<int64_t>::min()
          : pick == 1 ? std::numeric_limits<int64_t>::max()
                      : static_cast<int64_t>(rng->Next());
    }
  }
  return v;
}

double RandomDouble(Random* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return -0.0;
    case 2:
      return 0.0;
    case 3:
      return rng->OneIn(2) ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
    default:
      return (rng->NextDouble() - 0.5) * 100.0;
  }
}

std::string RandomString(Random* rng) {
  static const std::vector<std::string> kPool = {
      "", std::string("\0", 1), std::string("a\0b", 3), std::string("a\0", 2),
      "a", "ab", "b", "zz"};
  if (rng->OneIn(2)) return kPool[rng->Uniform(kPool.size())];
  return rng->NextString(1 + rng->Uniform(6));
}

Column RandomPlainColumn(Random* rng, DataType type, size_t n, Nulls nulls) {
  std::vector<uint8_t> validity = RandomValidity(rng, n, nulls);
  switch (type) {
    case DataType::kInt64:
      return Column::MakeInt64(RandomInts(rng, n, 0), std::move(validity));
    case DataType::kTimestamp:
      return Column::MakeTimestamp(RandomInts(rng, n, 1700000000000000),
                                   std::move(validity));
    case DataType::kDouble: {
      std::vector<double> v(n);
      for (auto& x : v) x = RandomDouble(rng);
      return Column::MakeDouble(std::move(v), std::move(validity));
    }
    case DataType::kBool: {
      std::vector<uint8_t> v(n);
      for (auto& x : v) x = rng->OneIn(2) ? 1 : 0;
      return Column::MakeBool(std::move(v), std::move(validity));
    }
    case DataType::kString:
    case DataType::kBytes: {
      std::vector<std::string> v(n);
      for (auto& x : v) x = RandomString(rng);
      return type == DataType::kString
                 ? Column::MakeString(std::move(v), std::move(validity))
                 : Column::MakeBytes(std::move(v), std::move(validity));
    }
  }
  return Column();
}

/// A dictionary holding duplicate and unused entries.
Column RandomDictionaryColumn(Random* rng, size_t n, Nulls nulls) {
  std::vector<std::string> dict;
  const size_t distinct = 1 + rng->Uniform(12);
  for (size_t i = 0; i < distinct; ++i) {
    std::string s = RandomString(rng);
    dict.push_back(s);
    if (rng->OneIn(3)) dict.push_back(s);  // duplicate entry
  }
  // Rows reference only a prefix of the dictionary; the rest is unused.
  const size_t used = 1 + rng->Uniform(dict.size());
  std::vector<uint32_t> indices(n);
  for (auto& idx : indices) idx = static_cast<uint32_t>(rng->Uniform(used));
  return Column::MakeDictionaryString(std::move(indices), std::move(dict),
                                      RandomValidity(rng, n, nulls));
}

Column RandomRunLengthColumn(Random* rng, DataType type) {
  std::vector<int64_t> values;
  std::vector<uint32_t> lengths;
  const size_t runs = rng->Uniform(20);
  const int64_t base = type == DataType::kTimestamp ? 1700000000000000 : 0;
  std::vector<int64_t> pool = RandomInts(rng, runs, base);
  for (size_t r = 0; r < runs; ++r) {
    values.push_back(pool[r]);
    lengths.push_back(static_cast<uint32_t>(rng->Uniform(9)));  // 0 allowed
  }
  return Column::MakeRunLengthInt64(std::move(values), std::move(lengths),
                                    type);
}

const DataType kAllTypes[] = {DataType::kInt64,  DataType::kTimestamp,
                              DataType::kDouble, DataType::kBool,
                              DataType::kString, DataType::kBytes};
const Nulls kAllNulls[] = {Nulls::kNone, Nulls::kSome, Nulls::kAll};

TEST(ColumnStatsKernelTest, PlainColumnsMatchReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    for (DataType type : kAllTypes) {
      for (Nulls nulls : kAllNulls) {
        const size_t n = rng.OneIn(8) ? 0 : 1 + rng.Uniform(300);
        SCOPED_TRACE("seed " + std::to_string(seed) + " type " +
                     DataTypeName(type) + " nulls " +
                     std::to_string(static_cast<int>(nulls)) + " rows " +
                     std::to_string(n));
        ExpectStatsMatchReferenceWithViews(
            RandomPlainColumn(&rng, type, n, nulls), &rng);
      }
    }
  }
}

TEST(ColumnStatsKernelTest, DictionaryColumnsMatchReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Random rng(seed);
    for (Nulls nulls : kAllNulls) {
      const size_t n = rng.OneIn(8) ? 0 : 1 + rng.Uniform(300);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rows " +
                   std::to_string(n));
      Column col = RandomDictionaryColumn(&rng, n, nulls);
      ExpectStatsMatchReferenceWithViews(col, &rng);
      ExpectStatsMatchReference(col.WithType(DataType::kBytes));
    }
  }
}

TEST(ColumnStatsKernelTest, RunLengthColumnsMatchReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Random rng(seed);
    for (DataType type : {DataType::kInt64, DataType::kTimestamp}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " type " +
                   DataTypeName(type));
      ExpectStatsMatchReferenceWithViews(RandomRunLengthColumn(&rng, type),
                                         &rng);
    }
  }
}

TEST(ColumnStatsKernelTest, EmptyAndAllNullColumns) {
  for (DataType type : kAllTypes) {
    SCOPED_TRACE(DataTypeName(type));
    ExpectStatsMatchReference(Column::MakeNull(type, 0));
    ExpectStatsMatchReference(Column::MakeNull(type, 17));
    ColumnStats s = ComputeColumnStats(Column::MakeNull(type, 17));
    EXPECT_EQ(s.null_count, 17u);
    EXPECT_TRUE(s.min.is_null());
    EXPECT_EQ(s.distinct_count, 0u);
  }
}

TEST(ColumnStatsKernelTest, NaNAndSignedZeroFollowFoldOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN first: nothing compares below or above it, so it stays min and max.
  ExpectStatsMatchReference(Column::MakeDouble({nan, 1.0, -3.0, 2.0}));
  ColumnStats s = ComputeColumnStats(Column::MakeDouble({nan, 1.0, -3.0}));
  EXPECT_TRUE(std::isnan(s.min.double_value()));
  EXPECT_TRUE(std::isnan(s.max.double_value()));
  // NaN first after a NULL, and NaN in the middle.
  ExpectStatsMatchReference(
      Column::MakeDouble({7.0, nan, 1.0, -3.0}, {0, 1, 1, 1}));
  ExpectStatsMatchReference(Column::MakeDouble({1.0, nan, -3.0, 4.0}));
  // -0.0 and +0.0 compare equal: whichever comes first is kept.
  ExpectStatsMatchReference(Column::MakeDouble({-0.0, 0.0}));
  ExpectStatsMatchReference(Column::MakeDouble({0.0, -0.0}));
  s = ComputeColumnStats(Column::MakeDouble({-0.0, 0.0}));
  EXPECT_TRUE(std::signbit(s.min.double_value()));
  EXPECT_TRUE(std::signbit(s.max.double_value()));
  EXPECT_EQ(s.distinct_count, 0u);  // not counted for DOUBLE
}

TEST(ColumnStatsKernelTest, EmptyStringsAndEmbeddedNuls) {
  const std::string nul("\0", 1), a_nul_b("a\0b", 3), a_nul("a\0", 2);
  Column col = Column::MakeString({"a", nul, "", a_nul_b, a_nul, "", "a"});
  ExpectStatsMatchReference(col);
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_EQ(s.min.string_value(), "");
  EXPECT_EQ(s.max.string_value(), a_nul_b);
  EXPECT_EQ(s.distinct_count, 5u);
  // A NULL row is not "" — it only counts as a null.
  Column with_null = Column::MakeString({"", "x", ""}, {0, 1, 1});
  ExpectStatsMatchReference(with_null);
  EXPECT_EQ(ComputeColumnStats(with_null).null_count, 1u);
}

TEST(ColumnStatsKernelTest, IntSpanPathsAgree) {
  // Narrow span (bitmap), wide span (hash) and the full int64 range.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (const std::vector<int64_t>& v :
       {std::vector<int64_t>{5, 3, 5, 9, 3, 4},
        std::vector<int64_t>{1, 1000000000000, 1, -7, 1000000000000},
        std::vector<int64_t>{lo, hi, 0, lo, hi, -1}}) {
    ExpectStatsMatchReference(Column::MakeInt64(v));
    ExpectStatsMatchReference(Column::MakeTimestamp(v));
  }
}

// ---- ReplaceWhere / ComparePlainRows ---------------------------------------

Column ReferenceReplaceWhere(const Column& col,
                             const std::vector<uint8_t>& mask,
                             const Value& v) {
  ColumnBuilder builder(col.type());
  for (size_t r = 0; r < col.length(); ++r) {
    EXPECT_TRUE(builder.AppendValue(mask[r] ? v : col.GetValue(r)).ok());
  }
  return builder.Finish();
}

/// Wire bytes cover type, encoding, validity and every physical value,
/// including the placeholders under NULL rows.
std::string ColumnBytes(const Column& col) {
  std::string out;
  EncodeColumn(&out, col);
  return out;
}

Value RandomAssignment(Random* rng, DataType type) {
  if (rng->OneIn(4)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return Value::Int64(RandomInts(rng, 1, 0)[0]);
    case DataType::kDouble:
      return rng->OneIn(2) ? Value::Double(RandomDouble(rng))
                           : Value::Int64(rng->UniformRange(-9, 9));
    case DataType::kBool:
      return Value::Bool(rng->OneIn(2));
    case DataType::kString:
    case DataType::kBytes:
      return Value::String(RandomString(rng));
  }
  return Value::Null();
}

TEST(ReplaceWhereTest, MatchesRowByRowBuilder) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Random rng(seed);
    std::vector<Column> cols;
    for (DataType type : kAllTypes) {
      for (Nulls nulls : kAllNulls) {
        cols.push_back(
            RandomPlainColumn(&rng, type, rng.Uniform(200), nulls));
      }
    }
    cols.push_back(
        RandomDictionaryColumn(&rng, rng.Uniform(200), Nulls::kSome));
    cols.push_back(RandomRunLengthColumn(&rng, DataType::kTimestamp));
    for (const Column& col : cols) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " type " +
                   DataTypeName(col.type()) + " rows " +
                   std::to_string(col.length()));
      std::vector<uint8_t> mask(col.length());
      const uint64_t one_in = 1 + rng.Uniform(4);
      for (auto& m : mask) m = rng.OneIn(one_in) ? 1 : 0;
      const Value v = RandomAssignment(&rng, col.type());
      auto got = ReplaceWhere(col, mask, v);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(ColumnBytes(*got),
                ColumnBytes(ReferenceReplaceWhere(col, mask, v)));
    }
  }
}

TEST(ReplaceWhereTest, RejectsMismatchedValueLikeBuilder) {
  Column col = Column::MakeInt64({1, 2, 3});
  auto got = ReplaceWhere(col, {0, 1, 0}, Value::String("x"));
  ASSERT_FALSE(got.ok());
  ColumnBuilder builder(DataType::kInt64);
  EXPECT_EQ(got.status().ToString(),
            builder.AppendValue(Value::String("x")).ToString());
}

TEST(ComparePlainRowsTest, OrdersLikeValueCompare) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed);
    for (DataType type : kAllTypes) {
      Column col = RandomPlainColumn(&rng, type, 60, Nulls::kSome);
      SCOPED_TRACE("seed " + std::to_string(seed) + " type " +
                   DataTypeName(type));
      for (size_t a = 0; a < col.length(); ++a) {
        for (size_t b = 0; b < col.length(); ++b) {
          const int want = col.GetValue(a).Compare(col.GetValue(b));
          const int got = ComparePlainRows(col, a, b);
          ASSERT_EQ((want > 0) - (want < 0), (got > 0) - (got < 0))
              << "rows " << a << ", " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace biglake
