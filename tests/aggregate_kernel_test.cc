// Typed hash group-by (HashAggregator, ops::ParallelAggregate,
// MergePartialAggregates) against the boxed reference in reference_eval.h.
//
// The reference is the std::map group-by the kernel replaced: keys encoded
// to EncodeColumnValue bytes, every cell boxed through GetValue, MIN/MAX by
// boxed `<`, output through BatchBuilder; the engine's chunked form splits
// the input into the same fixed 4096-row chunks and merges their partials.
// The kernel must produce the same SerializeBatch bytes and MemoryBytes on
// seeded batches across key counts, key classes and encodings, NULL keys
// and inputs, every AggOp, selections, slices, chunk edges and pool widths.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/batch.h"
#include "columnar/ipc.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/operators.h"
#include "reference_eval.h"

namespace biglake {
namespace {

// ---------------------------------------------------------------------------
// Seeded columns
// ---------------------------------------------------------------------------

enum class Kind {
  kInt64, kTimestamp, kDouble, kBool, kString, kBytes, kDict, kRle,
  kWideInt,     // int64 drawn from a wide range (many groups, real sums)
  kWideDouble,  // finite doubles whose sums depend on the addition order
  kBigDict,     // 5000-entry dictionary: more entries than a chunk has rows
};

const std::vector<int64_t>& IntDomain() {
  static const std::vector<int64_t> d = {
      std::numeric_limits<int64_t>::min(), -7, -1, 0, 1, 2, 42,
      std::numeric_limits<int64_t>::max()};
  return d;
}

const std::vector<double>& DoubleDomain() {
  static const std::vector<double> d = {
      0.0, -0.0, std::nan(""), 1.5, -2.25, 1e300,
      std::numeric_limits<double>::infinity(), 42.0};
  return d;
}

const std::vector<std::string>& StringDomain() {
  static const std::vector<std::string> d = {
      "", "a", std::string("a\0b", 3), std::string("a\0c", 3), "abc", "zz",
      std::string("\0", 1), "east"};
  return d;
}

constexpr size_t kBigDictSize = 5000;

DataType TypeOf(Kind kind) {
  switch (kind) {
    case Kind::kInt64: case Kind::kRle: case Kind::kWideInt:
      return DataType::kInt64;
    case Kind::kTimestamp: return DataType::kTimestamp;
    case Kind::kDouble: case Kind::kWideDouble: return DataType::kDouble;
    case Kind::kBool: return DataType::kBool;
    case Kind::kString: case Kind::kDict: case Kind::kBigDict:
      return DataType::kString;
    case Kind::kBytes: return DataType::kBytes;
  }
  return DataType::kInt64;
}

/// Codes drawn per kind: domain indices, or raw values for the wide kinds.
size_t DomainOf(Kind kind) {
  switch (kind) {
    case Kind::kWideInt: return 3000;
    case Kind::kWideDouble: return 1000000;
    case Kind::kBigDict: return kBigDictSize;
    default: return 8;
  }
}

/// A column of `kind` whose row i holds the value of codes[i]
/// (`null_pct` percent of rows NULL, except RLE, which has no validity).
Column MakeColumn(Kind kind, const std::vector<size_t>& codes, Random* rng,
                  int null_pct) {
  const size_t n = codes.size();
  std::vector<uint8_t> valid;
  if (null_pct > 0 && kind != Kind::kRle) {
    valid.resize(n);
    for (auto& v : valid) v = rng->Uniform(100) < uint64_t(null_pct) ? 0 : 1;
  }
  switch (kind) {
    case Kind::kInt64:
    case Kind::kTimestamp: {
      std::vector<int64_t> v;
      for (size_t c : codes) v.push_back(IntDomain()[c % IntDomain().size()]);
      return kind == Kind::kInt64 ? Column::MakeInt64(v, valid)
                                  : Column::MakeTimestamp(v, valid);
    }
    case Kind::kWideInt: {
      std::vector<int64_t> v;
      for (size_t c : codes) v.push_back(static_cast<int64_t>(c) - 1500);
      return Column::MakeInt64(v, valid);
    }
    case Kind::kDouble: {
      std::vector<double> v;
      for (size_t c : codes) {
        v.push_back(DoubleDomain()[c % DoubleDomain().size()]);
      }
      return Column::MakeDouble(v, valid);
    }
    case Kind::kWideDouble: {
      std::vector<double> v;
      for (size_t c : codes) {
        v.push_back((static_cast<double>(c) - 5e5) / 7.25);
      }
      return Column::MakeDouble(v, valid);
    }
    case Kind::kBool: {
      std::vector<uint8_t> v;
      // Non-canonical true bytes (2) must still equal canonical ones.
      for (size_t c : codes) v.push_back(static_cast<uint8_t>(c % 3));
      return Column::MakeBool(v, valid);
    }
    case Kind::kString:
    case Kind::kBytes: {
      std::vector<std::string> v;
      for (size_t c : codes) {
        v.push_back(StringDomain()[c % StringDomain().size()]);
      }
      return kind == Kind::kString ? Column::MakeString(v, valid)
                                   : Column::MakeBytes(v, valid);
    }
    case Kind::kDict: {
      // Dictionary in reverse domain order plus an unused and a duplicate
      // entry, so indices differ from codes and two codes share a value.
      std::vector<std::string> dict(StringDomain().rbegin(),
                                    StringDomain().rend());
      dict.push_back("unused");
      dict.push_back(dict[0]);
      const size_t m = StringDomain().size();
      std::vector<uint32_t> idx;
      for (size_t c : codes) {
        const size_t pos = m - 1 - c % m;
        idx.push_back(static_cast<uint32_t>(
            pos == 0 && rng->Uniform(2) == 0 ? dict.size() - 1 : pos));
      }
      return Column::MakeDictionaryString(idx, dict, valid);
    }
    case Kind::kBigDict: {
      std::vector<std::string> dict;
      for (size_t d = 0; d < kBigDictSize; ++d) {
        dict.push_back("s" + std::to_string(d));
      }
      std::vector<uint32_t> idx;
      for (size_t c : codes) idx.push_back(static_cast<uint32_t>(c));
      return Column::MakeDictionaryString(idx, dict, valid);
    }
    case Kind::kRle: {
      std::vector<int64_t> values;
      std::vector<uint32_t> lengths;
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = IntDomain()[codes[i] % IntDomain().size()];
        if (!values.empty() && values.back() == v) {
          ++lengths.back();
        } else {
          values.push_back(v);
          lengths.push_back(1);
        }
      }
      return Column::MakeRunLengthInt64(values, lengths);
    }
  }
  return Column();
}

/// Aggregate inputs: one column per value kind, named below.
const std::vector<std::pair<std::string, Kind>>& ValueColumns() {
  static const std::vector<std::pair<std::string, Kind>> v = {
      {"vi", Kind::kWideInt},  {"vt", Kind::kTimestamp},
      {"vf", Kind::kWideDouble}, {"vd", Kind::kDouble},
      {"vb", Kind::kBool},     {"vs", Kind::kString},
      {"vy", Kind::kBytes},    {"vc", Kind::kDict},
      {"vr", Kind::kRle}};
  return v;
}

/// Key columns k0.. of `key_kinds`, then the value columns. RLE columns
/// draw codes in runs so their runs are longer than one row.
RecordBatch MakeBatch(const std::vector<Kind>& key_kinds, size_t rows,
                      uint64_t seed, int null_pct = 10) {
  Random rng(seed);
  std::vector<Field> fields;
  std::vector<Column> cols;
  auto add = [&](const std::string& name, Kind kind) {
    std::vector<size_t> codes(rows);
    size_t run_left = 0, code = 0;
    for (auto& c : codes) {
      if (kind == Kind::kRle) {
        if (run_left == 0) {
          code = rng.Uniform(DomainOf(kind));
          run_left = 1 + rng.Uniform(6);
        }
        --run_left;
        c = code;
      } else {
        c = rng.Uniform(DomainOf(kind));
      }
    }
    fields.push_back({name, TypeOf(kind), true});
    cols.push_back(MakeColumn(kind, codes, &rng, null_pct));
  };
  for (size_t k = 0; k < key_kinds.size(); ++k) {
    add("k" + std::to_string(k), key_kinds[k]);
  }
  for (const auto& [name, kind] : ValueColumns()) add(name, kind);
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

std::vector<std::string> KeyNames(size_t n) {
  std::vector<std::string> out;
  for (size_t k = 0; k < n; ++k) out.push_back("k" + std::to_string(k));
  return out;
}

/// Every AggOp over every value column, plus the input-less forms.
std::vector<AggSpec> AllSpecs(bool with_avg = true) {
  std::vector<AggSpec> specs = {{AggOp::kCount, "", "n"},
                                {AggOp::kSum, "", "sum_star"},
                                {AggOp::kMin, "", "min_star"}};
  for (const auto& [name, kind] : ValueColumns()) {
    (void)kind;
    specs.push_back({AggOp::kCount, name, "cnt_" + name});
    specs.push_back({AggOp::kSum, name, "sum_" + name});
    specs.push_back({AggOp::kMin, name, "min_" + name});
    specs.push_back({AggOp::kMax, name, "max_" + name});
    if (with_avg) specs.push_back({AggOp::kAvg, name, "avg_" + name});
  }
  return specs;
}

std::vector<uint32_t> RandomSelection(size_t rows, uint64_t seed) {
  Random rng(seed);
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Uniform(3) != 0) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

void ExpectSameBatch(const Result<RecordBatch>& got,
                     const Result<RecordBatch>& want) {
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), want->num_rows());
  EXPECT_EQ(SerializeBatch(*got), SerializeBatch(*want));
  EXPECT_EQ(got->MemoryBytes(), want->MemoryBytes());
}

/// Pools of 0, 1, 2 and 8 threads, plus no pool at all (the serial caller).
class AggregateKernelTest : public ::testing::Test {
 protected:
  AggregateKernelTest() {
    for (size_t t : {0, 1, 2, 8}) {
      pools_.push_back(std::make_unique<ThreadPool>(t));
    }
  }

  /// The engine path at every pool width equals the reference's chunked
  /// aggregation, and the serial Add path its one-pass aggregation.
  void ExpectMatchesReference(const RecordBatch& batch,
                              const std::vector<std::string>& keys,
                              const std::vector<AggSpec>& specs,
                              const std::vector<uint32_t>* sel = nullptr) {
    const auto want = ReferenceChunkedAggregate(batch, keys, specs, sel);
    std::vector<ThreadPool*> pools = {nullptr};
    for (const auto& p : pools_) pools.push_back(p.get());
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE(pool == nullptr
                       ? std::string("no pool")
                       : std::to_string(pool->num_threads()) + " threads");
      ops::AggregateStats stats;
      ExpectSameBatch(
          ops::ParallelAggregate(pool, batch, keys, specs, sel, &stats),
          want);
      const size_t n = sel != nullptr ? sel->size() : batch.num_rows();
      EXPECT_EQ(stats.chunks,
                (n + kAggregateChunkRows - 1) / kAggregateChunkRows);
      EXPECT_EQ(stats.groups, n == 0 ? 0 : want->num_rows());
    }

    // One pass in row order: the partial step's output.
    auto agg = HashAggregator::Make(batch.schema(), keys, specs);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    ASSERT_TRUE(agg->Add(batch, sel).ok());
    ExpectSameBatch(
        agg->Finish(/*final_step=*/false),
        ReferenceAggregate(batch, keys, specs, sel));
  }

  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

TEST_F(AggregateKernelTest, SingleKeyEveryClassAndEncoding) {
  for (Kind kind : {Kind::kInt64, Kind::kTimestamp, Kind::kDouble,
                    Kind::kBool, Kind::kString, Kind::kBytes, Kind::kDict,
                    Kind::kRle, Kind::kWideInt, Kind::kBigDict}) {
    SCOPED_TRACE(static_cast<int>(kind));
    RecordBatch batch = MakeBatch({kind}, 5000, 100 + static_cast<int>(kind));
    ExpectMatchesReference(batch, {"k0"}, AllSpecs());
  }
}

TEST_F(AggregateKernelTest, ZeroToThreeKeyColumns) {
  const std::vector<std::vector<Kind>> shapes = {
      {},
      {Kind::kString, Kind::kInt64},
      {Kind::kDict, Kind::kDouble},
      {Kind::kBool, Kind::kRle, Kind::kBytes},
      {Kind::kTimestamp, Kind::kDict, Kind::kWideInt}};
  uint64_t seed = 7;
  for (const auto& kinds : shapes) {
    SCOPED_TRACE(kinds.size());
    RecordBatch batch = MakeBatch(kinds, 4500, seed++);
    ExpectMatchesReference(batch, KeyNames(kinds.size()), AllSpecs());
  }
}

// 4095, 4096 and 4097 rows sit on either side of the first chunk edge;
// 40 k rows make ten chunks and thousands of groups.
TEST_F(AggregateKernelTest, ChunkEdges) {
  for (size_t rows : {1, 4095, 4096, 4097, 40000}) {
    SCOPED_TRACE(rows);
    RecordBatch batch = MakeBatch({Kind::kWideInt}, rows, rows);
    ExpectMatchesReference(batch, {"k0"}, AllSpecs());
    ExpectMatchesReference(batch, {}, AllSpecs());
  }
  RecordBatch wide = MakeBatch({Kind::kBigDict, Kind::kWideInt}, 40000, 3);
  ExpectMatchesReference(wide, {"k0", "k1"},
                         {{AggOp::kCount, "", "n"},
                          {AggOp::kSum, "vf", "s"},
                          {AggOp::kAvg, "vi", "a"},
                          {AggOp::kMin, "vs", "lo"},
                          {AggOp::kMax, "vd", "hi"}});
}

TEST_F(AggregateKernelTest, NullKeysFormOneGroupAndNullInputsAreSkipped) {
  // Half the keys and inputs NULL; with every input NULL, SUM/AVG/MIN/MAX
  // are NULL and COUNT(x) is 0 while COUNT(*) counts the rows.
  for (int null_pct : {50, 100}) {
    SCOPED_TRACE(null_pct);
    for (Kind kind : {Kind::kInt64, Kind::kString, Kind::kDict}) {
      RecordBatch batch =
          MakeBatch({kind, Kind::kBool}, 4500, 40 + null_pct, null_pct);
      ExpectMatchesReference(batch, {"k0"}, AllSpecs());
      ExpectMatchesReference(batch, {"k0", "k1"}, AllSpecs());
    }
  }
}

TEST_F(AggregateKernelTest, SelectionsAndSlices) {
  RecordBatch batch = MakeBatch({Kind::kDict, Kind::kInt64}, 9000, 11);
  for (size_t rows : {0, 4095, 9000}) {
    SCOPED_TRACE(rows);
    std::vector<uint32_t> sel = RandomSelection(rows, rows + 1);
    ExpectMatchesReference(batch, {"k0"}, AllSpecs(), &sel);
    ExpectMatchesReference(batch, {"k0", "k1"}, AllSpecs(), &sel);
    ExpectMatchesReference(batch, {}, AllSpecs(), &sel);
  }
  // Non-zero offsets: plain and dictionary columns are views, RLE copies.
  for (size_t offset : {1, 4095, 4097}) {
    SCOPED_TRACE(offset);
    RecordBatch slice = batch.Slice(offset, 4500);
    ExpectMatchesReference(slice, {"k0", "k1"}, AllSpecs());
    std::vector<uint32_t> sel = RandomSelection(slice.num_rows(), offset);
    ExpectMatchesReference(slice, {"k1"}, AllSpecs(), &sel);
  }
}

TEST_F(AggregateKernelTest, EmptyInput) {
  RecordBatch empty = MakeBatch({Kind::kString}, 0, 5);
  ExpectMatchesReference(empty, {"k0"}, AllSpecs());
  ExpectMatchesReference(empty, {}, AllSpecs());

  // The final step of a global aggregate returns one row: COUNT 0, every
  // other aggregate NULL. The partial step returns none.
  auto final_rows = ops::ParallelAggregate(nullptr, empty, {}, AllSpecs());
  ASSERT_TRUE(final_rows.ok());
  ASSERT_EQ(final_rows->num_rows(), 1u);
  EXPECT_EQ(final_rows->GetValue(0, 0), Value::Int64(0));
  for (size_t c = 1; c < final_rows->num_columns(); ++c) {
    const Value v = final_rows->GetValue(0, c);
    EXPECT_TRUE(v.is_null() || v == Value::Int64(0))
        << final_rows->schema()->field(c).name;
  }
  auto agg = HashAggregator::Make(empty.schema(), {}, AllSpecs());
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Add(empty).ok());
  auto partial = agg->Finish(/*final_step=*/false);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->num_rows(), 0u);
}

TEST_F(AggregateKernelTest, MinMaxKeepTheBoxedOrder) {
  // The first non-NULL value stays unless a later one is strictly lower
  // (higher): a leading NaN is never replaced, -0.0 and 0.0 tie, and
  // strings order bytewise with embedded NULs.
  auto schema = MakeSchema({{"g", DataType::kInt64, true},
                            {"d", DataType::kDouble, true},
                            {"s", DataType::kString, true}});
  std::vector<Column> cols = {
      Column::MakeInt64({1, 1, 1, 2, 2, 2}),
      Column::MakeDouble({std::nan(""), -1.0, 5.0, -0.0, 0.0, -0.0}),
      Column::MakeString({std::string("a\0b", 3), "a", std::string("a\0", 2),
                          "", "b", std::string("\0", 1)})};
  RecordBatch batch(schema, std::move(cols));
  const std::vector<AggSpec> specs = {{AggOp::kMin, "d", "dmin"},
                                      {AggOp::kMax, "d", "dmax"},
                                      {AggOp::kMin, "s", "smin"},
                                      {AggOp::kMax, "s", "smax"}};
  ExpectMatchesReference(batch, {"g"}, specs);
  auto got = ops::ParallelAggregate(nullptr, batch, {"g"}, specs);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::isnan(got->GetValue(0, 1).double_value()));
  EXPECT_TRUE(std::signbit(got->GetValue(1, 1).double_value()));
  EXPECT_TRUE(std::signbit(got->GetValue(1, 2).double_value()));
  EXPECT_EQ(got->GetValue(0, 3), Value::String("a"));
  EXPECT_EQ(got->GetValue(1, 4), Value::String("b"));
}

// Partial aggregates per piece, then one merge: the Read API pushdown and
// Spark-lite's final step.
TEST_F(AggregateKernelTest, PartialMergeRoundTrips) {
  const std::vector<AggSpec> specs = AllSpecs(/*with_avg=*/false);
  for (size_t nkeys : {0, 1, 2}) {
    SCOPED_TRACE(nkeys);
    RecordBatch batch =
        MakeBatch({Kind::kDict, Kind::kDouble}, 20000, 90 + nkeys);
    const std::vector<std::string> keys = KeyNames(nkeys);
    std::vector<RecordBatch> got_parts, want_parts;
    size_t offset = 0;
    for (size_t len : {0, 1, 4096, 5000, 10903}) {
      RecordBatch piece = batch.Slice(offset, len);
      offset += len;
      auto agg = HashAggregator::Make(batch.schema(), keys, specs);
      ASSERT_TRUE(agg.ok());
      // Each piece arrives as two blocks, as a stream's row groups do.
      ASSERT_TRUE(agg->Add(piece.Slice(0, len / 2)).ok());
      ASSERT_TRUE(agg->Add(piece.Slice(len / 2, len - len / 2)).ok());
      auto got = agg->Finish(/*final_step=*/false);
      auto want = ReferenceAggregate(piece, keys, specs);
      ExpectSameBatch(got, want);
      got_parts.push_back(*got);
      want_parts.push_back(*want);
    }
    auto want_all = RecordBatch::Concat(want_parts);
    ASSERT_TRUE(want_all.ok());
    ExpectSameBatch(MergePartialAggregates(got_parts, keys, specs),
                    ReferenceMergePartials(*want_all, keys, specs,
                                           /*final_step=*/true));
  }
  // Nothing but empty partials: a global merge still returns its one row.
  RecordBatch empty = MakeBatch({}, 0, 1);
  auto agg = HashAggregator::Make(empty.schema(), {}, specs);
  ASSERT_TRUE(agg.ok());
  auto partial = agg->Finish(/*final_step=*/false);
  ASSERT_TRUE(partial.ok());
  auto merged = MergePartialAggregates({*partial, *partial}, {}, specs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectSameBatch(merged,
                  ReferenceMergePartials(*partial, {}, specs, true));
  EXPECT_EQ(merged->num_rows(), 1u);
}

// A Read API stream folds blocks whose key column is dictionary-encoded in
// one block and plain in the next: equal strings still form one group.
TEST_F(AggregateKernelTest, MixedKeyEncodingsShareGroups) {
  const std::vector<AggSpec> specs = AllSpecs();
  const std::vector<RecordBatch> blocks = {
      MakeBatch({Kind::kDict}, 5000, 31), MakeBatch({Kind::kString}, 3000, 32),
      MakeBatch({Kind::kDict}, 2, 33)};
  auto agg = HashAggregator::Make(blocks[0].schema(), {"k0"}, specs);
  ASSERT_TRUE(agg.ok());
  for (const RecordBatch& b : blocks) ASSERT_TRUE(agg->Add(b).ok());
  auto all = RecordBatch::Concat(blocks);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ExpectSameBatch(agg->Finish(/*final_step=*/false),
                  ReferenceAggregate(*all, {"k0"}, specs));
}

TEST_F(AggregateKernelTest, BadInputsAreErrors) {
  RecordBatch batch = MakeBatch({Kind::kInt64}, 10, 1);
  EXPECT_TRUE(HashAggregator::Make(batch.schema(), {"nope"}, AllSpecs())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(HashAggregator::Make(batch.schema(), {"k0"},
                                   {{AggOp::kSum, "nope", "s"}})
                  .status()
                  .IsNotFound());
  auto agg = HashAggregator::Make(batch.schema(), {"k0"}, AllSpecs());
  ASSERT_TRUE(agg.ok());
  EXPECT_FALSE(agg->Add(MakeBatch({Kind::kString}, 10, 1)).ok());
  EXPECT_FALSE(MergePartialAggregates({}, {}, {}).ok());
  auto partial_schema = MakeSchema({{"s", DataType::kString, true}});
  RecordBatch strings(partial_schema, {Column::MakeString({"x"})});
  EXPECT_FALSE(
      MergePartialAggregates({strings}, {}, {{AggOp::kSum, "x", "s"}}).ok());
}

}  // namespace
}  // namespace biglake
