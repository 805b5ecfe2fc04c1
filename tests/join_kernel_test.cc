// Typed hash-join kernel (ops::HashJoin) against a reference join.
//
// The reference is the encoded-key join the kernel replaced: every key is
// encoded to EncodeColumnValue bytes and looked up in an
// unordered_map<std::string, vector<row>>, with NULL keys excluded. The
// kernel must produce the same output bytes (SerializeBatch) on seeded
// random batches across key classes, encodings, selections, empty sides and
// pool widths — including probes spanning several 16 Ki-row chunks.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/batch.h"
#include "columnar/ipc.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/operators.h"

namespace biglake {
namespace {

// ---------------------------------------------------------------------------
// Reference join
// ---------------------------------------------------------------------------

std::vector<int> Resolve(const RecordBatch& b,
                         const std::vector<std::string>& names) {
  std::vector<int> out;
  for (const auto& n : names) out.push_back(b.schema()->FieldIndex(n));
  return out;
}

/// Encoded key of `row`, or false when any key column is NULL there.
bool RowKey(const RecordBatch& batch, const std::vector<int>& cols,
            uint32_t row, std::string* key) {
  key->clear();
  for (int c : cols) {
    const Column& col = batch.column(static_cast<size_t>(c));
    if (col.IsNull(row)) return false;
    EncodeColumnValue(key, col, row);
  }
  return true;
}

RecordBatch ReferenceJoin(const RecordBatch& build, const RecordBatch& probe,
                          const std::vector<std::string>& build_keys,
                          const std::vector<std::string>& probe_keys,
                          const std::vector<uint32_t>* build_sel = nullptr,
                          const std::vector<uint32_t>* probe_sel = nullptr) {
  std::vector<int> bcols = Resolve(build, build_keys);
  std::vector<int> pcols = Resolve(probe, probe_keys);
  auto rows = [](const RecordBatch& b, const std::vector<uint32_t>* sel) {
    std::vector<uint32_t> out;
    if (sel != nullptr) return *sel;
    for (size_t i = 0; i < b.num_rows(); ++i) {
      out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  };
  std::unordered_map<std::string, std::vector<uint32_t>> table;
  std::string key;
  for (uint32_t r : rows(build, build_sel)) {
    if (RowKey(build, bcols, r, &key)) table[key].push_back(r);
  }
  std::vector<uint32_t> build_rows, probe_rows;
  for (uint32_t r : rows(probe, probe_sel)) {
    if (!RowKey(probe, pcols, r, &key)) continue;
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (uint32_t b : it->second) {
      build_rows.push_back(b);
      probe_rows.push_back(r);
    }
  }
  RecordBatch bo = build.Gather(build_rows);
  RecordBatch po = probe.Gather(probe_rows);
  std::vector<Field> fields;
  std::vector<Column> cols;
  std::set<std::string> used;
  for (size_t c = 0; c < bo.num_columns(); ++c) {
    fields.push_back(bo.schema()->field(c));
    used.insert(fields.back().name);
    cols.push_back(bo.column(c));
  }
  for (size_t c = 0; c < po.num_columns(); ++c) {
    Field f = po.schema()->field(c);
    while (used.count(f.name) > 0) f.name += "_r";
    used.insert(f.name);
    fields.push_back(std::move(f));
    cols.push_back(po.column(c));
  }
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

// ---------------------------------------------------------------------------
// Seeded key columns
// ---------------------------------------------------------------------------

enum class Kind { kInt64, kTimestamp, kDouble, kBool, kString, kBytes, kDict,
                  kRle };

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

/// A key column of `kind` whose row i holds domain value codes[i]
/// (`null_pct` percent of rows NULL, except RLE, which has no validity).
Column MakeKey(Kind kind, const std::vector<size_t>& codes, Random* rng,
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
    case Kind::kDouble: {
      std::vector<double> v;
      for (size_t c : codes) {
        v.push_back(DoubleDomain()[c % DoubleDomain().size()]);
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
      // entry, so indices differ from codes.
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

DataType TypeOf(Kind kind) {
  switch (kind) {
    case Kind::kInt64: case Kind::kRle: return DataType::kInt64;
    case Kind::kTimestamp: return DataType::kTimestamp;
    case Kind::kDouble: return DataType::kDouble;
    case Kind::kBool: return DataType::kBool;
    case Kind::kString: case Kind::kDict: return DataType::kString;
    case Kind::kBytes: return DataType::kBytes;
  }
  return DataType::kInt64;
}

/// A batch of key columns k0.. of the given kinds plus a row-id payload and
/// a "tag" column present on both sides (the "_r" rename). RLE keys draw
/// codes in runs so their runs are longer than one row.
RecordBatch MakeSide(const std::vector<Kind>& kinds, size_t rows,
                     size_t domain, int null_pct, uint64_t seed) {
  Random rng(seed);
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::vector<size_t> codes(rows);
    size_t run_left = 0, code = 0;
    for (auto& c : codes) {
      if (kinds[k] == Kind::kRle) {
        if (run_left == 0) {
          code = rng.Uniform(domain);
          run_left = 1 + rng.Uniform(6);
        }
        --run_left;
        c = code;
      } else {
        c = rng.Uniform(domain);
      }
    }
    fields.push_back({"k" + std::to_string(k), TypeOf(kinds[k]), true});
    cols.push_back(MakeKey(kinds[k], codes, &rng, null_pct));
  }
  std::vector<int64_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = static_cast<int64_t>(i);
  fields.push_back({"row", DataType::kInt64, false});
  cols.push_back(Column::MakeInt64(ids));
  std::vector<std::string> tags(rows);
  for (size_t i = 0; i < rows; ++i) tags[i] = "t" + std::to_string(i % 5);
  fields.push_back({"tag", DataType::kString, true});
  cols.push_back(Column::MakeString(tags));
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

std::vector<std::string> KeyNames(size_t n) {
  std::vector<std::string> out;
  for (size_t k = 0; k < n; ++k) out.push_back("k" + std::to_string(k));
  return out;
}

std::vector<uint32_t> RandomSelection(size_t rows, uint64_t seed) {
  Random rng(seed);
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Uniform(3) != 0) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

/// Pools of 0, 1, 2 and 8 threads, plus no pool at all (the serial caller).
class JoinKernelTest : public ::testing::Test {
 protected:
  JoinKernelTest() {
    for (size_t t : {0, 1, 2, 8}) {
      pools_.push_back(std::make_unique<ThreadPool>(t));
    }
  }

  /// Kernel output equals the reference's bytes at every pool width;
  /// returns the joined row count.
  size_t ExpectMatchesReference(
      const RecordBatch& build, const RecordBatch& probe,
      const std::vector<std::string>& build_keys,
      const std::vector<std::string>& probe_keys,
      const std::vector<uint32_t>* build_sel = nullptr,
      const std::vector<uint32_t>* probe_sel = nullptr) {
    const std::string want = SerializeBatch(ReferenceJoin(
        build, probe, build_keys, probe_keys, build_sel, probe_sel));
    size_t rows = 0;
    std::vector<ThreadPool*> pools = {nullptr};
    for (const auto& p : pools_) pools.push_back(p.get());
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE(pool == nullptr
                       ? std::string("no pool")
                       : std::to_string(pool->num_threads()) + " threads");
      uint64_t matches = 0;
      auto got = ops::HashJoin(pool, build, probe, build_keys, probe_keys,
                               &matches, build_sel, probe_sel);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok()) return 0;
      EXPECT_EQ(matches, got->num_rows());
      EXPECT_EQ(SerializeBatch(*got), want);
      rows = got->num_rows();
    }
    return rows;
  }

  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

const std::vector<Kind>& AllKinds() {
  static const std::vector<Kind> k = {Kind::kInt64, Kind::kTimestamp,
                                      Kind::kDouble, Kind::kBool,
                                      Kind::kString, Kind::kBytes,
                                      Kind::kDict,   Kind::kRle};
  return k;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST_F(JoinKernelTest, SingleKeyEveryClassAndEncoding) {
  uint64_t seed = 1;
  for (Kind kind : AllKinds()) {
    SCOPED_TRACE(static_cast<int>(kind));
    RecordBatch build = MakeSide({kind}, 300, 8, 10, seed++);
    RecordBatch probe = MakeSide({kind}, 1000, 10, 10, seed++);
    EXPECT_GT(ExpectMatchesReference(build, probe, {"k0"}, {"k0"}), 0u);
  }
}

TEST_F(JoinKernelTest, CrossEncodingAndCrossTypeKeys) {
  // {build kind, probe kind}: INT64 joins TIMESTAMP and RLE, STRING joins
  // BYTES and dictionary strings; other class pairs never match.
  const std::vector<std::pair<Kind, Kind>> pairs = {
      {Kind::kInt64, Kind::kTimestamp}, {Kind::kTimestamp, Kind::kRle},
      {Kind::kRle, Kind::kInt64},       {Kind::kString, Kind::kDict},
      {Kind::kDict, Kind::kBytes},      {Kind::kDict, Kind::kDict},
      {Kind::kBytes, Kind::kString},    {Kind::kInt64, Kind::kDouble},
      {Kind::kBool, Kind::kInt64},      {Kind::kString, Kind::kInt64}};
  uint64_t seed = 100;
  for (const auto& [bk, pk] : pairs) {
    SCOPED_TRACE(std::to_string(static_cast<int>(bk)) + "/" +
                 std::to_string(static_cast<int>(pk)));
    RecordBatch build = MakeSide({bk}, 200, 8, 10, seed++);
    RecordBatch probe = MakeSide({pk}, 700, 8, 10, seed++);
    const size_t rows = ExpectMatchesReference(build, probe, {"k0"}, {"k0"});
    const DataType bt = TypeOf(bk), pt = TypeOf(pk);
    const bool same_class =
        (bt == DataType::kDouble) == (pt == DataType::kDouble) &&
        (bt == DataType::kBool) == (pt == DataType::kBool) &&
        IsStringPhysical(bt) == IsStringPhysical(pt);
    EXPECT_EQ(rows > 0, same_class);
  }
}

TEST_F(JoinKernelTest, MultiColumnKeys) {
  Random pick(7);
  for (uint64_t seed = 200; seed < 224; ++seed) {
    const size_t arity = 1 + seed % 3;
    std::vector<Kind> bkinds, pkinds;
    for (size_t k = 0; k < arity; ++k) {
      Kind kind = AllKinds()[pick.Uniform(AllKinds().size())];
      bkinds.push_back(kind);
      // Swap in an equal-class encoding on the probe side now and then.
      if (kind == Kind::kString && pick.Uniform(2) == 0) kind = Kind::kDict;
      if (kind == Kind::kInt64 && pick.Uniform(2) == 0) kind = Kind::kRle;
      pkinds.push_back(kind);
    }
    SCOPED_TRACE(seed);
    RecordBatch build = MakeSide(bkinds, 250, 4, 5, seed);
    RecordBatch probe = MakeSide(pkinds, 900, 4, 5, seed + 1000);
    ExpectMatchesReference(build, probe, KeyNames(arity), KeyNames(arity));
  }
}

TEST_F(JoinKernelTest, DoubleKeysCompareByBitPattern) {
  auto schema = MakeSchema({{"d", DataType::kDouble, true}});
  const double nan = std::nan("");
  RecordBatch build(schema, {Column::MakeDouble({0.0, nan, 1.5})});
  RecordBatch probe(schema,
                    {Column::MakeDouble({-0.0, 0.0, nan, 1.5, -1.5})});
  // 0.0 matches 0.0 but not -0.0; NaN matches the same NaN bit pattern.
  EXPECT_EQ(ExpectMatchesReference(build, probe, {"d"}, {"d"}), 3u);
}

TEST_F(JoinKernelTest, NullKeysNeverMatch) {
  auto schema = MakeSchema({{"a", DataType::kInt64, true},
                            {"b", DataType::kString, true}});
  RecordBatch build(
      schema, {Column::MakeInt64({0, 1, 0, 2}, {0, 1, 0, 1}),
               Column::MakeString({"x", "x", "y", "y"}, {1, 1, 1, 0})});
  RecordBatch probe(
      schema, {Column::MakeInt64({0, 1, 2, 0}, {0, 1, 1, 0}),
               Column::MakeString({"x", "x", "y", "y"}, {1, 1, 0, 0})});
  // Single key: only 1 = 1 (row 1 of each side) and 2 = 2.
  auto one = ops::HashJoin(nullptr, build, probe, {"a"}, {"a"});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_rows(), 2u);
  EXPECT_EQ(ExpectMatchesReference(build, probe, {"a"}, {"a"}), 2u);
  // Two keys: a NULL in either component excludes the row.
  EXPECT_EQ(ExpectMatchesReference(build, probe, {"a", "b"}, {"a", "b"}),
            1u);
  // Random batches with many NULLs on both sides.
  RecordBatch rb = MakeSide({Kind::kInt64, Kind::kDict}, 300, 3, 40, 301);
  RecordBatch rp = MakeSide({Kind::kTimestamp, Kind::kString}, 800, 3, 40, 302);
  ExpectMatchesReference(rb, rp, KeyNames(2), KeyNames(2));
}

TEST_F(JoinKernelTest, DuplicateBuildKeysKeepBuildRowOrder) {
  auto schema = MakeSchema({{"k", DataType::kInt64, false},
                            {"v", DataType::kInt64, false}});
  RecordBatch build(schema, {Column::MakeInt64({7, 3, 7, 7, 3}),
                             Column::MakeInt64({0, 1, 2, 3, 4})});
  RecordBatch probe(schema, {Column::MakeInt64({3, 9, 7}),
                             Column::MakeInt64({10, 11, 12})});
  auto got = ops::HashJoin(nullptr, build, probe, {"k"}, {"k"});
  ASSERT_TRUE(got.ok());
  // Probe-row order; within a probe row, build-row order.
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {1, 10}, {4, 10}, {0, 12}, {2, 12}, {3, 12}};
  ASSERT_EQ(got->num_rows(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got->GetValue(i, 1).int64_value(), want[i].first);
    EXPECT_EQ(got->GetValue(i, 3).int64_value(), want[i].second);
  }
  EXPECT_EQ(got->schema()->field(3).name, "v_r");
  ExpectMatchesReference(build, probe, {"k"}, {"k"});
}

TEST_F(JoinKernelTest, SelectionsOnEitherSide) {
  for (uint64_t seed = 400; seed < 406; ++seed) {
    SCOPED_TRACE(seed);
    RecordBatch build = MakeSide({Kind::kInt64, Kind::kString}, 400, 5, 10,
                                 seed);
    RecordBatch probe = MakeSide({Kind::kRle, Kind::kDict}, 1500, 5, 10,
                                 seed + 50);
    std::vector<uint32_t> bsel = RandomSelection(400, seed + 1);
    std::vector<uint32_t> psel = RandomSelection(1500, seed + 2);
    ExpectMatchesReference(build, probe, KeyNames(2), KeyNames(2), &bsel,
                           nullptr);
    ExpectMatchesReference(build, probe, KeyNames(2), KeyNames(2), nullptr,
                           &psel);
    ExpectMatchesReference(build, probe, KeyNames(2), KeyNames(2), &bsel,
                           &psel);
  }
}

TEST_F(JoinKernelTest, EmptySides) {
  RecordBatch some = MakeSide({Kind::kInt64}, 50, 4, 0, 500);
  RecordBatch none = some.Slice(0, 0);
  const std::vector<uint32_t> empty_sel;
  EXPECT_EQ(ExpectMatchesReference(none, some, {"k0"}, {"k0"}), 0u);
  EXPECT_EQ(ExpectMatchesReference(some, none, {"k0"}, {"k0"}), 0u);
  EXPECT_EQ(ExpectMatchesReference(none, none, {"k0"}, {"k0"}), 0u);
  EXPECT_EQ(ExpectMatchesReference(some, some, {"k0"}, {"k0"}, &empty_sel,
                                   nullptr),
            0u);
  EXPECT_EQ(ExpectMatchesReference(some, some, {"k0"}, {"k0"}, nullptr,
                                   &empty_sel),
            0u);
  auto got = ops::HashJoin(nullptr, none, some, {"k0"}, {"k0"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_columns(), 2 * some.num_columns());
}

TEST_F(JoinKernelTest, ProbeAcrossManyChunks) {
  // 40k probe rows = three 16 Ki-row chunks (the last one partial), with
  // duplicate build keys so chunk match lists have uneven lengths.
  RecordBatch build = MakeSide({Kind::kInt64}, 20, 8, 5, 600);
  RecordBatch probe = MakeSide({Kind::kInt64}, 40000, 8, 5, 601);
  EXPECT_GT(ExpectMatchesReference(build, probe, {"k0"}, {"k0"}), 40000u);
  RecordBatch sbuild = MakeSide({Kind::kDict, Kind::kBool}, 30, 6, 5, 602);
  RecordBatch sprobe = MakeSide({Kind::kString, Kind::kBool}, 40000, 6, 5,
                                603);
  std::vector<uint32_t> psel = RandomSelection(40000, 604);
  ExpectMatchesReference(sbuild, sprobe, KeyNames(2), KeyNames(2), nullptr,
                         &psel);
}

TEST_F(JoinKernelTest, SlicedInputs) {
  RecordBatch build = MakeSide({Kind::kDict, Kind::kInt64}, 600, 5, 10, 700);
  RecordBatch probe = MakeSide({Kind::kBytes, Kind::kRle}, 2000, 5, 10, 701);
  ExpectMatchesReference(build.Slice(37, 400), probe.Slice(501, 1200),
                         KeyNames(2), KeyNames(2));
}

TEST_F(JoinKernelTest, BadKeysAreErrors) {
  RecordBatch side = MakeSide({Kind::kInt64}, 10, 4, 0, 800);
  EXPECT_FALSE(ops::HashJoin(nullptr, side, side, {"k0"}, {}).ok());
  EXPECT_FALSE(ops::HashJoin(nullptr, side, side, {}, {}).ok());
  auto missing = ops::HashJoin(nullptr, side, side, {"k0"}, {"nope"});
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

}  // namespace
}  // namespace biglake
