#include <gtest/gtest.h>

#include "columnar/batch.h"
#include "columnar/buffer.h"
#include "columnar/column.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/types.h"
#include "common/random.h"

namespace biglake {
namespace {

TEST(ValueTest, NullOrdering) {
  EXPECT_TRUE(Value::Null() < Value::Int64(0));
  EXPECT_TRUE(Value::Null() == Value::Null());
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_TRUE(Value::Int64(2) < Value::Double(2.5));
  EXPECT_TRUE(Value::Double(1.5) < Value::Int64(2));
  EXPECT_TRUE(Value::Int64(3) == Value::Int64(3));
  EXPECT_FALSE(Value::Int64(3) == Value::Int64(4));
}

TEST(ValueTest, StringCompare) {
  EXPECT_TRUE(Value::String("apple") < Value::String("banana"));
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
}

TEST(SchemaTest, FieldLookupAndProjection) {
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"name", DataType::kString, true},
                            {"price", DataType::kDouble, true}});
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(schema->FieldIndex("name"), 1);
  EXPECT_EQ(schema->FieldIndex("missing"), -1);
  auto projected = schema->Project({"price", "id"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ((*projected)->num_fields(), 2u);
  EXPECT_EQ((*projected)->field(0).name, "price");
  EXPECT_FALSE(schema->Project({"nope"}).ok());
}

TEST(ColumnTest, PlainInt64) {
  Column c = Column::MakeInt64({1, 2, 3});
  EXPECT_EQ(c.length(), 3u);
  EXPECT_EQ(c.NullCount(), 0u);
  EXPECT_EQ(c.GetValue(1), Value::Int64(2));
}

TEST(ColumnTest, ValidityAndNulls) {
  Column c = Column::MakeInt64({1, 0, 3}, {1, 0, 1});
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, DictionaryDecode) {
  Column c = Column::MakeDictionaryString({0, 1, 0, 2},
                                          {"red", "green", "blue"});
  EXPECT_EQ(c.encoding(), Encoding::kDictionary);
  EXPECT_EQ(c.length(), 4u);
  EXPECT_EQ(c.GetValue(2), Value::String("red"));
  Column plain = c.Decode();
  EXPECT_EQ(plain.encoding(), Encoding::kPlain);
  EXPECT_EQ(plain.GetValue(3), Value::String("blue"));
}

TEST(ColumnTest, RunLengthDecode) {
  Column c = Column::MakeRunLengthInt64({7, 8}, {3, 2});
  EXPECT_EQ(c.length(), 5u);
  EXPECT_EQ(c.GetValue(0), Value::Int64(7));
  EXPECT_EQ(c.GetValue(2), Value::Int64(7));
  EXPECT_EQ(c.GetValue(3), Value::Int64(8));
  Column plain = c.Decode();
  EXPECT_EQ(plain.int64_data(),
            (std::vector<int64_t>{7, 7, 7, 8, 8}));
}

TEST(ColumnTest, GatherPreservesDictionary) {
  Column c = Column::MakeDictionaryString({0, 1, 2, 1}, {"a", "b", "c"});
  Column g = c.Gather({3, 0});
  EXPECT_EQ(g.encoding(), Encoding::kDictionary);
  EXPECT_EQ(g.length(), 2u);
  EXPECT_EQ(g.GetValue(0), Value::String("b"));
  EXPECT_EQ(g.GetValue(1), Value::String("a"));
}

TEST(ColumnTest, GatherRle) {
  Column c = Column::MakeRunLengthInt64({5, 6}, {2, 2});
  Column g = c.Gather({0, 3});
  EXPECT_EQ(g.GetValue(0), Value::Int64(5));
  EXPECT_EQ(g.GetValue(1), Value::Int64(6));
}

TEST(ColumnTest, SliceAndConcat) {
  Column c = Column::MakeInt64({1, 2, 3, 4, 5});
  Column s = c.Slice(1, 3);
  EXPECT_EQ(s.length(), 3u);
  EXPECT_EQ(s.GetValue(0), Value::Int64(2));
  auto merged = Column::Concat({s, s});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->length(), 6u);
  EXPECT_EQ(merged->GetValue(5), Value::Int64(4));
}

TEST(ColumnTest, ConcatTypeMismatchFails) {
  auto r = Column::Concat(
      {Column::MakeInt64({1}), Column::MakeDouble({1.0})});
  EXPECT_FALSE(r.ok());
}

// Every row's boxed value, for comparing concatenations by value.
std::vector<Value> Values(const Column& c) {
  std::vector<Value> out;
  for (size_t i = 0; i < c.length(); ++i) out.push_back(c.GetValue(i));
  return out;
}

// Each piece decoded to plain, then the values of the contributing rows in
// order: what any concatenation must hold.
std::vector<Value> DecodedConcat(
    const std::vector<Column>& pieces,
    const std::vector<const std::vector<uint32_t>*>& rows = {}) {
  std::vector<Value> out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    const Column plain = pieces[i].Decode();
    const std::vector<uint32_t>* ids = rows.empty() ? nullptr : rows[i];
    for (size_t j = 0; j < (ids != nullptr ? ids->size() : plain.length());
         ++j) {
      out.push_back(plain.GetValue(ids != nullptr ? (*ids)[j] : j));
    }
  }
  return out;
}

TEST(ColumnTest, ConcatKeepsADictionaryEveryPieceShares) {
  // 6 rows over 3 entries, rows 1 and 4 NULL; slices of one column share
  // one dictionary view.
  Column dict = Column::MakeDictionaryString(
      {0, 1, 2, 1, 0, 2}, {"north", "south", "east"}, {1, 0, 1, 1, 0, 1});
  const std::vector<Column> slices = {dict.Slice(0, 2), dict.Slice(2, 3),
                                      dict.Slice(5, 1)};
  BufferPool pool;
  ScopedBufferPool scope(&pool);
  auto merged = Column::Concat(slices);
  const BufferPool::Stats copied = pool.snapshot();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->encoding(), Encoding::kDictionary);
  EXPECT_TRUE(merged->dictionary().SharesStorageWith(dict.dictionary()));
  EXPECT_EQ(Values(*merged), DecodedConcat(slices));
  EXPECT_EQ(merged->NullCount(), 2u);
  // Only codes and validity were copied: 6 x 4 bytes + 6 bytes.
  EXPECT_EQ(copied.bytes_copied, 6u * 4 + 6);
  EXPECT_EQ(copied.string_arenas, 0u);

  // Gathers of one dictionary share it too, and ConcatRows gathers on the
  // way without a separate copy.
  const std::vector<uint32_t> odd = {1, 3, 5};
  const std::vector<Column> gathered = {dict.Gather({5, 0}), dict};
  auto picked = Column::ConcatRows(gathered, {nullptr, &odd});
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked->encoding(), Encoding::kDictionary);
  EXPECT_EQ(Values(*picked), DecodedConcat(gathered, {nullptr, &odd}));
}

TEST(ColumnTest, ConcatDecodesPiecesWithDifferentDictionaries) {
  Column a = Column::MakeDictionaryString({0, 1, 0}, {"x", "y"}, {1, 1, 0});
  Column b = Column::MakeDictionaryString({1, 0}, {"x", "z"});
  Column plain = Column::MakeString({"p", "", "q"}, {1, 0, 1});
  // Equal entries in another arena are a different dictionary.
  Column a_copy = Column::MakeDictionaryString({1}, {"x", "y"});
  for (const std::vector<Column>& pieces :
       {std::vector<Column>{a, b}, std::vector<Column>{a, plain, b},
        std::vector<Column>{a, a_copy}}) {
    auto merged = Column::Concat(pieces);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->encoding(), Encoding::kPlain);
    EXPECT_EQ(Values(*merged), DecodedConcat(pieces));
  }
}

TEST(ColumnTest, ConcatRowsMatchesGatherThenConcat) {
  Random rng(7);
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> valid;
  std::vector<std::string> strs;
  for (int i = 0; i < 300; ++i) {
    ints.push_back(static_cast<int64_t>(rng.Uniform(1000)));
    doubles.push_back(rng.NextDouble());
    valid.push_back(rng.Uniform(5) != 0);
    strs.push_back("s" + std::to_string(rng.Uniform(40)));
  }
  const std::vector<Column> kinds = {
      Column::MakeInt64(ints, valid), Column::MakeDouble(doubles, valid),
      Column::MakeString(strs, valid),
      Column::MakeRunLengthInt64({4, 9, 4, 1}, {100, 50, 125, 25})};
  std::vector<uint32_t> sel_a, sel_b;
  for (uint32_t r = 0; r < 100; r += 3) sel_a.push_back(r);
  for (uint32_t r = 1; r < 150; r += 7) sel_b.push_back(r);
  for (const Column& c : kinds) {
    SCOPED_TRACE(DataTypeName(c.type()));
    const std::vector<Column> pieces = {c.Slice(0, 100), c.Slice(100, 50),
                                        c.Slice(150, 150)};
    const std::vector<const std::vector<uint32_t>*> rows = {&sel_a, nullptr,
                                                            &sel_b};
    auto got = Column::ConcatRows(pieces, rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = Column::Concat({pieces[0].Gather(sel_a), pieces[1],
                                pieces[2].Gather(sel_b)});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Values(*got), Values(*want));
    EXPECT_EQ(Values(*got), DecodedConcat(pieces, rows));
    EXPECT_EQ(SerializeBatch(RecordBatch(
                  MakeSchema({{"c", c.type(), true}}), {*got})),
              SerializeBatch(RecordBatch(
                  MakeSchema({{"c", c.type(), true}}), {*want})));

    // The same job copied in piece ranges, in any order, is the same column.
    auto job = Column::ConcatJob::Make(pieces, rows);
    ASSERT_TRUE(job.ok());
    job->Measure(2, 3);
    job->Measure(0, 2);
    job->Allocate();
    job->Size();
    job->Fill(1, 3);
    job->Fill(0, 1);
    Column split = job->Finish();
    EXPECT_EQ(SerializeBatch(RecordBatch(
                  MakeSchema({{"c", c.type(), true}}), {split})),
              SerializeBatch(RecordBatch(
                  MakeSchema({{"c", c.type(), true}}), {*got})));
  }
}

TEST(ColumnBuilderTest, MixedNulls) {
  ColumnBuilder b(DataType::kString);
  b.AppendString("x");
  b.AppendNull();
  b.AppendString("y");
  Column c = b.Finish();
  EXPECT_EQ(c.length(), 3u);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.GetValue(2), Value::String("y"));
}

TEST(ColumnBuilderTest, AppendValueTypeChecked) {
  ColumnBuilder b(DataType::kInt64);
  EXPECT_TRUE(b.AppendValue(Value::Int64(1)).ok());
  EXPECT_FALSE(b.AppendValue(Value::String("no")).ok());
  EXPECT_TRUE(b.AppendValue(Value::Null()).ok());
}

RecordBatch TestBatch() {
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"region", DataType::kString, true},
                            {"amount", DataType::kDouble, true}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64({1, 2, 3, 4}));
  cols.push_back(Column::MakeDictionaryString({0, 1, 0, 2},
                                              {"east", "west", "north"}));
  cols.push_back(Column::MakeDouble({10.0, 20.0, 30.0, 40.0}));
  return RecordBatch(schema, std::move(cols));
}

TEST(RecordBatchTest, BasicAccess) {
  RecordBatch b = TestBatch();
  EXPECT_EQ(b.num_rows(), 4u);
  EXPECT_EQ(b.num_columns(), 3u);
  EXPECT_EQ(b.GetValue(1, 1), Value::String("west"));
  auto col = b.ColumnByName("amount");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->GetValue(3), Value::Double(40.0));
  EXPECT_FALSE(b.ColumnByName("missing").ok());
}

TEST(RecordBatchTest, MakeValidatesShape) {
  auto schema = MakeSchema({{"a", DataType::kInt64, true}});
  EXPECT_FALSE(
      RecordBatch::Make(schema, {Column::MakeDouble({1.0})}).ok());
  EXPECT_FALSE(RecordBatch::Make(schema, {}).ok());
  EXPECT_TRUE(RecordBatch::Make(schema, {Column::MakeInt64({1})}).ok());
}

TEST(RecordBatchTest, ProjectFilterSlice) {
  RecordBatch b = TestBatch();
  auto p = b.Project({"amount", "id"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2u);
  EXPECT_EQ(p->schema()->field(0).name, "amount");

  RecordBatch f = b.Filter({1, 0, 0, 1});
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.GetValue(1, 0), Value::Int64(4));

  RecordBatch s = b.Slice(2, 2);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.GetValue(0, 0), Value::Int64(3));
}

TEST(RecordBatchTest, Concat) {
  RecordBatch b = TestBatch();
  auto merged = RecordBatch::Concat({b, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 8u);
  EXPECT_EQ(merged->GetValue(5, 1), Value::String("west"));
}

TEST(BatchBuilderTest, RowAppend) {
  auto schema = MakeSchema({{"k", DataType::kInt64, true},
                            {"v", DataType::kString, true}});
  BatchBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2), Value::Null()}).ok());
  EXPECT_FALSE(b.AppendRow({Value::Int64(3)}).ok());  // wrong arity
  RecordBatch batch = b.Finish();
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_TRUE(batch.GetValue(1, 1).is_null());
}

// ---- Expressions -----------------------------------------------------------

// The expression cases run through the kernels (columnar/kernels.h), the
// system's one evaluator.
std::vector<uint8_t> KernelMask(const ExprPtr& e, const RecordBatch& b) {
  auto r = kernels::EvaluatePredicate(*e, b);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? kernels::BoolVecToMask(*r) : std::vector<uint8_t>();
}

TEST(ExprTest, CompareInt64Literal) {
  RecordBatch b = TestBatch();
  auto e = Expr::Gt(Expr::Col("id"), Expr::Lit(Value::Int64(2)));
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{0, 0, 1, 1}));
}

TEST(ExprTest, CompareDictStringDirect) {
  RecordBatch b = TestBatch();
  auto e = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{1, 0, 1, 0}));
}

TEST(ExprTest, CompareDoubleLiteral) {
  RecordBatch b = TestBatch();
  auto e = Expr::Le(Expr::Col("amount"), Expr::Lit(Value::Double(20.0)));
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{1, 1, 0, 0}));
}

TEST(ExprTest, RleCompareDirect) {
  auto schema = MakeSchema({{"part", DataType::kInt64, true}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeRunLengthInt64({1, 2, 3}, {2, 2, 2}));
  RecordBatch b(schema, std::move(cols));
  auto e = Expr::Eq(Expr::Col("part"), Expr::Lit(Value::Int64(2)));
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{0, 0, 1, 1, 0, 0}));
}

TEST(ExprTest, LogicalAndOrNot) {
  RecordBatch b = TestBatch();
  auto e = Expr::And(
      Expr::Gt(Expr::Col("id"), Expr::Lit(Value::Int64(1))),
      Expr::Or(Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west"))),
               Expr::Ge(Expr::Col("amount"), Expr::Lit(Value::Double(40.0)))));
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{0, 1, 0, 1}));

  auto n = Expr::Not(Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(3))));
  EXPECT_EQ(KernelMask(n, b), (std::vector<uint8_t>{0, 0, 1, 1}));
}

TEST(ExprTest, NullComparisonsExcludedFromMask) {
  auto schema = MakeSchema({{"x", DataType::kInt64, true}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64({1, 0, 3}, {1, 0, 1}));
  RecordBatch b(schema, std::move(cols));
  auto e = Expr::Gt(Expr::Col("x"), Expr::Lit(Value::Int64(0)));
  // Row 1 is NULL -> excluded, not true.
  EXPECT_EQ(KernelMask(e, b), (std::vector<uint8_t>{1, 0, 1}));
}

TEST(ExprTest, Arithmetic) {
  RecordBatch b = TestBatch();
  auto e = Expr::Arith(ArithOp::kMul, Expr::Col("id"),
                       Expr::Lit(Value::Int64(10)));
  auto r = kernels::EvaluateColumn(*e, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(2), Value::Int64(30));

  auto d = Expr::Arith(ArithOp::kDiv, Expr::Col("amount"),
                       Expr::Lit(Value::Double(2.0)));
  auto rd = kernels::EvaluateColumn(*d, b);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->GetValue(1), Value::Double(10.0));
}

TEST(ExprTest, DivisionByZeroIsNull) {
  RecordBatch b = TestBatch();
  auto e = Expr::Arith(ArithOp::kDiv, Expr::Col("amount"),
                       Expr::Lit(Value::Double(0.0)));
  auto r = kernels::EvaluateColumn(*e, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->GetValue(0).is_null());
}

TEST(ExprTest, IsNullAndInList) {
  auto schema = MakeSchema({{"x", DataType::kInt64, true}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64({1, 0, 3}, {1, 0, 1}));
  RecordBatch b(schema, std::move(cols));

  EXPECT_EQ(KernelMask(Expr::IsNull(Expr::Col("x")), b),
            (std::vector<uint8_t>{0, 1, 0}));
  EXPECT_EQ(KernelMask(Expr::InList(Expr::Col("x"),
                                    {Value::Int64(1), Value::Int64(3)}),
                       b),
            (std::vector<uint8_t>{1, 0, 1}));
}

TEST(ExprTest, CollectColumns) {
  auto e = Expr::And(
      Expr::Gt(Expr::Col("a"), Expr::Lit(Value::Int64(0))),
      Expr::Eq(Expr::Col("b"), Expr::Col("c")));
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b", "c"}));
}

TEST(ExprTest, ResultTypes) {
  auto schema = MakeSchema({{"i", DataType::kInt64, true},
                            {"d", DataType::kDouble, true}});
  EXPECT_EQ(*Expr::Col("i")->ResultType(*schema), DataType::kInt64);
  EXPECT_EQ(*Expr::Gt(Expr::Col("i"), Expr::Lit(Value::Int64(0)))
                 ->ResultType(*schema),
            DataType::kBool);
  EXPECT_EQ(*Expr::Arith(ArithOp::kAdd, Expr::Col("i"), Expr::Col("d"))
                 ->ResultType(*schema),
            DataType::kDouble);
  EXPECT_FALSE(Expr::Col("zzz")->ResultType(*schema).ok());
}

TEST(ExprTest, ToStringRenders) {
  auto e = Expr::And(Expr::Gt(Expr::Col("x"), Expr::Lit(Value::Int64(5))),
                     Expr::IsNull(Expr::Col("y")));
  EXPECT_EQ(e->ToString(), "((x > 5) AND y IS NULL)");
}

// ---- Statistics & pruning --------------------------------------------------

TEST(StatsTest, ComputeColumnStats) {
  Column c = Column::MakeInt64({5, 1, 9, 1}, {1, 1, 1, 0});
  ColumnStats s = ComputeColumnStats(c);
  EXPECT_EQ(s.min, Value::Int64(1));
  EXPECT_EQ(s.max, Value::Int64(9));
  EXPECT_EQ(s.null_count, 1u);
  EXPECT_EQ(s.row_count, 4u);
  EXPECT_EQ(s.distinct_count, 3u);
}

class PruneTest : public ::testing::Test {
 protected:
  PruneTest() {
    stats_["x"] = ColumnStats{Value::Int64(10), Value::Int64(20), 0, 100, 10};
    stats_["s"] = ColumnStats{Value::String("bb"), Value::String("dd"), 0,
                              100, 5};
  }
  PruneResult Prune(const ExprPtr& e) {
    return e->EvaluatePrune([this](const std::string& name) {
      auto it = stats_.find(name);
      return it == stats_.end() ? nullptr : &it->second;
    });
  }
  std::map<std::string, ColumnStats> stats_;
};

TEST_F(PruneTest, EqOutsideRangePrunes) {
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("x"), Expr::Lit(Value::Int64(5)))),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("x"), Expr::Lit(Value::Int64(25)))),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("x"), Expr::Lit(Value::Int64(15)))),
            PruneResult::kMayMatch);
}

TEST_F(PruneTest, RangePredicates) {
  EXPECT_EQ(Prune(Expr::Lt(Expr::Col("x"), Expr::Lit(Value::Int64(10)))),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Le(Expr::Col("x"), Expr::Lit(Value::Int64(10)))),
            PruneResult::kMayMatch);
  EXPECT_EQ(Prune(Expr::Gt(Expr::Col("x"), Expr::Lit(Value::Int64(20)))),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Ge(Expr::Col("x"), Expr::Lit(Value::Int64(20)))),
            PruneResult::kMayMatch);
}

TEST_F(PruneTest, MirroredLiteralOnLeft) {
  // 25 < x  <=>  x > 25: max is 20, prune.
  EXPECT_EQ(Prune(Expr::Lt(Expr::Lit(Value::Int64(25)), Expr::Col("x"))),
            PruneResult::kCannotMatch);
  // 15 < x: may match.
  EXPECT_EQ(Prune(Expr::Lt(Expr::Lit(Value::Int64(15)), Expr::Col("x"))),
            PruneResult::kMayMatch);
}

TEST_F(PruneTest, StringRangePrunes) {
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("s"), Expr::Lit(Value::String("aa")))),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("s"), Expr::Lit(Value::String("cc")))),
            PruneResult::kMayMatch);
}

TEST_F(PruneTest, ConjunctionPrunesIfEitherSidePrunes) {
  auto hit = Expr::Eq(Expr::Col("x"), Expr::Lit(Value::Int64(15)));
  auto miss = Expr::Eq(Expr::Col("x"), Expr::Lit(Value::Int64(5)));
  EXPECT_EQ(Prune(Expr::And(hit, miss)), PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::And(hit, hit)), PruneResult::kMayMatch);
  EXPECT_EQ(Prune(Expr::Or(miss, miss)), PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::Or(hit, miss)), PruneResult::kMayMatch);
}

TEST_F(PruneTest, UnknownColumnNeverPrunes) {
  EXPECT_EQ(Prune(Expr::Eq(Expr::Col("unknown"), Expr::Lit(Value::Int64(1)))),
            PruneResult::kMayMatch);
}

TEST_F(PruneTest, InListPrunes) {
  EXPECT_EQ(Prune(Expr::InList(Expr::Col("x"),
                               {Value::Int64(1), Value::Int64(2)})),
            PruneResult::kCannotMatch);
  EXPECT_EQ(Prune(Expr::InList(Expr::Col("x"),
                               {Value::Int64(1), Value::Int64(12)})),
            PruneResult::kMayMatch);
}

// ---- IPC -------------------------------------------------------------------

TEST(IpcTest, ValueRoundTrip) {
  std::vector<Value> values = {Value::Null(), Value::Bool(true),
                               Value::Int64(-42), Value::Double(2.5),
                               Value::String("hello")};
  std::string buf;
  for (const auto& v : values) EncodeValue(&buf, v);
  Decoder dec(buf);
  for (const auto& expected : values) {
    Value v;
    ASSERT_TRUE(DecodeValue(&dec, &v).ok());
    EXPECT_TRUE(v == expected);
  }
}

TEST(IpcTest, SchemaRoundTrip) {
  auto schema = MakeSchema({{"a", DataType::kInt64, false},
                            {"b", DataType::kString, true},
                            {"t", DataType::kTimestamp, true}});
  std::string buf;
  EncodeSchema(&buf, *schema);
  Decoder dec(buf);
  auto decoded = DecodeSchema(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)->Equals(*schema));
}

TEST(IpcTest, StatsRoundTrip) {
  ColumnStats s{Value::Int64(1), Value::Int64(100), 5, 1000, 42};
  std::string buf;
  EncodeColumnStats(&buf, s);
  Decoder dec(buf);
  ColumnStats out;
  ASSERT_TRUE(DecodeColumnStats(&dec, &out).ok());
  EXPECT_EQ(out.min, s.min);
  EXPECT_EQ(out.max, s.max);
  EXPECT_EQ(out.null_count, 5u);
  EXPECT_EQ(out.row_count, 1000u);
  EXPECT_EQ(out.distinct_count, 42u);
}

TEST(IpcTest, BatchRoundTripPreservesEncodings) {
  RecordBatch b = TestBatch();
  std::string wire = SerializeBatch(b);
  auto decoded = DeserializeBatch(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), b.num_rows());
  EXPECT_EQ(decoded->column(1).encoding(), Encoding::kDictionary);
  for (size_t r = 0; r < b.num_rows(); ++r) {
    for (size_t c = 0; c < b.num_columns(); ++c) {
      EXPECT_TRUE(decoded->GetValue(r, c) == b.GetValue(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(IpcTest, BatchWithNullsRoundTrip) {
  auto schema = MakeSchema({{"x", DataType::kInt64, true},
                            {"s", DataType::kString, true}});
  BatchBuilder builder(schema);
  ASSERT_TRUE(builder.AppendRow({Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE(builder.AppendRow({Value::Null(), Value::String("q")}).ok());
  RecordBatch b = builder.Finish();
  auto decoded = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->GetValue(0, 1).is_null());
  EXPECT_TRUE(decoded->GetValue(1, 0).is_null());
  EXPECT_EQ(decoded->GetValue(1, 1), Value::String("q"));
}

TEST(IpcTest, CorruptionDetected) {
  RecordBatch b = TestBatch();
  std::string wire = SerializeBatch(b);
  wire[wire.size() / 2] ^= 0x5a;
  auto decoded = DeserializeBatch(wire);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(IpcTest, BadMagicDetected) {
  std::string junk = "NOTABATCHxxxxxxxxxxxxxxxx";
  EXPECT_FALSE(DeserializeBatch(junk).ok());
}

TEST(IpcTest, RleColumnRoundTrip) {
  auto schema = MakeSchema({{"p", DataType::kInt64, true}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeRunLengthInt64({-3, 1000}, {4, 3}));
  RecordBatch b(schema, std::move(cols));
  auto decoded = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->column(0).encoding(), Encoding::kRunLength);
  EXPECT_EQ(decoded->GetValue(0, 0), Value::Int64(-3));
  EXPECT_EQ(decoded->GetValue(6, 0), Value::Int64(1000));
}

// Property-style sweep: random batches of every type survive IPC.
class IpcPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IpcPropertyTest, RandomBatchRoundTrip) {
  Random rng(GetParam());
  auto schema = MakeSchema({{"i", DataType::kInt64, true},
                            {"d", DataType::kDouble, true},
                            {"s", DataType::kString, true},
                            {"b", DataType::kBool, true},
                            {"t", DataType::kTimestamp, true}});
  BatchBuilder builder(schema);
  size_t rows = 1 + rng.Uniform(200);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(rng.OneIn(10) ? Value::Null()
                                : Value::Int64(static_cast<int64_t>(
                                      rng.Next())));
    row.push_back(rng.OneIn(10) ? Value::Null()
                                : Value::Double(rng.NextDouble() * 1e6));
    row.push_back(rng.OneIn(10) ? Value::Null()
                                : Value::String(rng.NextString(
                                      rng.Uniform(20))));
    row.push_back(rng.OneIn(10) ? Value::Null() : Value::Bool(rng.OneIn(2)));
    row.push_back(rng.OneIn(10)
                      ? Value::Null()
                      : Value::Timestamp(static_cast<int64_t>(
                            rng.Uniform(1'700'000'000'000'000ull))));
    ASSERT_TRUE(builder.AppendRow(row).ok());
  }
  RecordBatch b = builder.Finish();
  auto decoded = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_rows(), b.num_rows());
  for (size_t r = 0; r < b.num_rows(); ++r) {
    for (size_t c = 0; c < b.num_columns(); ++c) {
      ASSERT_TRUE(decoded->GetValue(r, c) == b.GetValue(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpcPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace biglake
