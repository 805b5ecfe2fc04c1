// Expression kernels: the system's one evaluator must be value-space
// identical to the boxed reference evaluator (reference_eval.h) for every
// expression shape — typed fast paths, encoded-data fast paths and the
// generic path — and the deferred-selection engine pipeline must return the
// rows the reference selects, at any worker count.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/selection.h"
#include "common/random.h"
#include "core/blmt.h"
#include "engine/engine.h"
#include "lakehouse_fixture.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "reference_eval.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

// ---------------------------------------------------------------------------
// Kernel-vs-reference mask equality
// ---------------------------------------------------------------------------

// One batch exercising every kernel fast path: plain int64 (with and
// without nulls), double, string, bool, dictionary strings, and RLE int64.
RecordBatch MixedBatch() {
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"qty", DataType::kInt64, true},
                            {"price", DataType::kDouble, true},
                            {"name", DataType::kString, true},
                            {"flag", DataType::kBool, true},
                            {"region", DataType::kString, true},
                            {"bucket", DataType::kInt64, false}});
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  cols.push_back(Column::MakeInt64({5, 0, 3, 9, 0, 2, 7, 1, 0, 4, 6, 8},
                                   {1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}));
  cols.push_back(Column::MakeDouble(
      {1.5, 2.0, 0.0, -3.5, 4.25, 0.0, 6.5, 7.0, 8.5, 0.0, 10.5, 11.0},
      {1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1}));
  cols.push_back(Column::MakeString(
      {"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibex", "jay",
       "kit", "lark"},
      {1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1}));
  cols.push_back(Column::MakeBool({1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0},
                                  {1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1}));
  cols.push_back(Column::MakeDictionaryString(
      {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, {"east", "west", "north"},
      {1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1}));
  cols.push_back(
      Column::MakeRunLengthInt64({100, 200, 300}, {5, 4, 3}));
  return RecordBatch(schema, std::move(cols));
}

// Asserts the kernel result is value-space identical to the reference
// evaluator: same null lanes, same boolean values on valid lanes, and the
// canonical BoolVec invariant (null lanes carry data 0).
void ExpectKernelMatchesReference(const ExprPtr& e, const RecordBatch& batch) {
  SCOPED_TRACE(e->ToString());
  auto ref = ReferencePredicate(*e, batch);
  auto kern = kernels::EvaluatePredicate(*e, batch);
  ASSERT_EQ(ref.ok(), kern.ok())
      << "reference: " << ref.status().ToString()
      << " kernel: " << kern.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().code(), kern.status().code());
    return;
  }
  ASSERT_EQ(kern->size(), batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    Value lv = ref->GetValue(i);
    EXPECT_EQ(lv.is_null(), kern->IsNull(i)) << "row " << i;
    if (!lv.is_null()) {
      EXPECT_EQ(lv.bool_value() ? 1 : 0, kern->data[i]) << "row " << i;
    } else {
      EXPECT_EQ(kern->data[i], 0) << "null lane must carry 0, row " << i;
    }
  }
}

// Asserts a projection through the kernels is byte-identical to the
// reference evaluator's column (same type, values, NULL-lane data and
// validity-buffer presence).
void ExpectColumnMatchesReference(const ExprPtr& e, const RecordBatch& batch) {
  SCOPED_TRACE(e->ToString());
  auto ref = ReferenceEvaluate(*e, batch);
  auto kern = kernels::EvaluateColumn(*e, batch);
  ASSERT_EQ(ref.ok(), kern.ok())
      << "reference: " << ref.status().ToString()
      << " kernel: " << kern.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().code(), kern.status().code());
    return;
  }
  auto one = [](const Column& c) {
    return SerializeBatch(
        RecordBatch(MakeSchema({{"c", c.type(), true}}), {c}));
  };
  EXPECT_EQ(one(*kern), one(*ref));
  EXPECT_EQ(kern->has_validity(), ref->has_validity());
  EXPECT_EQ(kern->MemoryBytes(), ref->MemoryBytes());
}

TEST(ExprKernelsTest, TypedCompareFastPaths) {
  RecordBatch batch = MixedBatch();
  // Column-vs-literal, both operand orders, int64 and double literals.
  ExpectKernelMatchesReference(Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(5))), batch);
  ExpectKernelMatchesReference(Expr::Lt(Expr::Lit(Value::Int64(5)), Expr::Col("qty")), batch);
  ExpectKernelMatchesReference(Expr::Ge(Expr::Col("qty"), Expr::Lit(Value::Double(3.5))), batch);
  ExpectKernelMatchesReference(Expr::Ne(Expr::Col("price"), Expr::Lit(Value::Int64(7))), batch);
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("price"), Expr::Lit(Value::Double(4.25))), batch);
  // Cross-type-class literal: string column vs int literal (constant rank).
  ExpectKernelMatchesReference(Expr::Gt(Expr::Col("name"), Expr::Lit(Value::Int64(3))), batch);
  // NULL literal.
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("qty"), Expr::Lit(Value::Null())), batch);
  // Both-literal.
  ExpectKernelMatchesReference(Expr::Lt(Expr::Lit(Value::Int64(1)), Expr::Lit(Value::Int64(2))), batch);
  // Plain strings and bools.
  ExpectKernelMatchesReference(Expr::Le(Expr::Col("name"), Expr::Lit(Value::String("fox"))), batch);
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("flag"), Expr::Lit(Value::Bool(true))), batch);
  ExpectKernelMatchesReference(Expr::Lt(Expr::Col("flag"), Expr::Lit(Value::Bool(true))), batch);
  // Column-vs-column: same type and mixed numeric.
  ExpectKernelMatchesReference(Expr::Lt(Expr::Col("qty"), Expr::Col("id")), batch);
  ExpectKernelMatchesReference(Expr::Gt(Expr::Col("price"), Expr::Col("qty")), batch);
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("name"), Expr::Col("name")), batch);
}

TEST(ExprKernelsTest, EncodedDataFastPaths) {
  RecordBatch batch = MixedBatch();
  // Dictionary strings: compare the dictionary once, map indices.
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west"))), batch);
  ExpectKernelMatchesReference(Expr::Eq(Expr::Lit(Value::String("west")), Expr::Col("region")), batch);
  ExpectKernelMatchesReference(Expr::Lt(Expr::Col("region"), Expr::Lit(Value::String("north"))), batch);
  ExpectKernelMatchesReference(Expr::Ne(Expr::Col("region"), Expr::Lit(Value::String("absent"))), batch);
  // RLE int64: compare per run.
  ExpectKernelMatchesReference(Expr::Eq(Expr::Col("bucket"), Expr::Lit(Value::Int64(200))), batch);
  ExpectKernelMatchesReference(Expr::Ge(Expr::Col("bucket"), Expr::Lit(Value::Double(150.0))), batch);
  ExpectKernelMatchesReference(Expr::Gt(Expr::Lit(Value::Int64(250)), Expr::Col("bucket")), batch);
}

TEST(ExprKernelsTest, ArithEdgeCases) {
  RecordBatch batch = MixedBatch();
  auto qty = Expr::Col("qty");
  auto price = Expr::Col("price");
  ExpectKernelMatchesReference(
      Expr::Gt(Expr::Arith(ArithOp::kMul,
                           Expr::Arith(ArithOp::kAdd, qty, Expr::Lit(Value::Int64(2))),
                           Expr::Lit(Value::Int64(3))),
               Expr::Lit(Value::Int64(12))),
      batch);
  // Division always produces DOUBLE; division by a zero value yields NULL.
  ExpectKernelMatchesReference(
      Expr::Eq(Expr::Arith(ArithOp::kDiv, qty, Expr::Lit(Value::Int64(0))),
               Expr::Lit(Value::Double(1.0))),
      batch);
  ExpectKernelMatchesReference(
      Expr::Gt(Expr::Arith(ArithOp::kDiv, price, qty), Expr::Lit(Value::Double(0.5))),
      batch);
  // MOD by zero yields NULL; MOD with a double operand is a type error on
  // both paths.
  ExpectKernelMatchesReference(
      Expr::Eq(Expr::Arith(ArithOp::kMod, qty, Expr::Lit(Value::Int64(3))),
               Expr::Lit(Value::Int64(0))),
      batch);
  ExpectKernelMatchesReference(
      Expr::Eq(Expr::Arith(ArithOp::kMod, qty, Expr::Lit(Value::Int64(0))),
               Expr::Lit(Value::Int64(0))),
      batch);
  ExpectKernelMatchesReference(
      Expr::Eq(Expr::Arith(ArithOp::kMod, price, Expr::Lit(Value::Int64(2))),
               Expr::Lit(Value::Int64(0))),
      batch);
  // Arith-vs-arith comparison (span-vs-span kernel, no Value boxing).
  ExpectKernelMatchesReference(
      Expr::Lt(Expr::Arith(ArithOp::kSub, qty, Expr::Lit(Value::Int64(1))),
               Expr::Arith(ArithOp::kAdd, price, Expr::Lit(Value::Double(0.5)))),
      batch);

  // int64 +, - and * wrap in two's complement and x % -1 is 0 (never the
  // trapping INT64_MIN % -1) — in the span loops, with a scalar operand,
  // and in constant folding.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  RecordBatch edges(
      MakeSchema({{"a", DataType::kInt64, true},
                  {"b", DataType::kInt64, true}}),
      {Column::MakeInt64({kMax, kMin, kMax, 7, kMin, 5}),
       Column::MakeInt64({1, -1, 2, -1, 0, 3}, {1, 1, 1, 1, 1, 0})});
  auto a = Expr::Col("a");
  auto b = Expr::Col("b");
  auto lit = [](int64_t v) { return Expr::Lit(Value::Int64(v)); };
  struct Case {
    ArithOp op;
    std::vector<int64_t> want;  // rows 0-4; row 4 is NULL for kMod, row 5 is
                                // always NULL
  };
  for (const Case& c :
       {Case{ArithOp::kAdd, {kMin, kMax, kMin + 1, 6, kMin}},
        Case{ArithOp::kSub, {kMax - 1, kMin + 1, kMax - 2, 8, kMin}},
        Case{ArithOp::kMul, {kMax, kMin, -2, -7, 0}},
        Case{ArithOp::kMod, {0, 0, 1, 0, 0}}}) {
    auto e = Expr::Arith(c.op, a, b);
    SCOPED_TRACE(e->ToString());
    auto got = kernels::EvaluateColumn(*e, edges);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < 5; ++i) {
      if (c.op == ArithOp::kMod && i == 4) {
        EXPECT_TRUE(got->IsNull(i));  // x % 0
      } else {
        EXPECT_EQ(got->GetValue(i), Value::Int64(c.want[i])) << "row " << i;
      }
    }
    EXPECT_TRUE(got->IsNull(5));
    ExpectColumnMatchesReference(e, edges);
    ExpectKernelMatchesReference(Expr::Eq(e, lit(0)), edges);
    // Scalar right operand and constant folding.
    ExpectColumnMatchesReference(Expr::Arith(c.op, a, lit(-1)), edges);
    ExpectColumnMatchesReference(Expr::Arith(c.op, lit(kMin), lit(-1)), edges);
    ExpectColumnMatchesReference(Expr::Arith(c.op, lit(kMax), a), edges);
  }
  auto folded = kernels::EvaluateColumn(
      *Expr::Arith(ArithOp::kMod, lit(kMin), lit(-1)), edges);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->GetValue(0), Value::Int64(0));
}

// Arithmetic over a non-numeric operand is an error, never a read of a
// string column's (absent) int64 buffer.
TEST(ExprKernelsTest, NonNumericArithmeticIsInvalidArgument) {
  RecordBatch batch = MixedBatch();
  auto one = Expr::Lit(Value::Int64(1));
  for (const ExprPtr& operand :
       {Expr::Col("region"), Expr::Col("name"), Expr::Col("flag"),
        Expr::Lit(Value::String("x")), Expr::Lit(Value::Bool(true))}) {
    auto sum = Expr::Arith(ArithOp::kAdd, operand, one);
    auto pred = Expr::Gt(sum, Expr::Lit(Value::Int64(3)));
    auto p = kernels::EvaluatePredicate(*pred, batch);
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument)
        << pred->ToString();
    auto c = kernels::EvaluateColumn(*sum, batch);
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument)
        << sum->ToString();
    ExpectKernelMatchesReference(pred, batch);
    ExpectColumnMatchesReference(sum, batch);
  }
  // A NULL literal is a numeric operand whose every lane is NULL.
  ExpectColumnMatchesReference(
      Expr::Arith(ArithOp::kAdd, Expr::Col("qty"), Expr::Lit(Value::Null())),
      batch);
  // A non-BOOL predicate keeps its error.
  auto not_bool =
      kernels::EvaluatePredicate(*Expr::Col("qty"), batch);
  EXPECT_EQ(not_bool.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExprKernelsTest, ThreeValuedLogic) {
  RecordBatch batch = MixedBatch();
  auto small = Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(4)));
  auto flag = Expr::Eq(Expr::Col("flag"), Expr::Lit(Value::Bool(true)));
  // NULL propagation through AND/OR: FALSE dominates NULL for AND, TRUE
  // dominates NULL for OR.
  ExpectKernelMatchesReference(Expr::And(small, flag), batch);
  ExpectKernelMatchesReference(Expr::Or(small, flag), batch);
  ExpectKernelMatchesReference(Expr::Not(flag), batch);
  ExpectKernelMatchesReference(Expr::Not(Expr::And(small, Expr::Not(flag))), batch);
  // IsNull over a nullable column and over an all-valid column.
  ExpectKernelMatchesReference(Expr::IsNull(Expr::Col("qty")), batch);
  ExpectKernelMatchesReference(Expr::IsNull(Expr::Col("id")), batch);
  ExpectKernelMatchesReference(Expr::IsNull(Expr::Arith(
      ArithOp::kDiv, Expr::Col("qty"), Expr::Lit(Value::Int64(0)))), batch);
}

TEST(ExprKernelsTest, InListShapes) {
  RecordBatch batch = MixedBatch();
  // Empty IN-list: all false (never null on valid lanes, matching legacy).
  ExpectKernelMatchesReference(Expr::InList(Expr::Col("qty"), {}), batch);
  // Numeric lists, including int/double mixing per Value::Compare.
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("qty"),
                   {Value::Int64(3), Value::Double(5.0), Value::Int64(9)}),
      batch);
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("price"), {Value::Int64(7), Value::Double(4.25)}),
      batch);
  // Null item in the list is never equal to anything.
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("qty"), {Value::Null(), Value::Int64(2)}), batch);
  // String lists over plain and dictionary columns.
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("name"), {Value::String("bee"), Value::String("kit")}),
      batch);
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("region"),
                   {Value::String("east"), Value::String("absent")}),
      batch);
  // IN-list over the RLE column (falls back or decodes — must still match).
  ExpectKernelMatchesReference(
      Expr::InList(Expr::Col("bucket"), {Value::Int64(100), Value::Int64(300)}),
      batch);

  // Long lists resolve once into a typed set (dense bitmap, hash set,
  // string set); the reference evaluator is the oracle.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<int64_t> specials = {kMin, kMin + 1, kMax, kMax - 1, k53,
                                         k53 + 1, k53 + 2, -k53 - 1, 0, -1};
  Random rng(99);
  const size_t n = 3000;
  std::vector<int64_t> ints(n), runs;
  std::vector<uint8_t> valid(n);
  std::vector<double> dbls(n);
  std::vector<std::string> strs(n);
  std::vector<uint32_t> lengths;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.Uniform(10);
    ints[i] = pick == 0   ? specials[rng.Uniform(specials.size())]
              : pick == 1 ? static_cast<int64_t>(rng.Next())
                          : static_cast<int64_t>(rng.Uniform(4000)) - 500;
    valid[i] = rng.Uniform(8) != 0;
    dbls[i] = pick == 0 ? -0.0 : static_cast<double>(ints[i]) / 2;
    strs[i] = i % 7 == 0   ? ""
              : i % 7 == 1 ? std::string("k\0", 2) + std::to_string(i % 50)
                           : "k" + std::to_string(rng.Uniform(3000));
  }
  for (size_t left = n; left > 0;) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(left, 1 + rng.Uniform(7)));
    runs.push_back(ints[left - 1]);
    lengths.push_back(len);
    left -= len;
  }
  RecordBatch wide(MakeSchema({{"v", DataType::kInt64, true},
                               {"w", DataType::kDouble, true},
                               {"s", DataType::kString, true},
                               {"r", DataType::kInt64, false}}),
                   {Column::MakeInt64(ints, valid), Column::MakeDouble(dbls),
                    Column::MakeString(strs, valid),
                    Column::MakeRunLengthInt64(runs, lengths)});

  std::vector<Value> dense, spread, mixed, texts;
  for (int64_t v = -200; v < 2200; v += 2) dense.push_back(Value::Int64(v));
  for (size_t i = 0; i < 1100; ++i) {
    spread.push_back(i % 100 == 0 ? Value::Null()
                                  : Value::Int64(ints[rng.Uniform(n)]));
  }
  for (int64_t s : specials) spread.push_back(Value::Int64(s));
  for (size_t i = 0; i < 1200; ++i) {
    const int64_t v = ints[rng.Uniform(n)];
    switch (i % 5) {
      case 0: mixed.push_back(Value::Int64(v)); break;
      case 1: mixed.push_back(Value::Double(static_cast<double>(v))); break;
      case 2: mixed.push_back(Value::Double(static_cast<double>(v) + 0.5));
        break;
      case 3: mixed.push_back(Value::Double(static_cast<double>(v) / 2));
        break;
      default: mixed.push_back(Value::Null()); break;
    }
  }
  // 2^53 and 2^63 as doubles: int64 lanes above 2^53 round onto them.
  mixed.push_back(Value::Double(9007199254740992.0));
  mixed.push_back(Value::Double(9223372036854775808.0));
  mixed.push_back(Value::Double(-9223372036854775808.0));
  mixed.push_back(Value::Double(std::numeric_limits<double>::infinity()));
  mixed.push_back(Value::Double(-0.0));
  mixed.push_back(Value::String("k1"));
  for (size_t i = 0; i < 1000; ++i) {
    texts.push_back(i % 3 == 0 ? Value::String(strs[rng.Uniform(n)])
                               : Value::String("k" + std::to_string(i)));
  }
  texts.push_back(Value::String(""));
  texts.push_back(Value::Null());
  texts.push_back(Value::Int64(5));

  RecordBatch sliced = wide.Slice(777, 1500);
  for (const RecordBatch* b : {&wide, &sliced}) {
    for (const auto* items : {&dense, &spread, &mixed}) {
      for (const char* col : {"v", "w", "r"}) {
        ExpectKernelMatchesReference(Expr::InList(Expr::Col(col), *items), *b);
      }
      // `v + 2` wraps at INT64_MAX - 1 and INT64_MAX.
      ExpectKernelMatchesReference(
          Expr::InList(Expr::Arith(ArithOp::kAdd, Expr::Col("v"),
                                   Expr::Lit(Value::Int64(2))),
                       *items),
          *b);
    }
    ExpectKernelMatchesReference(Expr::InList(Expr::Col("s"), texts), *b);
    ExpectKernelMatchesReference(Expr::InList(Expr::Col("v"), texts), *b);
  }
  // Both sides of the flat-loop / set cutover agree with the oracle.
  for (size_t len : {15u, 16u, 17u, 18u}) {
    std::vector<Value> items(mixed.begin(), mixed.begin() + len);
    ExpectKernelMatchesReference(Expr::InList(Expr::Col("v"), items), wide);
    ExpectKernelMatchesReference(Expr::InList(Expr::Col("w"), items), wide);
    std::vector<Value> words(texts.begin(), texts.begin() + len);
    ExpectKernelMatchesReference(Expr::InList(Expr::Col("s"), words), wide);
  }
}

// NaN is the one place the kernels deliberately differ from the reference
// evaluator (whose Value::Compare calls NaN equal to every number): a NaN
// lane or item never matches, on the flat loops and the set alike, and
// -0.0 equals 0.0.
TEST(ExprKernelsTest, LongInListNaNAndSignedZero) {
  const double nan = std::nan("");
  RecordBatch batch(MakeSchema({{"d", DataType::kDouble, true}}),
                    {Column::MakeDouble({nan, -0.0, 0.0, 1.0, 2.5})});
  for (size_t len : {3u, 1000u}) {
    std::vector<Value> items = {Value::Double(nan), Value::Double(0.0),
                                Value::Int64(2)};
    for (size_t i = items.size(); i < len; ++i) {
      items.push_back(Value::Double(100.0 + static_cast<double>(i)));
    }
    auto got =
        kernels::EvaluatePredicate(*Expr::InList(Expr::Col("d"), items), batch);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->data, (std::vector<uint8_t>{0, 1, 1, 0, 0})) << len;
  }
}

// ---------------------------------------------------------------------------
// Dictionary compare counting
// ---------------------------------------------------------------------------

TEST(ExprKernelsTest, DictCompareTouchesDictionaryNotRows) {
  RecordBatch batch = MixedBatch();  // region: 12 rows, 3 dictionary entries
  obs::Counter* dict_cmp = obs::MetricsRegistry::Default().GetCounter(
      METRIC_EXPR_DICT_COMPARES);
  auto lit_cmp = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west")));

  // One dictionary sweep (3 compares), not one per row — in either literal
  // order.
  uint64_t before = dict_cmp->Value();
  ASSERT_TRUE(kernels::EvaluatePredicate(*lit_cmp, batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 3u);
  auto mirrored = Expr::Eq(Expr::Lit(Value::String("west")), Expr::Col("region"));
  before = dict_cmp->Value();
  ASSERT_TRUE(kernels::EvaluatePredicate(*mirrored, batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 3u);

  // Kernel IN-list over a dictionary column: one sweep per list item.
  auto in_list = Expr::InList(
      Expr::Col("region"), {Value::String("east"), Value::String("north")});
  before = dict_cmp->Value();
  ASSERT_TRUE(kernels::EvaluatePredicate(*in_list, batch).ok());
  EXPECT_EQ(dict_cmp->Value() - before, 6u);
}

// ---------------------------------------------------------------------------
// SelectionVector
// ---------------------------------------------------------------------------

TEST(SelectionVectorTest, FromMaskFilterByTruncate) {
  SelectionVector sel = SelectionVector::FromMask({0, 1, 1, 0, 1, 0});
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 2u);
  EXPECT_EQ(sel[2], 4u);

  // Compose with a second mask over the *underlying* rows.
  SelectionVector narrowed = sel.FilterBy({1, 0, 1, 1, 0, 1});
  ASSERT_EQ(narrowed.size(), 1u);
  EXPECT_EQ(narrowed[0], 2u);

  sel.Truncate(2);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[1], 2u);
  sel.Truncate(100);  // no-op past the end
  EXPECT_EQ(sel.size(), 2u);

  SelectionVector empty = SelectionVector::FromMask({0, 0, 0});
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// Engine vs reference, and worker-count determinism
// ---------------------------------------------------------------------------

class ExprKernelsEngineTest : public LakehouseFixture {
 protected:
  ExprKernelsEngineTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {}

  void CreateLakeTable(const std::string& name, int files, size_t rows) {
    std::string prefix = name + "/";
    BuildLake(prefix, files, rows);
    ASSERT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef(name, prefix)).ok());
  }

  QueryEngine MakeEngine(EngineOptions opts = {}) {
    return QueryEngine(&lake_, &api_, opts);
  }

  /// The rows of `table` that the reference evaluator selects with `pred`,
  /// in scan order.
  RecordBatch ReferenceFilter(const std::string& table, const ExprPtr& pred) {
    auto scan = MakeEngine().Execute("u", Plan::Scan(table));
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    if (!scan.ok()) return RecordBatch();
    auto mask = ReferencePredicate(*pred, scan->batch);
    EXPECT_TRUE(mask.ok()) << mask.status().ToString();
    if (!mask.ok()) return RecordBatch();
    return scan->batch.Filter(ReferenceMask(*mask));
  }

  /// Executes `plan` and returns its serialized rows ("" on failure).
  std::string Rows(const PlanPtr& plan) {
    auto r = MakeEngine().Execute("u", plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? SerializeBatch(r->batch) : "";
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
};

ExprPtr FilterHeavyPredicate() {
  return Expr::And(
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(40))),
      Expr::Or(Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east"))),
               Expr::Gt(Expr::Col("price"), Expr::Lit(Value::Double(55.0)))));
}

PlanPtr FilterHeavyPlan() {
  return Plan::Project(Plan::Filter(Plan::Scan("ds.sales"),
                                    FilterHeavyPredicate()),
                       {"id", "score"},
                       {Expr::Col("id"),
                        Expr::Arith(ArithOp::kMul, Expr::Col("qty"),
                                    Expr::Lit(Value::Int64(3)))});
}

// Every filter shape the engine runs through the kernels returns exactly
// the rows (bytes) the reference evaluator selects; operators above the
// filter see those rows through Plan::Values.
TEST_F(ExprKernelsEngineTest, MatchesReferenceEvaluator) {
  CreateLakeTable("sales", 4, 200);

  {
    SCOPED_TRACE("filter -> project");
    RecordBatch in = ReferenceFilter("ds.sales", FilterHeavyPredicate());
    std::vector<Field> fields;
    std::vector<Column> cols;
    const PlanPtr plan = FilterHeavyPlan();
    for (size_t i = 0; i < plan->project_exprs.size(); ++i) {
      auto c = ReferenceEvaluate(*plan->project_exprs[i], in);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      fields.push_back({plan->project_names[i], c->type(), true});
      cols.push_back(*c);
    }
    EXPECT_EQ(Rows(plan),
              SerializeBatch(RecordBatch(MakeSchema(std::move(fields)),
                                         std::move(cols))));
  }
  const ExprPtr qty_lt_60 =
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(60)));
  const ExprPtr price_ge_10 =
      Expr::Ge(Expr::Col("price"), Expr::Lit(Value::Double(10.0)));
  {
    SCOPED_TRACE("stacked filters compose selections");
    RecordBatch in = ReferenceFilter("ds.sales", Expr::And(qty_lt_60,
                                                           price_ge_10));
    EXPECT_EQ(Rows(Plan::Filter(Plan::Filter(Plan::Scan("ds.sales"),
                                             qty_lt_60),
                                price_ge_10)),
              SerializeBatch(in));
  }
  {
    SCOPED_TRACE("filter feeding aggregation");
    const ExprPtr pred = Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(20)));
    auto agg = [](PlanPtr in) {
      return Plan::Aggregate(
          std::move(in), {"region"},
          {{AggOp::kCount, "", "n"}, {AggOp::kSum, "price", "total"}});
    };
    EXPECT_EQ(Rows(agg(Plan::Filter(Plan::Scan("ds.sales"), pred))),
              Rows(agg(Plan::Values(ReferenceFilter("ds.sales", pred)))));
  }
  {
    SCOPED_TRACE("filter feeding order-by + limit");
    const ExprPtr pred = Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(15)));
    auto top = [](PlanPtr in) {
      return Plan::Limit(
          Plan::OrderBy(std::move(in), {{"id", /*descending=*/false}}), 7);
    };
    EXPECT_EQ(Rows(top(Plan::Filter(Plan::Scan("ds.sales"), pred))),
              Rows(top(Plan::Values(ReferenceFilter("ds.sales", pred)))));
  }
  {
    SCOPED_TRACE("zero survivors");
    const ExprPtr pred = Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(-1)));
    RecordBatch in = ReferenceFilter("ds.sales", pred);
    EXPECT_EQ(in.num_rows(), 0u);
    EXPECT_EQ(Rows(Plan::Filter(Plan::Scan("ds.sales"), pred)),
              SerializeBatch(in));
  }
}

TEST_F(ExprKernelsEngineTest, JoinOverFilteredInputsRowIdentical) {
  CreateLakeTable("facts", 3, 150);
  CreateLakeTable("dims", 1, 60);
  const ExprPtr dims_pred =
      Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(50)));
  const ExprPtr facts_pred =
      Expr::Gt(Expr::Col("price"), Expr::Lit(Value::Double(20.0)));
  auto plan = Plan::HashJoin(
      Plan::Filter(Plan::Scan("ds.dims"), dims_pred),
      Plan::Filter(Plan::Scan("ds.facts"), facts_pred), {"region"},
      {"region"});
  // The same join over the reference-filtered inputs.
  auto reference = Plan::HashJoin(
      Plan::Values(ReferenceFilter("ds.dims", dims_pred)),
      Plan::Values(ReferenceFilter("ds.facts", facts_pred)), {"region"},
      {"region"});
  auto r = MakeEngine().Execute("u", plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->batch.num_rows(), 0u);
  EXPECT_EQ(SerializeBatch(r->batch), Rows(reference));
}

TEST_F(ExprKernelsEngineTest, SelectionMaterializationIsCountedAndDeferred) {
  CreateLakeTable("sales", 2, 100);
  obs::Counter* mats = obs::MetricsRegistry::Default().GetCounter(
      METRIC_SELVEC_MATERIALIZATIONS);
  obs::Counter* rows = obs::MetricsRegistry::Default().GetCounter(
      METRIC_EXPR_ROWS_EVALUATED);
  uint64_t mats_before = mats->Value();
  uint64_t rows_before = rows->Value();
  auto result = MakeEngine().Execute("u", FilterHeavyPlan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(mats->Value(), mats_before);
  EXPECT_GT(rows->Value(), rows_before);

  // A filter feeding an aggregation never materializes in the engine: the
  // selection is consumed directly by the grouping kernel. (Over a Values
  // leaf the filter stays in the engine; over a Scan the optimizer would
  // push it into the Read API.)
  auto full = MakeEngine().Execute("u", Plan::Scan("ds.sales"));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto agg = Plan::Aggregate(
      Plan::Filter(Plan::Values(full->batch),
                   Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(50)))),
      {}, {{AggOp::kCount, "", "n"}});
  mats_before = mats->Value();
  ASSERT_TRUE(MakeEngine().Execute("u", agg).ok());
  EXPECT_EQ(mats->Value(), mats_before);
}

// Worker-count determinism: independent worlds at 1,
// 2 and 8 workers must produce byte-identical results with identical
// simulated costs, and two independent worlds at the same worker count
// must produce byte-identical simulated-cost profiles (the PR 5
// acceptance bar; stream counts legitimately scale with the worker count,
// so full profiles are compared at fixed parallelism, as in
// parallel_determinism_test).
struct DetWorld {
  LakehouseEnv lake;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  ObjectStore* store = nullptr;
  StorageReadApi api;
  BigLakeTableService biglake;
  BlmtService blmt;
  TpcdsTables tables;

  explicit DetWorld(const TpcdsScale& scale)
      : api(&lake), biglake(&lake), blmt(&lake) {
    store = lake.AddStore(gcp);
    EXPECT_TRUE(store->CreateBucket("lake").ok());
    EXPECT_TRUE(lake.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake.catalog().CreateConnection(conn).ok());
    auto t = SetupTpcds(&lake, &biglake, &blmt, store, "lake", "tpcds/", "ds",
                        scale, /*cached=*/true, "us.lake-conn");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) tables = *t;
  }
};

PlanPtr DetQuery(const TpcdsTables& t) {
  return Plan::Aggregate(
      Plan::Filter(
          Plan::HashJoin(Plan::Scan(t.item), Plan::Scan(t.store_sales),
                         {"i_item_id"}, {"ss_item_id"}),
          Expr::Gt(Expr::Col("ss_sales_price"), Expr::Lit(Value::Double(1.0)))),
      {"ss_store_id"}, {{AggOp::kCount, "ss_item_id", "n"}});
}

TpcdsScale DetScale() {
  TpcdsScale scale;
  scale.days = 4;
  scale.rows_per_day = 2000;  // several 4096-row aggregation chunks
  return scale;
}

TEST(ExprKernelsDeterminismTest, WorkerCountsProduceIdenticalResults) {
  std::string first_batch;
  uint64_t first_micros = 0;
  for (uint32_t workers : {1u, 2u, 8u}) {
    DetWorld w(DetScale());
    EngineOptions opts;
    opts.num_workers = workers;
    QueryEngine engine(&w.lake, &w.api, opts);
    auto result = engine.Execute("u", DetQuery(w.tables));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->batch.num_rows(), 0u);
    std::string batch = SerializeBatch(result->batch);
    if (first_batch.empty()) {
      first_batch = batch;
      first_micros = result->stats.total_micros;
    } else {
      EXPECT_EQ(batch, first_batch) << workers << " workers";
      EXPECT_EQ(result->stats.total_micros, first_micros)
          << workers << " workers";
    }
  }
}

TEST(ExprKernelsDeterminismTest, IndependentRunsProduceIdenticalProfiles) {
  obs::ProfileExportOptions det;
  det.include_wall = false;
  det.pretty = false;
  DetWorld w1(DetScale());
  DetWorld w2(DetScale());
  EngineOptions opts;
  opts.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, opts);
  QueryEngine e2(&w2.lake, &w2.api, opts);
  for (int round = 0; round < 2; ++round) {
    obs::QueryProfile p1, p2;
    auto a = e1.Execute("u", DetQuery(w1.tables), &p1);
    auto b = e2.Execute("u", DetQuery(w2.tables), &p2);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch)) << round;
    std::string j1 = p1.ToJson(det);
    std::string j2 = p2.ToJson(det);
    ASSERT_GT(j1.size(), 2u);
    EXPECT_EQ(j1, j2) << "round " << round;
  }
}

}  // namespace
}  // namespace biglake
