// Differential test of the expression kernels against the boxed reference
// evaluator (reference_eval.h): seeded random expression trees of depth
// <= 4 covering every Expr::Kind, over plain, dictionary, RLE, sliced and
// nullable columns of every type class. For each tree, EvaluatePredicate
// and EvaluateColumn must agree with the reference on success vs error
// (and the error code), and on every lane's value and NULL-ness; projected
// columns must also be byte-identical, with the same footprint and a
// validity buffer exactly when the reference has one.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "common/random.h"
#include "reference_eval.h"

namespace biglake {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Value pools: small values so comparisons and IN-lists hit, int64 extremes
// so arithmetic wraps and `% -1` runs, no NaN (the one value where the
// reference's Value::Compare differs from IEEE compares) and no values that
// could overflow a double within four levels of arithmetic.
const std::vector<int64_t>& IntPool() {
  static const std::vector<int64_t> pool = {0, 1, 2, 3, -1, -2, 7, 100,
                                            kMin, kMax, kMin + 1, kMax - 1};
  return pool;
}
const std::vector<double>& DoublePool() {
  static const std::vector<double> pool = {0.0, -0.0, 0.5, 1.0, 2.0, -2.5,
                                           3.25, 100.0, 1e15};
  return pool;
}
const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "", "a", "ab", "b", "east", "west", std::string("a\0b", 3)};
  return pool;
}

struct Gen {
  Random rng;
  explicit Gen(uint64_t seed) : rng(seed) {}

  size_t Pick(size_t n) { return static_cast<size_t>(rng.Uniform(n)); }
  bool Chance(size_t one_in) { return Pick(one_in) == 0; }

  int64_t Int() { return IntPool()[Pick(IntPool().size())]; }
  double Dbl() { return DoublePool()[Pick(DoublePool().size())]; }
  const std::string& Str() { return StringPool()[Pick(StringPool().size())]; }

  std::vector<uint8_t> Validity(size_t n) {
    std::vector<uint8_t> v(n);
    for (auto& b : v) b = Chance(4) ? 0 : 1;
    return v;
  }

  Value AnyValue() {
    switch (Pick(6)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Bool(Chance(2));
      case 2:
        return Value::Double(Dbl());
      case 3:
        return Value::String(Str());
      default:
        return Value::Int64(Int());
    }
  }
};

// Columns of every type class and encoding. `i_valid` has an all-ones
// validity buffer; `rle` and `ts` carry no NULLs.
RecordBatch MakeBatch(Gen* g, size_t n) {
  std::vector<int64_t> ints(n), ts(n);
  std::vector<double> dbls(n);
  std::vector<std::string> strs(n);
  std::vector<uint8_t> bools(n);
  std::vector<uint32_t> dict_idx(n);
  for (size_t i = 0; i < n; ++i) {
    ints[i] = g->Int();
    ts[i] = g->Int();
    dbls[i] = g->Dbl();
    strs[i] = g->Str();
    bools[i] = g->Chance(2) ? 1 : 0;
    dict_idx[i] = static_cast<uint32_t>(g->Pick(4));
  }
  std::vector<int64_t> run_values;
  std::vector<uint32_t> run_lengths;
  for (size_t left = n; left > 0;) {
    const uint32_t len = static_cast<uint32_t>(
        std::min<size_t>(left, 1 + g->Pick(5)));
    run_values.push_back(g->Int());
    run_lengths.push_back(len);
    left -= len;
  }
  std::vector<Column> cols;
  cols.push_back(Column::MakeInt64(ints, g->Validity(n)));
  cols.push_back(Column::MakeInt64(ints, std::vector<uint8_t>(n, 1)));
  cols.push_back(Column::MakeTimestamp(ts));
  cols.push_back(Column::MakeDouble(dbls, g->Validity(n)));
  cols.push_back(Column::MakeString(strs, g->Validity(n)));
  cols.push_back(Column::MakeDictionaryString(
      dict_idx, {"east", "west", "", "a"}, g->Validity(n)));
  cols.push_back(Column::MakeRunLengthInt64(run_values, run_lengths));
  cols.push_back(Column::MakeBool(bools, g->Validity(n)));
  return RecordBatch(MakeSchema({{"i", DataType::kInt64, true},
                                 {"i_valid", DataType::kInt64, true},
                                 {"ts", DataType::kTimestamp, false},
                                 {"d", DataType::kDouble, true},
                                 {"s", DataType::kString, true},
                                 {"dict", DataType::kString, true},
                                 {"rle", DataType::kInt64, false},
                                 {"b", DataType::kBool, true}}),
                     std::move(cols));
}

const std::vector<std::string>& ColumnNames() {
  static const std::vector<std::string> names = {"i", "i_valid", "ts", "d",
                                                 "s", "dict", "rle", "b"};
  return names;
}

ExprPtr RandomExpr(Gen* g, int depth);

// A numeric-leaning operand for arithmetic, so most arithmetic trees are
// valid while some still hit the non-numeric error.
ExprPtr NumericOperand(Gen* g, int depth) {
  if (depth > 0 && g->Chance(3)) {
    return Expr::Arith(static_cast<ArithOp>(g->Pick(5)),
                       NumericOperand(g, depth - 1),
                       NumericOperand(g, depth - 1));
  }
  switch (g->Pick(10)) {
    case 0:
      return Expr::Lit(Value::Double(g->Dbl()));
    case 1:
      return Expr::Lit(Value::Int64(g->Int()));
    case 2:
      return Expr::Lit(Value::Null());
    case 3:
      return RandomExpr(g, 0);  // any leaf, possibly non-numeric
    default: {
      static const char* kNumeric[] = {"i", "i_valid", "ts", "d", "rle"};
      return Expr::Col(kNumeric[g->Pick(5)]);
    }
  }
}

ExprPtr RandomExpr(Gen* g, int depth) {
  const size_t kinds = depth == 0 ? 2 : 7;
  switch (g->Pick(kinds)) {
    case 0:
      return Expr::Col(ColumnNames()[g->Pick(ColumnNames().size())]);
    case 1:
      return Expr::Lit(g->AnyValue());
    case 2:
      return Expr::Cmp(static_cast<CmpOp>(g->Pick(6)),
                       RandomExpr(g, depth - 1), RandomExpr(g, depth - 1));
    case 3:
      switch (g->Pick(3)) {
        case 0:
          return Expr::And(RandomExpr(g, depth - 1), RandomExpr(g, depth - 1));
        case 1:
          return Expr::Or(RandomExpr(g, depth - 1), RandomExpr(g, depth - 1));
        default:
          return Expr::Not(RandomExpr(g, depth - 1));
      }
    case 4:
      return Expr::Arith(static_cast<ArithOp>(g->Pick(5)),
                         NumericOperand(g, depth - 1),
                         NumericOperand(g, depth - 1));
    case 5:
      return Expr::IsNull(RandomExpr(g, depth - 1));
    default: {
      // 0-20 items: both sides of the 16-item flat-loop / set cutover.
      std::vector<Value> items(g->Pick(21));
      for (Value& v : items) v = g->AnyValue();
      return Expr::InList(RandomExpr(g, depth - 1), std::move(items));
    }
  }
}

// A third of the trees are `tree AND <numeric comparison>`, so the Kleene
// AND kernel sees a valid BOOL operand more often than random leaves give.
// Depth stays <= max(depth, 3).
ExprPtr RandomPredicate(Gen* g, int depth) {
  if (g->Chance(3)) {
    return Expr::And(RandomExpr(g, depth - 1),
                     Expr::Cmp(static_cast<CmpOp>(g->Pick(6)),
                               NumericOperand(g, 1), NumericOperand(g, 0)));
  }
  return RandomExpr(g, depth);
}

std::string ColumnBytes(const Column& c) {
  return SerializeBatch(RecordBatch(MakeSchema({{"c", c.type(), true}}), {c}));
}

struct Tally {
  size_t ok = 0;
  size_t errors = 0;
};

void CheckOne(const ExprPtr& e, const RecordBatch& batch, Tally* tally) {
  SCOPED_TRACE(e->ToString());
  // Predicate entry point vs the reference predicate.
  auto ref_pred = ReferencePredicate(*e, batch);
  auto kern_pred = kernels::EvaluatePredicate(*e, batch);
  ASSERT_EQ(ref_pred.ok(), kern_pred.ok())
      << "reference: " << ref_pred.status().ToString()
      << " kernel: " << kern_pred.status().ToString();
  if (ref_pred.ok()) {
    ASSERT_EQ(kern_pred->size(), batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      Value v = ref_pred->GetValue(i);
      ASSERT_EQ(v.is_null(), kern_pred->IsNull(i)) << "row " << i;
      ASSERT_EQ(v.is_null() ? 0 : (v.bool_value() ? 1 : 0),
                kern_pred->data[i])
          << "row " << i;
    }
    ++tally->ok;
  } else {
    ASSERT_EQ(ref_pred.status().code(), kern_pred.status().code());
    ++tally->errors;
  }
  // Projection entry point vs the reference column.
  auto ref_col = ReferenceEvaluate(*e, batch);
  auto kern_col = kernels::EvaluateColumn(*e, batch);
  ASSERT_EQ(ref_col.ok(), kern_col.ok())
      << "reference: " << ref_col.status().ToString()
      << " kernel: " << kern_col.status().ToString();
  if (!ref_col.ok()) {
    ASSERT_EQ(ref_col.status().code(), kern_col.status().code());
    return;
  }
  ASSERT_EQ(ref_col->type(), kern_col->type());
  ASSERT_EQ(ref_col->length(), kern_col->length());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    ASSERT_EQ(ref_col->GetValue(i), kern_col->GetValue(i)) << "row " << i;
    ASSERT_EQ(ref_col->IsNull(i), kern_col->IsNull(i)) << "row " << i;
  }
  ASSERT_EQ(ref_col->has_validity(), kern_col->has_validity());
  ASSERT_EQ(ref_col->MemoryBytes(), kern_col->MemoryBytes());
  ASSERT_EQ(ColumnBytes(*ref_col), ColumnBytes(*kern_col));
}

TEST(ExprDifferentialTest, RandomTreesMatchReference) {
  Gen g(20261018);
  RecordBatch full = MakeBatch(&g, 64);
  // A non-zero-offset slice: every kernel must honour view offsets.
  RecordBatch sliced = full.Slice(13, 37);
  Tally tally;
  for (int iter = 0; iter < 4000; ++iter) {
    ExprPtr e = RandomPredicate(&g, 1 + static_cast<int>(g.Pick(4)));
    for (const RecordBatch* b : {&full, &sliced}) {
      CheckOne(e, *b, &tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The generator must exercise both outcomes substantially.
  EXPECT_GT(tally.ok, 2000u);
  EXPECT_GT(tally.errors, 500u);
}

// The random run above covers every expression kind; this pins the shapes
// no fast path covers (the generic path) and the error shapes.
TEST(ExprDifferentialTest, GenericShapesMatchReference) {
  Gen g(7);
  RecordBatch batch = MakeBatch(&g, 40);
  Tally tally;
  const std::vector<ExprPtr> shapes = {
      // Dictionary vs plain strings, both orders.
      Expr::Lt(Expr::Col("dict"), Expr::Col("s")),
      Expr::Ge(Expr::Col("s"), Expr::Col("dict")),
      // Bool-valued operands.
      Expr::Eq(Expr::Col("b"), Expr::Gt(Expr::Col("i"), Expr::Col("d"))),
      Expr::Lt(Expr::Gt(Expr::Col("i"), Expr::Lit(Value::Int64(1))),
               Expr::Col("b")),
      // Mixed type classes.
      Expr::Lt(Expr::Col("s"), Expr::Col("i")),
      Expr::Gt(Expr::Arith(ArithOp::kAdd, Expr::Col("i"),
                           Expr::Lit(Value::Int64(1))),
               Expr::Lit(Value::String("x"))),
      Expr::Ne(Expr::Col("b"), Expr::Col("rle")),
      // IN over non-column children.
      Expr::InList(Expr::Lit(Value::Int64(3)),
                   {Value::Int64(3), Value::Double(2.0)}),
      Expr::InList(Expr::Lit(Value::String("a")), {Value::String("a")}),
      Expr::InList(Expr::Gt(Expr::Col("i"), Expr::Lit(Value::Int64(0))),
                   {Value::Bool(true), Value::Int64(1)}),
      Expr::InList(Expr::Col("b"), {Value::Bool(false), Value::Null()}),
      Expr::InList(Expr::Lit(Value::Null()), {Value::Null()}),
      // IS NULL over non-column children.
      Expr::IsNull(Expr::Arith(ArithOp::kDiv, Expr::Col("i"), Expr::Col("d"))),
      Expr::IsNull(Expr::Lt(Expr::Col("s"), Expr::Col("dict"))),
      Expr::IsNull(Expr::Lit(Value::Null())),
      // Errors: non-numeric arithmetic, MOD over a double, non-BOOL roots.
      Expr::Gt(Expr::Arith(ArithOp::kAdd, Expr::Col("dict"),
                           Expr::Lit(Value::Int64(1))),
               Expr::Lit(Value::Int64(3))),
      Expr::Arith(ArithOp::kMul, Expr::Col("s"), Expr::Lit(Value::Int64(2))),
      Expr::Arith(ArithOp::kMod, Expr::Col("d"), Expr::Lit(Value::Null())),
      Expr::And(Expr::Col("i"), Expr::Col("b")),
      Expr::Lit(Value::String("x")),
  };
  for (const ExprPtr& e : shapes) CheckOne(e, batch, &tally);
}

}  // namespace
}  // namespace biglake
