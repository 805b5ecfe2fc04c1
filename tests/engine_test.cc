#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "core/blmt.h"
#include "engine/engine.h"
#include "engine/operators.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

class EngineTest : public LakehouseFixture {
 protected:
  EngineTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {}

  void CreateLakeTable(const std::string& name, int files, size_t rows) {
    std::string prefix = name + "/";
    BuildLake(prefix, files, rows);
    ASSERT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef(name, prefix)).ok());
  }

  /// Creates a small dimension table ds.regions(region, manager).
  void CreateRegionDim() {
    TableDef def;
    def.dataset = "ds";
    def.name = "regions";
    def.schema = MakeSchema({{"region", DataType::kString, false},
                             {"manager", DataType::kString, true}});
    def.connection = "us.lake-conn";
    def.location = gcp_;
    def.bucket = "lake";
    def.prefix = "regions/";
    def.iam.Grant("*", Role::kWriter);
    ASSERT_TRUE(blmt_.CreateTable(def).ok());
    BatchBuilder b(def.schema);
    ASSERT_TRUE(b.AppendRow({Value::String("east"), Value::String("amy")}).ok());
    ASSERT_TRUE(b.AppendRow({Value::String("west"), Value::String("bob")}).ok());
    ASSERT_TRUE(
        b.AppendRow({Value::String("north"), Value::String("cat")}).ok());
    ASSERT_TRUE(
        b.AppendRow({Value::String("south"), Value::String("dan")}).ok());
    ASSERT_TRUE(blmt_.Insert("u", "ds.regions", b.Finish()).ok());
  }

  QueryEngine MakeEngine(EngineOptions opts = {}) {
    return QueryEngine(&lake_, &api_, opts);
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
};

TEST_F(EngineTest, ScanReturnsAllRows) {
  CreateLakeTable("sales", 4, 50);
  QueryEngine engine = MakeEngine();
  auto result = engine.Execute("u", Plan::Scan("ds.sales"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 200u);
  EXPECT_EQ(result->stats.rows_returned, 200u);
  EXPECT_EQ(result->stats.files_scanned, 4u);
}

TEST_F(EngineTest, ScanWithPredicatePushesDown) {
  CreateLakeTable("sales", 6, 50);
  QueryEngine engine = MakeEngine();
  auto result = engine.Execute(
      "u", Plan::Scan("ds.sales", {},
                      Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(2)))));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 50u);
  EXPECT_EQ(result->stats.files_pruned, 5u);
}

TEST_F(EngineTest, FilterAndProject) {
  CreateLakeTable("sales", 1, 100);
  QueryEngine engine = MakeEngine();
  auto plan = Plan::Project(
      Plan::Filter(Plan::Scan("ds.sales"),
                   Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(10)))),
      {"id", "double_qty"},
      {Expr::Col("id"),
       Expr::Arith(ArithOp::kMul, Expr::Col("qty"),
                   Expr::Lit(Value::Int64(2)))});
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 10u);
  EXPECT_EQ(result->batch.num_columns(), 2u);
  EXPECT_EQ(result->batch.schema()->field(1).name, "double_qty");
}

TEST_F(EngineTest, HashJoinMatchesRows) {
  CreateLakeTable("sales", 2, 50);
  CreateRegionDim();
  QueryEngine engine = MakeEngine();
  auto plan = Plan::HashJoin(Plan::Scan("ds.regions"), Plan::Scan("ds.sales"),
                             {"region"}, {"region"});
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  // Every sales row matches exactly one region row.
  EXPECT_EQ(result->batch.num_rows(), 100u);
  // Both manager and sales columns present.
  EXPECT_GE(result->batch.schema()->FieldIndex("manager"), 0);
  EXPECT_GE(result->batch.schema()->FieldIndex("qty"), 0);
  // Collided key column renamed.
  EXPECT_GE(result->batch.schema()->FieldIndex("region_r"), 0);
}

TEST_F(EngineTest, JoinResultValuesConsistent) {
  CreateLakeTable("sales", 1, 20);
  CreateRegionDim();
  QueryEngine engine = MakeEngine();
  auto result = engine.Execute(
      "u", Plan::HashJoin(Plan::Scan("ds.regions"), Plan::Scan("ds.sales"),
                          {"region"}, {"region"}));
  ASSERT_TRUE(result.ok());
  int region_idx = result->batch.schema()->FieldIndex("region");
  int region_r_idx = result->batch.schema()->FieldIndex("region_r");
  ASSERT_GE(region_idx, 0);
  ASSERT_GE(region_r_idx, 0);
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    EXPECT_TRUE(
        result->batch.GetValue(r, static_cast<size_t>(region_idx)) ==
        result->batch.GetValue(r, static_cast<size_t>(region_r_idx)));
  }
}

TEST_F(EngineTest, StatsDrivenBuildSideSwap) {
  CreateLakeTable("sales", 4, 200);  // big
  CreateRegionDim();                 // tiny
  // Plan puts the big table on the build side; stats should swap it.
  auto plan = Plan::HashJoin(Plan::Scan("ds.sales"), Plan::Scan("ds.regions"),
                             {"region"}, {"region"});
  EngineOptions with_stats;
  QueryEngine engine = MakeEngine(with_stats);
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.build_side_swaps, 1u);

  EngineOptions no_stats;
  no_stats.use_table_stats = false;
  QueryEngine dumb = MakeEngine(no_stats);
  auto dumb_result = dumb.Execute("u", plan);
  ASSERT_TRUE(dumb_result.ok());
  EXPECT_EQ(dumb_result->stats.build_side_swaps, 0u);
  EXPECT_EQ(dumb_result->batch.num_rows(), result->batch.num_rows());
}

TEST_F(EngineTest, DynamicPartitionPruningPrunesFactFiles) {
  CreateLakeTable("fact", 10, 50);  // partitioned by date=0..9
  // Dimension selecting two dates.
  TableDef dim;
  dim.dataset = "ds";
  dim.name = "dates";
  dim.schema = MakeSchema({{"date_key", DataType::kInt64, false},
                           {"is_holiday", DataType::kBool, false}});
  dim.connection = "us.lake-conn";
  dim.location = gcp_;
  dim.bucket = "lake";
  dim.prefix = "dates/";
  dim.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(dim).ok());
  BatchBuilder b(dim.schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(3), Value::Bool(true)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(7), Value::Bool(true)}).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.dates", b.Finish()).ok());

  auto plan = Plan::HashJoin(Plan::Scan("ds.dates"), Plan::Scan("ds.fact"),
                             {"date_key"}, {"date"});
  EngineOptions dpp_on;
  QueryEngine engine = MakeEngine(dpp_on);
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.dpp_scans, 1u);
  EXPECT_EQ(result->batch.num_rows(), 100u);  // 2 dates x 50 rows
  // 8 of 10 fact files pruned by the IN-list.
  EXPECT_GE(result->stats.files_pruned, 8u);

  EngineOptions dpp_off;
  dpp_off.dynamic_partition_pruning = false;
  QueryEngine nodpp = MakeEngine(dpp_off);
  auto slow = nodpp.Execute("u", plan);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->stats.dpp_scans, 0u);
  EXPECT_EQ(slow->batch.num_rows(), 100u);        // same answer
  EXPECT_GT(slow->stats.files_scanned, result->stats.files_scanned);
}

TEST_F(EngineTest, NullJoinKeysNeverMatchWithOrWithoutDpp) {
  // Both sides carry NULL keys. NULL never equals NULL, so the answer must
  // not depend on whether DPP's IN-list (which drops NULL probe rows) ran.
  auto make = [&](const std::string& name, const std::vector<Value>& keys) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.schema = MakeSchema({{"k", DataType::kInt64, true},
                             {name + "_v", DataType::kInt64, false}});
    def.connection = "us.lake-conn";
    def.location = gcp_;
    def.bucket = "lake";
    def.prefix = name + "/";
    def.iam.Grant("*", Role::kWriter);
    ASSERT_TRUE(blmt_.CreateTable(def).ok());
    BatchBuilder b(def.schema);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(
          b.AppendRow({keys[i], Value::Int64(static_cast<int64_t>(i))}).ok());
    }
    ASSERT_TRUE(blmt_.Insert("u", "ds." + name, b.Finish()).ok());
  };
  const Value null = Value::Null();
  make("dim", {null, Value::Int64(1), Value::Int64(2), null});
  make("fact", {Value::Int64(1), null, Value::Int64(2), Value::Int64(2), null,
                Value::Int64(3), Value::Int64(1)});
  auto plan = Plan::HashJoin(Plan::Scan("ds.dim"), Plan::Scan("ds.fact"),
                             {"k"}, {"k"});
  auto pairs = [](const RecordBatch& batch) {
    std::vector<std::pair<int64_t, int64_t>> out;
    const Column* d = *batch.ColumnByName("dim_v");
    const Column* f = *batch.ColumnByName("fact_v");
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      out.emplace_back(d->GetValue(r).int64_value(),
                       f->GetValue(r).int64_value());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {1, 0}, {1, 6}, {2, 2}, {2, 3}};

  EngineOptions dpp_on;
  auto on = MakeEngine(dpp_on).Execute("u", plan);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on->stats.dpp_scans, 1u);
  EXPECT_EQ(pairs(on->batch), want);

  EngineOptions dpp_off;
  dpp_off.dynamic_partition_pruning = false;
  EngineOptions no_stats;
  no_stats.use_table_stats = false;
  EngineOptions too_many_keys;  // 2 distinct build keys > dpp_max_keys
  too_many_keys.dpp_max_keys = 1;
  EngineOptions one_worker;
  one_worker.num_workers = 1;
  for (const EngineOptions& opts :
       {dpp_off, no_stats, too_many_keys, one_worker}) {
    auto r = MakeEngine(opts).Execute("u", plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(pairs(r->batch), want);
  }
}

TEST_F(EngineTest, AggregateSumCountMinMaxAvg) {
  CreateLakeTable("sales", 1, 100);
  QueryEngine engine = MakeEngine();
  auto plan = Plan::Aggregate(
      Plan::Scan("ds.sales"), {"region"},
      {{AggOp::kCount, "", "n"},
       {AggOp::kSum, "qty", "total_qty"},
       {AggOp::kMin, "id", "min_id"},
       {AggOp::kMax, "id", "max_id"},
       {AggOp::kAvg, "price", "avg_price"}});
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->batch.num_rows(), 4u);
  // Sum of group counts == input rows.
  int n_idx = result->batch.schema()->FieldIndex("n");
  int64_t total = 0;
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    total += result->batch.GetValue(r, static_cast<size_t>(n_idx))
                 .int64_value();
  }
  EXPECT_EQ(total, 100);
  // min_id/max_id sane.
  int min_idx = result->batch.schema()->FieldIndex("min_id");
  int max_idx = result->batch.schema()->FieldIndex("max_id");
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    EXPECT_LE(result->batch.GetValue(r, static_cast<size_t>(min_idx))
                  .int64_value(),
              result->batch.GetValue(r, static_cast<size_t>(max_idx))
                  .int64_value());
  }
}

TEST_F(EngineTest, GlobalAggregateNoGroups) {
  CreateLakeTable("sales", 2, 30);
  QueryEngine engine = MakeEngine();
  auto result = engine.Execute(
      "u", Plan::Aggregate(Plan::Scan("ds.sales"), {},
                           {{AggOp::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->batch.num_rows(), 1u);
  EXPECT_EQ(result->batch.GetValue(0, 0), Value::Int64(60));
}

// A filter over a non-scan input that keeps no row leaves an empty
// selection: the aggregate above it sees no rows, not the whole batch.
TEST_F(EngineTest, AggregateOverAFilterThatKeepsNoRow) {
  auto schema = MakeSchema({{"g", DataType::kInt64, false},
                            {"x", DataType::kInt64, false}});
  RecordBatch values(schema, {Column::MakeInt64({1, 2, 2}),
                              Column::MakeInt64({5, 6, 7})});
  ExprPtr none = Expr::Lt(Expr::Col("x"), Expr::Lit(Value::Int64(0)));
  for (uint32_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(workers);
    EngineOptions opts;
    opts.num_workers = workers;
    QueryEngine engine = MakeEngine(opts);
    auto global = engine.Execute(
        "u", Plan::Aggregate(Plan::Filter(Plan::Values(values), none), {},
                             {{AggOp::kCount, "", "n"},
                              {AggOp::kSum, "x", "s"}}));
    ASSERT_TRUE(global.ok()) << global.status().ToString();
    ASSERT_EQ(global->batch.num_rows(), 1u);
    EXPECT_EQ(global->batch.GetValue(0, 0), Value::Int64(0));
    EXPECT_TRUE(global->batch.GetValue(0, 1).is_null());
    auto grouped = engine.Execute(
        "u", Plan::Aggregate(Plan::Filter(Plan::Values(values), none), {"g"},
                             {{AggOp::kCount, "", "n"}}));
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_EQ(grouped->batch.num_rows(), 0u);
  }
}

TEST_F(EngineTest, OrderByAndLimit) {
  CreateLakeTable("sales", 1, 50);
  QueryEngine engine = MakeEngine();
  auto plan = Plan::Limit(
      Plan::OrderBy(Plan::Scan("ds.sales"), {{"id", /*descending=*/true}}),
      5);
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->batch.num_rows(), 5u);
  EXPECT_EQ((*result->batch.ColumnByName("id"))->GetValue(0),
            Value::Int64(49));
  EXPECT_EQ((*result->batch.ColumnByName("id"))->GetValue(4),
            Value::Int64(45));
}

TEST_F(EngineTest, MapOperatorTransformsBatch) {
  CreateLakeTable("sales", 1, 10);
  QueryEngine engine = MakeEngine();
  auto plan = Plan::Map(
      Plan::Scan("ds.sales", {"id"}), "add_one",
      [](const RecordBatch& in) -> Result<RecordBatch> {
        auto expr = Expr::Arith(ArithOp::kAdd, Expr::Col("id"),
                                Expr::Lit(Value::Int64(1)));
        BL_ASSIGN_OR_RETURN(Column c, kernels::EvaluateColumn(*expr, in));
        return RecordBatch(
            MakeSchema({{"id_plus_one", DataType::kInt64, true}}), {c});
      });
  auto result = engine.Execute("u", plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.GetValue(0, 0), Value::Int64(1));
}

TEST_F(EngineTest, GovernanceAppliesToEngineScans) {
  std::string prefix = "gov/";
  BuildLake(prefix, 1, 100);
  TableDef def = MakeBigLakeDef("gov", prefix);
  RowAccessPolicy east;
  east.name = "east";
  east.grantees = {"user:alice"};
  east.filter = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  def.policy.row_policies = {east};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());
  QueryEngine engine = MakeEngine();
  auto alice = engine.Execute("user:alice", Plan::Scan("ds.gov"));
  ASSERT_TRUE(alice.ok());
  EXPECT_GT(alice->batch.num_rows(), 0u);
  EXPECT_LT(alice->batch.num_rows(), 100u);
  auto eve = engine.Execute("user:eve", Plan::Scan("ds.gov"));
  ASSERT_TRUE(eve.ok());
  EXPECT_EQ(eve->batch.num_rows(), 0u);
}

TEST_F(EngineTest, ErrorsPropagate) {
  QueryEngine engine = MakeEngine();
  EXPECT_FALSE(engine.Execute("u", nullptr).ok());
  EXPECT_TRUE(
      engine.Execute("u", Plan::Scan("ds.missing")).status().IsNotFound());
  CreateLakeTable("sales", 1, 5);
  EXPECT_FALSE(
      engine
          .Execute("u", Plan::OrderBy(Plan::Scan("ds.sales"), {{"nope"}}))
          .ok());
  EXPECT_FALSE(engine
                   .Execute("u", Plan::Aggregate(Plan::Scan("ds.sales"),
                                                 {"nope"}, {}))
                   .ok());
}

TEST_F(EngineTest, WallTimeBenefitsFromParallelStreams) {
  CreateLakeTable("wide", 16, 200);
  EngineOptions one_worker;
  one_worker.num_workers = 1;
  EngineOptions many_workers;
  many_workers.num_workers = 16;
  auto r1 = MakeEngine(one_worker).Execute("u", Plan::Scan("ds.wide"));
  auto r16 = MakeEngine(many_workers).Execute("u", Plan::Scan("ds.wide"));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r16.ok());
  EXPECT_EQ(r1->batch.num_rows(), r16->batch.num_rows());
  EXPECT_LT(r16->stats.wall_micros, r1->stats.wall_micros);
}

// ORDER BY compares typed key columns; it must order rows exactly as a
// stable sort on boxed Value::Compare does.
TEST(SortBatchTest, MatchesValueCompareStableSort) {
  Random rng(31);
  const size_t n = 400;
  std::vector<int64_t> ints(n), ts_runs;
  std::vector<double> dbls(n);
  std::vector<uint8_t> bools(n), int_valid(n), dbl_valid(n), str_valid(n);
  std::vector<uint32_t> idx(n), run_lengths;
  std::vector<std::string> strs(n);
  const std::vector<std::string> dict = {"b", "", std::string("a\0", 2), "a",
                                         "b"};
  for (size_t i = 0; i < n; ++i) {
    ints[i] = static_cast<int64_t>(rng.Uniform(5)) - 2;  // many ties
    int_valid[i] = rng.Uniform(6) != 0;
    static const double kD[] = {-0.0, 0.0, 1.5, -3.0, 1e300};
    dbls[i] = kD[rng.Uniform(5)];
    dbl_valid[i] = rng.Uniform(5) != 0;
    bools[i] = static_cast<uint8_t>(rng.Uniform(2));
    idx[i] = static_cast<uint32_t>(rng.Uniform(dict.size()));
    str_valid[i] = rng.Uniform(7) != 0;
    strs[i] = dict[rng.Uniform(dict.size())];
  }
  for (size_t left = n; left > 0;) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(left, 1 + rng.Uniform(9)));
    ts_runs.push_back(static_cast<int64_t>(rng.Uniform(4)) * 1000);
    run_lengths.push_back(len);
    left -= len;
  }
  auto schema = MakeSchema({{"i", DataType::kInt64, true},
                            {"d", DataType::kDouble, true},
                            {"b", DataType::kBool, false},
                            {"s", DataType::kString, true},
                            {"p", DataType::kBytes, false},
                            {"t", DataType::kTimestamp, false}});
  RecordBatch batch(
      schema,
      {Column::MakeInt64(ints, int_valid), Column::MakeDouble(dbls, dbl_valid),
       Column::MakeBool(bools),
       Column::MakeDictionaryString(idx, dict, str_valid),
       Column::MakeBytes(strs),
       Column::MakeRunLengthInt64(ts_runs, run_lengths, DataType::kTimestamp)});

  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Uniform(3) != 0) sel.push_back(i);
  }
  const std::vector<std::vector<SortKey>> key_sets = {
      {{"i"}},
      {{"i", true}},
      {{"d"}, {"i", true}},
      {{"s"}, {"b", true}, {"t"}},
      {{"t", true}, {"s", true}, {"d"}},
      {{"p"}, {"i"}},
      {{"b"}, {"d", true}, {"p", true}, {"i"}}};
  for (const auto& keys : key_sets) {
    const std::vector<const std::vector<uint32_t>*> selections = {nullptr,
                                                                   &sel};
    for (const std::vector<uint32_t>* selection : selections) {
      std::vector<uint32_t> order;
      if (selection != nullptr) {
        order = *selection;
      } else {
        for (uint32_t i = 0; i < n; ++i) order.push_back(i);
      }
      std::stable_sort(order.begin(), order.end(), [&](uint32_t a,
                                                       uint32_t b) {
        for (const SortKey& k : keys) {
          const size_t c =
              static_cast<size_t>(batch.schema()->FieldIndex(k.column));
          int cmp = batch.GetValue(a, c).Compare(batch.GetValue(b, c));
          if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      auto got = ops::SortBatch(batch, keys, selection);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(SerializeBatch(*got), SerializeBatch(batch.Gather(order)))
          << keys.size() << " keys, selection " << (selection != nullptr);
    }
  }
}

}  // namespace
}  // namespace biglake
