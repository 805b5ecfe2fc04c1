#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "core/blmt.h"
#include "engine/engine.h"
#include "engine/sql_parser.h"
#include "extengine/spark_lite.h"
#include "lakehouse_fixture.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

class SparkLiteTest : public LakehouseFixture {
 protected:
  SparkLiteTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {}

  void CreateLakeTable(const std::string& name, int files, size_t rows) {
    std::string prefix = name + "/";
    BuildLake(prefix, files, rows);
    ASSERT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef(name, prefix)).ok());
  }

  SparkLiteEngine MakeSpark(SparkOptions opts = {}) {
    return SparkLiteEngine(&lake_, &api_, opts);
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
};

TEST_F(SparkLiteTest, ConnectorScanReadsAllRows) {
  CreateLakeTable("sales", 4, 50);
  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadBigLake("ds.sales").Collect("user:x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 200u);
  EXPECT_GE(result->stats.read_streams, 1u);
}

TEST_F(SparkLiteTest, FilterPushesDownIntoConnector) {
  CreateLakeTable("sales", 8, 50);
  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadBigLake("ds.sales")
                    .Filter(Expr::Eq(Expr::Col("date"),
                                     Expr::Lit(Value::Int64(2))))
                    .Collect("user:x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 50u);
  EXPECT_EQ(result->stats.files_pruned, 7u);  // pushdown reached BigLake
}

// A pushed aggregate whose predicate prunes every file reads no rows; its
// streams answer zero partial-aggregate rows and the global aggregate
// still returns its one SQL row (COUNT 0, SUM NULL).
TEST_F(SparkLiteTest, PushedAggregateOverPrunedFilesReturnsOneRow) {
  CreateLakeTable("sales", 4, 50);
  QueryEngine engine(&lake_, &api_);
  ExprPtr none = Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(99)));
  const std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                                     {AggOp::kSum, "qty", "units"}};
  for (uint32_t executors : {1u, 2u, 8u}) {
    SCOPED_TRACE(executors);
    SparkOptions opts;
    opts.executors = executors;
    SparkLiteEngine spark = MakeSpark(opts);
    auto got = spark.ReadBigLake("ds.sales")
                   .Filter(none)
                   .Aggregate({}, aggs)
                   .Collect("user:x");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->stats.aggregates_pushed, 1u);
    EXPECT_EQ(got->stats.files_pruned, 4u);
    ASSERT_EQ(got->batch.num_rows(), 1u);
    EXPECT_EQ(got->batch.GetValue(0, 0), Value::Int64(0));
    EXPECT_TRUE(got->batch.GetValue(0, 1).is_null());
    auto want = engine.Execute(
        "user:x", Plan::Aggregate(Plan::Scan("ds.sales", {}, none), {}, aggs));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(SerializeBatch(got->batch), SerializeBatch(want->batch));
  }
}

// A STRING hive partition column keeps its type when every file is pruned:
// the empty pushed aggregate grouped by it has the schema of a non-empty one.
TEST_F(SparkLiteTest, PrunedPushedAggregateKeepsStringPartitionType) {
  for (int f = 0; f < 3; ++f) {
    auto bytes = WriteParquetFile(SalesBatch(20, f * 1000, 200 + f));
    ASSERT_TRUE(bytes.ok());
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    ASSERT_TRUE(store_
                    ->Put(GcpCaller(), "lake",
                          "shops/shop=s" + std::to_string(f) + "/part-0.plk",
                          *bytes, po)
                    .ok());
  }
  TableDef def = MakeBigLakeDef("shops", "shops/");
  def.partition_columns = {"shop"};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());
  SparkLiteEngine spark = MakeSpark();
  auto run = [&](const char* shop) {
    return spark.ReadBigLake("ds.shops")
        .Filter(Expr::Eq(Expr::Col("shop"), Expr::Lit(Value::String(shop))))
        .Aggregate({"shop"}, {{AggOp::kCount, "", "n"}})
        .Collect("user:x");
  };
  auto none = run("zz");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->stats.files_pruned, 3u);
  EXPECT_EQ(none->batch.num_rows(), 0u);
  auto one = run("s1");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->batch.num_rows(), 1u);
  EXPECT_EQ(one->batch.GetValue(0, 0), Value::String("s1"));
  EXPECT_EQ(none->batch.schema()->ToString(), one->batch.schema()->ToString());
}

TEST_F(SparkLiteTest, SelectPushesProjection) {
  CreateLakeTable("sales", 2, 30);
  SparkLiteEngine spark = MakeSpark();
  auto result =
      spark.ReadBigLake("ds.sales").Select({"id", "qty"}).Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_columns(), 2u);
}

TEST_F(SparkLiteTest, JoinAndAggregate) {
  CreateLakeTable("sales", 2, 100);
  TableDef dim;
  dim.dataset = "ds";
  dim.name = "regions";
  dim.schema = MakeSchema({{"r_name", DataType::kString, false},
                           {"r_manager", DataType::kString, false}});
  dim.connection = "us.lake-conn";
  dim.location = gcp_;
  dim.bucket = "lake";
  dim.prefix = "regions/";
  dim.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(dim).ok());
  BatchBuilder b(dim.schema);
  for (const char* r : {"east", "west", "north", "south"}) {
    ASSERT_TRUE(
        b.AppendRow({Value::String(r), Value::String("mgr")}).ok());
  }
  ASSERT_TRUE(blmt_.Insert("u", "ds.regions", b.Finish()).ok());

  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadBigLake("ds.regions")
                    .Join(spark.ReadBigLake("ds.sales"), {"r_name"},
                          {"region"})
                    .Aggregate({"r_name"}, {{AggOp::kCount, "", "n"}})
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->batch.num_rows(), 4u);
  int64_t total = 0;
  int n_idx = result->batch.schema()->FieldIndex("n");
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    total += result->batch.GetValue(r, static_cast<size_t>(n_idx))
                 .int64_value();
  }
  EXPECT_EQ(total, 200);
}

TEST_F(SparkLiteTest, SessionStatsDriveBuildSideSwap) {
  CreateLakeTable("big", 4, 200);
  CreateLakeTable("small", 1, 10);
  SparkOptions with_stats;
  SparkLiteEngine spark = MakeSpark(with_stats);
  // Big table written on the build side.
  auto result = spark.ReadBigLake("ds.big")
                    .Join(spark.ReadBigLake("ds.small"), {"region"},
                          {"region"})
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.build_side_swaps, 1u);

  SparkOptions no_stats;
  no_stats.use_session_stats = false;
  SparkLiteEngine dumb = MakeSpark(no_stats);
  auto dumb_result = dumb.ReadBigLake("ds.big")
                         .Join(dumb.ReadBigLake("ds.small"), {"region"},
                               {"region"})
                         .Collect("u");
  ASSERT_TRUE(dumb_result.ok());
  EXPECT_EQ(dumb_result->stats.build_side_swaps, 0u);
  EXPECT_EQ(dumb_result->batch.num_rows(), result->batch.num_rows());
}

TEST_F(SparkLiteTest, DppPushesInListAndPrunes) {
  CreateLakeTable("fact", 10, 40);
  TableDef dim;
  dim.dataset = "ds";
  dim.name = "dates";
  dim.schema = MakeSchema({{"date_key", DataType::kInt64, false}});
  dim.connection = "us.lake-conn";
  dim.location = gcp_;
  dim.bucket = "lake";
  dim.prefix = "dates/";
  dim.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(dim).ok());
  BatchBuilder b(dim.schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(4)}).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.dates", b.Finish()).ok());

  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadBigLake("ds.dates")
                    .Join(spark.ReadBigLake("ds.fact"), {"date_key"},
                          {"date"})
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 40u);
  // The fact scan's one session carried the IN-list and pruned with it.
  EXPECT_EQ(result->stats.dpp_scans, 1u);
  EXPECT_GE(result->stats.files_pruned, 9u);
}

TEST_F(SparkLiteTest, GovernanceAppliesIdenticallyToSparkReads) {
  std::string prefix = "gov/";
  BuildLake(prefix, 1, 100);
  TableDef def = MakeBigLakeDef("gov", prefix);
  RowAccessPolicy east;
  east.name = "east";
  east.grantees = {"user:alice"};
  east.filter = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  def.policy.row_policies = {east};
  ColumnRule mask_email;
  mask_email.clear_readers = {"user:admin"};
  mask_email.mask = MaskType::kRedact;
  def.policy.column_rules["email"] = mask_email;
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  SparkLiteEngine spark = MakeSpark();
  auto alice = spark.ReadBigLake("ds.gov").Collect("user:alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_GT(alice->batch.num_rows(), 0u);
  EXPECT_LT(alice->batch.num_rows(), 100u);
  // Masked column arrives redacted: Spark never sees plaintext.
  auto email = alice->batch.ColumnByName("email");
  ASSERT_TRUE(email.ok());
  EXPECT_EQ((*email)->GetValue(0), Value::String("REDACTED"));
  // Principal with no row policy: zero rows.
  auto eve = spark.ReadBigLake("ds.gov").Collect("user:eve");
  ASSERT_TRUE(eve.ok());
  EXPECT_EQ(eve->batch.num_rows(), 0u);
}

// Spark-lite's governed read filters a masked column on its masked values,
// like the engine does.
TEST_F(SparkLiteTest, MaskedColumnFilterSeesMaskedValues) {
  CreatePeopleTable(&biglake_);
  SparkLiteEngine spark = MakeSpark();
  auto df = spark.ReadBigLake("ds.people")
                .Filter(Expr::Eq(Expr::Col("email"),
                                 Expr::Lit(Value::String("emp3@acme.com"))))
                .Select({"emp_id", "email"});
  auto analyst = df.Collect("user:hr-analyst");
  ASSERT_TRUE(analyst.ok()) << analyst.status().ToString();
  EXPECT_EQ(analyst->batch.num_rows(), 0u);
  auto officer = df.Collect("user:privacy-officer");
  ASSERT_TRUE(officer.ok()) << officer.status().ToString();
  EXPECT_EQ(officer->batch.num_rows(), 1u);
}

// A pushed aggregate folds only what the caller may see: it agrees with
// the engine aggregating its governed scan, and a denied input fails it.
TEST_F(SparkLiteTest, PushedAggregateIsGovernedLikeTheEngine) {
  CreatePeopleTable(&biglake_);
  SparkLiteEngine spark = MakeSpark();
  QueryEngine engine(&lake_, &api_);
  const std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                                     {AggOp::kMax, "salary", "top"}};
  for (const char* group : {"dept", "email"}) {
    SCOPED_TRACE(group);
    auto pushed = spark.ReadBigLake("ds.people")
                      .Aggregate({group}, aggs)
                      .Collect("user:hr-analyst");
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->stats.aggregates_pushed, 1u);
    auto want = engine.Execute(
        "user:hr-analyst",
        Plan::Aggregate(Plan::Scan("ds.people"), {group}, aggs));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(pushed->batch.num_rows(), want->batch.num_rows());
    std::set<Value> got_keys;
    std::set<Value> want_keys;
    for (size_t r = 0; r < pushed->batch.num_rows(); ++r) {
      got_keys.insert(pushed->batch.GetValue(r, 0));
      want_keys.insert(want->batch.GetValue(r, 0));
    }
    EXPECT_TRUE(got_keys == want_keys);
    EXPECT_EQ(got_keys.count(Value::String("emp3@acme.com")), 0u);
  }
  auto denied = spark.ReadBigLake("ds.people")
                    .Select({"dept"})
                    .Aggregate({"dept"}, {{AggOp::kSum, "salary", "total"}})
                    .Collect("user:eng-manager");
  EXPECT_TRUE(denied.status().IsPermissionDenied());
}

TEST_F(SparkLiteTest, DirectScanBypassesGovernanceButPaysListing) {
  std::string prefix = "direct/";
  BuildLake(prefix, 5, 40);
  TableDef def = MakeBigLakeDef("direct", prefix);
  RowAccessPolicy none;
  none.name = "nobody";
  none.grantees = {"user:nobody"};
  none.filter = Expr::Eq(Expr::Col("id"), Expr::Lit(Value::Int64(-1)));
  def.policy.row_policies = {none};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  SparkLiteEngine spark = MakeSpark();
  // Through the connector, eve sees nothing.
  auto governed = spark.ReadBigLake("ds.direct").Collect("user:eve");
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(governed->batch.num_rows(), 0u);
  // With raw bucket credentials, the direct path sees everything — this is
  // exactly the bypass the delegated access model exists to prevent.
  auto direct =
      spark.ReadParquetDirect(gcp_, "lake", prefix).Collect("user:eve");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->batch.num_rows(), 200u);
  EXPECT_GE(direct->stats.direct_list_calls, 1u);
}

TEST_F(SparkLiteTest, DirectScanPrunesWithFooterStatsOnly) {
  std::string prefix = "dstats/";
  BuildLake(prefix, 6, 30);
  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadParquetDirect(gcp_, "lake", prefix)
                    .Filter(Expr::Eq(Expr::Col("date"),
                                     Expr::Lit(Value::Int64(3))))
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 30u);
  EXPECT_EQ(result->stats.files_pruned, 5u);
}

// A direct scan applies its whole predicate, even on columns outside the
// projection or on hive partition columns, and a scan whose every file is
// pruned returns no rows rather than an error.
TEST_F(SparkLiteTest, DirectScanAppliesPredicateOnUnreadColumns) {
  std::string prefix = "dpred/";
  BuildLake(prefix, 3, 40);  // date=0..2, ids 0..39, 1000..1039, 2000..2039
  SparkLiteEngine spark = MakeSpark();
  auto id_lt_10 = Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(10)));
  auto date_is = [](int64_t d) {
    return Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(d)));
  };

  auto projected = spark.ReadParquetDirect(gcp_, "lake", prefix)
                       .Select({"qty"})
                       .Filter(id_lt_10)
                       .Collect("u");
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_EQ(projected->batch.num_rows(), 10u);
  ASSERT_EQ(projected->batch.num_columns(), 1u);
  EXPECT_EQ(projected->batch.schema()->field(0).name, "qty");

  auto partition = spark.ReadParquetDirect(gcp_, "lake", prefix)
                       .Filter(Expr::And(date_is(0), id_lt_10))
                       .Collect("u");
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_EQ(partition->batch.num_rows(), 10u);
  EXPECT_EQ(partition->batch.schema()->FieldIndex("date"), -1);

  auto pruned = spark.ReadParquetDirect(gcp_, "lake", prefix)
                    .Filter(Expr::And(date_is(1), id_lt_10))
                    .Collect("u");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->batch.num_rows(), 0u);
  EXPECT_EQ(pruned->stats.files_pruned, 3u);
  EXPECT_EQ(pruned->batch.num_columns(), SalesSchema()->num_fields());

  // A predicate that cannot be evaluated is an error, not a no-op.
  auto bad = spark.ReadParquetDirect(gcp_, "lake", prefix)
                 .Filter(Expr::Gt(Expr::Arith(ArithOp::kAdd, Expr::Col("region"),
                                              Expr::Lit(Value::Int64(1))),
                                  Expr::Lit(Value::Int64(3))))
                 .Collect("u");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SparkLiteTest, DirectScanErrorsWithoutFiles) {
  SparkLiteEngine spark = MakeSpark();
  EXPECT_FALSE(
      spark.ReadParquetDirect(gcp_, "lake", "empty/").Collect("u").ok());
}

TEST_F(SparkLiteTest, OrderByAndLimit) {
  CreateLakeTable("sales", 1, 30);
  SparkLiteEngine spark = MakeSpark();
  auto result = spark.ReadBigLake("ds.sales")
                    .OrderBy({{"id", true}})
                    .Limit(3)
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->batch.num_rows(), 3u);
  EXPECT_EQ((*result->batch.ColumnByName("id"))->GetValue(0),
            Value::Int64(29));
}


// ---- Differential: Spark-lite vs the engine ---------------------------------

using Rows = std::vector<std::vector<Value>>;

Rows SortedRows(const RecordBatch& batch) {
  Rows rows(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      rows[r].push_back(batch.GetValue(r, c));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Empty when equal: same column names, same sorted rows, doubles within
/// 1e-9 relative (partial aggregates add in another order).
std::string Diff(const RecordBatch& got, const RecordBatch& want) {
  std::vector<std::string> got_names;
  std::vector<std::string> want_names;
  for (const Field& f : got.schema()->fields()) got_names.push_back(f.name);
  for (const Field& f : want.schema()->fields()) want_names.push_back(f.name);
  if (got_names != want_names) return "schemas differ";
  Rows a = SortedRows(got);
  Rows b = SortedRows(want);
  if (a.size() != b.size()) {
    return "row counts " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.is_double() && y.is_double()) {
        const double tol =
            1e-9 * std::max({1.0, std::fabs(x.double_value()),
                             std::fabs(y.double_value())});
        if (std::fabs(x.double_value() - y.double_value()) <= tol) continue;
      }
      if (!(x == y)) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + x.ToString() + " vs " + y.ToString();
      }
    }
  }
  return "";
}

/// Small TPC-H-lite and TPC-DS-lite worlds: lineitem and store_sales live on
/// object storage (store_sales hive-partitioned by ss_sold_date), the rest
/// are BLMTs.
class SparkEngineDifferentialTest : public LakehouseFixture {
 protected:
  SparkEngineDifferentialTest()
      : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {
    TpchScale h;
    h.lineitem_rows = 3000;
    h.num_orders = 600;
    h.num_customers = 60;
    h.num_files = 6;
    auto tpch = SetupTpch(&lake_, &biglake_, &blmt_, store_, "lake", "tpch/",
                          "ds", h, "us.lake-conn");
    EXPECT_TRUE(tpch.ok()) << tpch.status().ToString();
    if (tpch.ok()) tpch_ = *tpch;
    TpcdsScale d;
    d.days = 8;
    d.rows_per_day = 300;
    d.num_items = 60;
    d.num_customers = 80;
    d.num_stores = 6;
    auto tpcds = SetupTpcds(&lake_, &biglake_, &blmt_, store_, "lake",
                            "tpcds/", "ds", d, /*cached=*/true,
                            "us.lake-conn");
    EXPECT_TRUE(tpcds.ok()) << tpcds.status().ToString();
    if (tpcds.ok()) tpcds_ = *tpcds;
  }

  /// One query shape: the DataFrame and the hand-built engine plan that
  /// must return the same rows.
  struct Shape {
    std::string name;
    std::function<DataFrame(SparkLiteEngine&)> frame;
    PlanPtr plan;
  };

  std::vector<Shape> Shapes() const {
    const TpchTables h = tpch_;
    const TpcdsTables d = tpcds_;
    ExprPtr early = Expr::Lt(Expr::Col("l_shipdate"),
                             Expr::Lit(Value::Int64(90)));
    ExprPtr building = Expr::Eq(Expr::Col("cu_mktsegment"),
                                Expr::Lit(Value::String("BUILDING")));
    ExprPtr holiday = Expr::Eq(Expr::Col("d_is_holiday"),
                               Expr::Lit(Value::Bool(true)));
    // A day past the data: every store_sales file is pruned.
    ExprPtr no_day = Expr::Eq(Expr::Col("ss_sold_date"),
                              Expr::Lit(Value::Int64(99)));
    std::vector<AggSpec> pushable = {
        {AggOp::kCount, "", "n"},
        {AggOp::kSum, "l_extendedprice", "revenue"},
        {AggOp::kMin, "l_quantity", "min_qty"},
        {AggOp::kMax, "l_shipdate", "last_ship"}};
    std::vector<AggSpec> avg = {{AggOp::kAvg, "l_discount", "avg_disc"},
                                {AggOp::kCount, "", "n"}};
    std::vector<AggSpec> revenue = {
        {AggOp::kSum, "l_extendedprice", "revenue"}};
    std::vector<AggSpec> profit = {{AggOp::kSum, "ss_net_profit", "profit"}};
    std::vector<AggSpec> sales = {{AggOp::kSum, "ss_sales_price", "sales"},
                                  {AggOp::kCount, "", "n"}};
    return {
        {"scan", [=](SparkLiteEngine& e) { return e.ReadBigLake(h.orders); },
         Plan::Scan(h.orders)},
        {"filter_select",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.lineitem)
               .Filter(early)
               .Select({"l_orderkey", "l_extendedprice"});
         },
         Plan::Project(Plan::Filter(Plan::Scan(h.lineitem), early),
                       {"l_orderkey", "l_extendedprice"},
                       {Expr::Col("l_orderkey"),
                        Expr::Col("l_extendedprice")})},
        {"join_small_left",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.customer)
               .Join(e.ReadBigLake(h.orders), {"cu_custkey"}, {"o_custkey"});
         },
         Plan::HashJoin(Plan::Scan(h.customer), Plan::Scan(h.orders),
                        {"cu_custkey"}, {"o_custkey"})},
        {"join_big_left",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.orders)
               .Join(e.ReadBigLake(h.customer), {"o_custkey"}, {"cu_custkey"});
         },
         Plan::HashJoin(Plan::Scan(h.orders), Plan::Scan(h.customer),
                        {"o_custkey"}, {"cu_custkey"})},
        {"filter_select_over_join",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.orders)
               .Join(e.ReadBigLake(h.customer), {"o_custkey"}, {"cu_custkey"})
               .Filter(building)
               .Select({"o_orderkey", "cu_mktsegment"});
         },
         Plan::Project(
             Plan::Filter(
                 Plan::HashJoin(Plan::Scan(h.orders), Plan::Scan(h.customer),
                                {"o_custkey"}, {"cu_custkey"}),
                 building),
             {"o_orderkey", "cu_mktsegment"},
             {Expr::Col("o_orderkey"), Expr::Col("cu_mktsegment")})},
        {"q3_join_sort_limit",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.customer)
               .Filter(building)
               .Join(e.ReadBigLake(h.orders), {"cu_custkey"}, {"o_custkey"})
               .Join(e.ReadBigLake(h.lineitem), {"o_orderkey"},
                     {"l_orderkey"})
               .Aggregate({"o_orderkey"}, revenue)
               .OrderBy({{"revenue", true}})
               .Limit(10);
         },
         Plan::Limit(
             Plan::OrderBy(
                 Plan::Aggregate(
                     Plan::HashJoin(
                         Plan::HashJoin(
                             Plan::Filter(Plan::Scan(h.customer), building),
                             Plan::Scan(h.orders), {"cu_custkey"},
                             {"o_custkey"}),
                         Plan::Scan(h.lineitem), {"o_orderkey"},
                         {"l_orderkey"}),
                     {"o_orderkey"}, revenue),
                 {{"revenue", true}}),
             10)},
        {"snowflake_dpp",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(d.date_dim)
               .Filter(holiday)
               .Join(e.ReadBigLake(d.store_sales), {"d_date_key"},
                     {"ss_sold_date"})
               .Aggregate({}, profit);
         },
         Plan::Aggregate(
             Plan::HashJoin(Plan::Filter(Plan::Scan(d.date_dim), holiday),
                            Plan::Scan(d.store_sales), {"d_date_key"},
                            {"ss_sold_date"}),
             {}, profit)},
        {"pushable_aggregate",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.lineitem)
               .Filter(early)
               .Aggregate({"l_returnflag"}, pushable);
         },
         Plan::Aggregate(Plan::Scan(h.lineitem, {}, early), {"l_returnflag"},
                         pushable)},
        {"avg_aggregate",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(h.lineitem).Aggregate({"l_returnflag"}, avg);
         },
         Plan::Aggregate(Plan::Scan(h.lineitem), {"l_returnflag"}, avg)},
        {"pruned_pushed_aggregate",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(d.store_sales)
               .Filter(no_day)
               .Aggregate({}, sales);
         },
         Plan::Aggregate(Plan::Scan(d.store_sales, {}, no_day), {}, sales)},
        {"aggregate_over_join",
         [=](SparkLiteEngine& e) {
           return e.ReadBigLake(d.store_sales)
               .Join(e.ReadBigLake(d.customer), {"ss_customer_id"},
                     {"c_customer_id"})
               .Aggregate({"c_region"}, sales);
         },
         Plan::Aggregate(
             Plan::HashJoin(Plan::Scan(d.store_sales), Plan::Scan(d.customer),
                            {"ss_customer_id"}, {"c_customer_id"}),
             {"c_region"}, sales)},
    };
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
  TpchTables tpch_;
  TpcdsTables tpcds_;
};

TEST_F(SparkEngineDifferentialTest, SameRowsAsTheEngineAtAnyExecutorCount) {
  for (uint32_t executors : {1u, 2u, 8u}) {
    SparkOptions opts;
    opts.executors = executors;
    SparkLiteEngine spark(&lake_, &api_, opts);
    EngineOptions engine_opts;
    engine_opts.num_workers = executors;
    QueryEngine engine(&lake_, &api_, engine_opts);
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(shape.name + " @ " + std::to_string(executors));
      auto got = shape.frame(spark).Collect("u");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = engine.Execute("u", shape.plan);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_GT(want->batch.num_rows(), 0u);
      EXPECT_EQ(Diff(got->batch, want->batch), "");
      if (shape.name == "snowflake_dpp") {
        EXPECT_EQ(got->stats.dpp_scans, 1u);
        EXPECT_GT(got->stats.files_pruned, 0u);
      }
      EXPECT_EQ(got->stats.aggregates_pushed,
                shape.name == "pushable_aggregate" ||
                        shape.name == "pruned_pushed_aggregate"
                    ? 1u
                    : 0u);
    }
  }
}

// SQL's empty global aggregate: no row passes the filter, and the engine
// returns one row (COUNT 0, SUM NULL) at every worker count.
TEST_F(SparkEngineDifferentialTest, EmptyGlobalAggregateReturnsOneRow) {
  auto plan = ParseSql(
      "SELECT COUNT(*) AS n, SUM(ss_sales_price) AS s FROM ds.store_sales "
      "WHERE ss_sold_date = 99");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string first;
  for (uint32_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(workers);
    EngineOptions opts;
    opts.num_workers = workers;
    QueryEngine engine(&lake_, &api_, opts);
    auto got = engine.Execute("u", *plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->batch.num_rows(), 1u);
    EXPECT_EQ(got->batch.GetValue(0, 0), Value::Int64(0));
    EXPECT_TRUE(got->batch.GetValue(0, 1).is_null());
    if (first.empty()) first = SerializeBatch(got->batch);
    EXPECT_EQ(SerializeBatch(got->batch), first);
  }
}

TEST_F(SparkEngineDifferentialTest, RepeatedCollectIsBitIdentical) {
  SparkOptions opts;
  opts.executors = 8;
  SparkLiteEngine spark(&lake_, &api_, opts);
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    DataFrame df = shape.frame(spark);
    SimMicros t0 = lake_.sim().clock().Now();
    auto first = df.Collect("u");
    SimMicros t1 = lake_.sim().clock().Now();
    auto second = df.Collect("u");
    SimMicros t2 = lake_.sim().clock().Now();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(SerializeBatch(first->batch), SerializeBatch(second->batch));
    EXPECT_EQ(t1 - t0, t2 - t1);
    const SparkQueryStats& a = first->stats;
    const SparkQueryStats& b = second->stats;
    EXPECT_EQ(a.wall_micros, b.wall_micros);
    EXPECT_EQ(a.total_micros, b.total_micros);
    EXPECT_EQ(a.rows_returned, b.rows_returned);
    EXPECT_EQ(a.files_scanned, b.files_scanned);
    EXPECT_EQ(a.files_pruned, b.files_pruned);
    EXPECT_EQ(a.read_streams, b.read_streams);
    EXPECT_EQ(a.build_side_swaps, b.build_side_swaps);
    EXPECT_EQ(a.dpp_scans, b.dpp_scans);
    EXPECT_EQ(a.direct_list_calls, b.direct_list_calls);
    EXPECT_EQ(a.aggregates_pushed, b.aggregates_pushed);
  }
}

}  // namespace
}  // namespace biglake
