#include <gtest/gtest.h>

#include "core/blmt.h"
#include "extengine/spark_lite.h"
#include "lakehouse_fixture.h"

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
  EXPECT_GE(result->stats.sessions_created, 1u);
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

TEST_F(SparkLiteTest, DppRecreatesSessionAndPrunes) {
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
  EXPECT_EQ(result->stats.dpp_scans, 1u);
  EXPECT_GE(result->stats.files_pruned, 9u);
  // DPP recreated the fact read session.
  EXPECT_GE(result->stats.sessions_created, 2u);
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

}  // namespace
}  // namespace biglake
