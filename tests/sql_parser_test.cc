#include <gtest/gtest.h>

#include "core/blmt.h"
#include "engine/engine.h"
#include "engine/optimizer.h"
#include "engine/sql_parser.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

// ---- Pure parsing tests ------------------------------------------------------

TEST(SqlParserTest, SelectStar) {
  auto plan = ParseSql("SELECT * FROM ds.sales");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, Plan::Kind::kScan);
  EXPECT_EQ((*plan)->table_id, "ds.sales");
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSql("select * from ds.sales").ok());
  EXPECT_TRUE(ParseSql("Select * From ds.sales").ok());
}

TEST(SqlParserTest, TableNamePreservesCase) {
  auto plan = ParseSql("SELECT * FROM MyDataset.OrdersTable");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->table_id, "MyDataset.OrdersTable");
}

// The parser always emits WHERE as a Filter; the optimizer is the one place
// it moves into the scan.
TEST(SqlParserTest, WherePushedIntoSingleTableScan) {
  auto plan = ParseSql("SELECT * FROM ds.sales WHERE id < 10");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->kind, Plan::Kind::kFilter);
  EXPECT_EQ((*plan)->filter->ToString(), "(id < 10)");
  EXPECT_EQ((*plan)->children[0]->kind, Plan::Kind::kScan);

  Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("ds").ok());
  TableDef def;
  def.dataset = "ds";
  def.name = "sales";
  def.kind = TableKind::kManaged;
  def.schema = MakeSchema({{"id", DataType::kInt64, false}});
  ASSERT_TRUE(catalog.CreateTable(def).ok());
  PlanPtr optimized = OptimizePlan(catalog, *plan);
  EXPECT_EQ(optimized->kind, Plan::Kind::kScan);
  ASSERT_NE(optimized->scan_predicate, nullptr);
  EXPECT_EQ(optimized->scan_predicate->ToString(), "(id < 10)");
}

TEST(SqlParserTest, ProjectionWithAliases) {
  auto plan =
      ParseSql("SELECT id, qty * 2 AS double_qty FROM ds.sales");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, Plan::Kind::kProject);
  ASSERT_EQ((*plan)->project_names.size(), 2u);
  EXPECT_EQ((*plan)->project_names[0], "id");
  EXPECT_EQ((*plan)->project_names[1], "double_qty");
}

TEST(SqlParserTest, AggregatesAndGroupBy) {
  auto plan = ParseSql(
      "SELECT region, COUNT(*) AS n, SUM(qty) AS total, AVG(price), "
      "MIN(id), MAX(id) FROM ds.sales GROUP BY region");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, Plan::Kind::kAggregate);
  EXPECT_EQ((*plan)->group_by, (std::vector<std::string>{"region"}));
  ASSERT_EQ((*plan)->aggregates.size(), 5u);
  EXPECT_EQ((*plan)->aggregates[0].op, AggOp::kCount);
  EXPECT_EQ((*plan)->aggregates[0].output, "n");
  EXPECT_EQ((*plan)->aggregates[1].op, AggOp::kSum);
  EXPECT_EQ((*plan)->aggregates[2].op, AggOp::kAvg);
  EXPECT_EQ((*plan)->aggregates[2].output, "avg_price");
}

TEST(SqlParserTest, GlobalAggregateWithoutGroupBy) {
  auto plan = ParseSql("SELECT COUNT(*) FROM ds.sales");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, Plan::Kind::kAggregate);
  EXPECT_TRUE((*plan)->group_by.empty());
}

TEST(SqlParserTest, JoinWithAliasesAndQualifiedColumns) {
  auto plan = ParseSql(
      "SELECT o.order_id, ads.id FROM local_dataset.ads_impressions AS ads "
      "JOIN aws_dataset.customer_orders AS o "
      "ON o.customer_id = ads.customer_id");
  ASSERT_TRUE(plan.ok());
  // Project over HashJoin over two scans.
  EXPECT_EQ((*plan)->kind, Plan::Kind::kProject);
  const Plan& join = *(*plan)->children[0];
  EXPECT_EQ(join.kind, Plan::Kind::kHashJoin);
  EXPECT_EQ(join.left_keys, (std::vector<std::string>{"customer_id"}));
  EXPECT_EQ(join.children[0]->table_id, "local_dataset.ads_impressions");
  EXPECT_EQ(join.children[1]->table_id, "aws_dataset.customer_orders");
}

TEST(SqlParserTest, MultiKeyJoin) {
  auto plan = ParseSql(
      "SELECT * FROM ds.a JOIN ds.b ON a.x = b.x AND a.y = b.y");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->left_keys.size(), 2u);
}

TEST(SqlParserTest, OrderByAndLimit) {
  auto plan = ParseSql(
      "SELECT * FROM ds.sales ORDER BY price DESC, id ASC LIMIT 10");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, Plan::Kind::kLimit);
  EXPECT_EQ((*plan)->limit, 10u);
  const Plan& order = *(*plan)->children[0];
  EXPECT_EQ(order.kind, Plan::Kind::kOrderBy);
  ASSERT_EQ(order.sort_keys.size(), 2u);
  EXPECT_TRUE(order.sort_keys[0].descending);
  EXPECT_FALSE(order.sort_keys[1].descending);
}

TEST(SqlParserTest, ComplexPredicates) {
  auto plan = ParseSql(
      "SELECT * FROM ds.t WHERE (a > 1 AND b <= 2.5) OR NOT c = 'x'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->filter->ToString(),
            "(((a > 1) AND (b <= 2.5)) OR NOT (c = 'x'))");
}

TEST(SqlParserTest, InListIsNullAndBooleans) {
  auto plan = ParseSql(
      "SELECT * FROM ds.t WHERE a IN (1, 2, 3) AND b IS NOT NULL AND "
      "c = TRUE AND d IS NULL");
  ASSERT_TRUE(plan.ok());
  std::string s = (*plan)->filter->ToString();
  EXPECT_NE(s.find("a IN (1, 2, 3)"), std::string::npos);
  EXPECT_NE(s.find("NOT b IS NULL"), std::string::npos);
  EXPECT_NE(s.find("d IS NULL"), std::string::npos);
}

TEST(SqlParserTest, NotInList) {
  auto plan = ParseSql("SELECT * FROM ds.t WHERE a NOT IN (5, 6)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->filter->ToString(), "NOT a IN (5, 6)");
}

TEST(SqlParserTest, ArithmeticPrecedence) {
  auto plan = ParseSql("SELECT a + b * 2 AS v FROM ds.t");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->project_exprs[0]->ToString(), "(a + (b * 2))");
}

TEST(SqlParserTest, NegativeLiterals) {
  auto plan = ParseSql("SELECT * FROM ds.t WHERE x > -5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->filter->ToString(), "(x > -5)");
}

TEST(SqlParserTest, StringEscapesAndComparison) {
  auto plan = ParseSql("SELECT * FROM ds.t WHERE name != 'east'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->filter->ToString(), "(name != 'east')");
  // <> is a synonym.
  auto plan2 = ParseSql("SELECT * FROM ds.t WHERE name <> 'east'");
  ASSERT_TRUE(plan2.ok());
  EXPECT_EQ((*plan2)->filter->ToString(), "(name != 'east')");
}

TEST(SqlParserTest, ErrorsAreInvalidArgumentWithOffsets) {
  for (const char* bad :
       {"",                                     // empty
        "SELECT",                               // missing select list
        "SELECT * FROM",                        // missing table
        "SELECT * WHERE x = 1",                 // missing FROM
        "SELECT * FROM ds.t WHERE",             // dangling WHERE
        "SELECT * FROM ds.t LIMIT x",           // non-integer limit
        "SELECT * FROM ds.t WHERE x = 'open",   // unterminated string
        "SELECT SUM(*) FROM ds.t",              // * only for COUNT
        "SELECT * FROM ds.t trailing garbage ;",  // trailing tokens
        "SELECT a FROM ds.t GROUP BY b",        // a not in GROUP BY
        "SELECT * FROM ds.t WHERE x @ 1"}) {    // bad character
    auto plan = ParseSql(bad);
    EXPECT_FALSE(plan.ok()) << bad;
    EXPECT_TRUE(plan.status().IsInvalidArgument()) << bad;
  }
}

// ---- SQL -> execution integration ---------------------------------------------

class SqlExecutionTest : public LakehouseFixture {
 protected:
  SqlExecutionTest() : api_(&lake_), biglake_(&lake_), engine_(&lake_, &api_) {
    BuildLake("sales/", 4, 50);
    EXPECT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef("sales", "sales/")).ok());
  }

  RecordBatch Run(const std::string& sql) {
    auto plan = ParseSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_.Execute("user:sql", *plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->batch : RecordBatch();
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  QueryEngine engine_;
};

TEST_F(SqlExecutionTest, SelectStarCount) {
  EXPECT_EQ(Run("SELECT * FROM ds.sales").num_rows(), 200u);
}

TEST_F(SqlExecutionTest, WhereOnPartitionColumnPrunes) {
  auto plan = ParseSql("SELECT * FROM ds.sales WHERE date = 2");
  ASSERT_TRUE(plan.ok());
  auto result = engine_.Execute("user:sql", *plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batch.num_rows(), 50u);
  EXPECT_EQ(result->stats.files_pruned, 3u);
}

TEST_F(SqlExecutionTest, GroupByAggregation) {
  RecordBatch batch = Run(
      "SELECT region, COUNT(*) AS n, SUM(qty) AS total_qty FROM ds.sales "
      "GROUP BY region ORDER BY n DESC");
  EXPECT_LE(batch.num_rows(), 4u);
  int64_t total = 0;
  int n_idx = batch.schema()->FieldIndex("n");
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    total += batch.GetValue(r, static_cast<size_t>(n_idx)).int64_value();
  }
  EXPECT_EQ(total, 200);
  // ORDER BY n DESC: non-increasing counts.
  for (size_t r = 1; r < batch.num_rows(); ++r) {
    EXPECT_GE(batch.GetValue(r - 1, static_cast<size_t>(n_idx)).int64_value(),
              batch.GetValue(r, static_cast<size_t>(n_idx)).int64_value());
  }
}

TEST_F(SqlExecutionTest, ProjectionExpression) {
  RecordBatch batch = Run(
      "SELECT id, qty * 10 AS qty10 FROM ds.sales WHERE id < 3 ORDER BY id");
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.schema()->field(1).name, "qty10");
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(batch.GetValue(r, 1).int64_value() % 10, 0);
  }
}

// Arithmetic over a string column is a type error, in a predicate and in a
// projection.
TEST_F(SqlExecutionTest, StringArithmeticIsInvalidArgument) {
  for (const char* sql : {"SELECT id FROM ds.sales WHERE region + 1 > 3",
                          "SELECT region * 2 AS r2 FROM ds.sales"}) {
    auto plan = ParseSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_.Execute("user:sql", *plan);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(SqlExecutionTest, Listing3ShapeJoin) {
  // A second table to join against.
  TableDef dim = MakeBigLakeDef("regions", "regions/");
  dim.kind = TableKind::kBigLakeManaged;
  dim.schema = MakeSchema({{"r_name", DataType::kString, false},
                           {"r_manager", DataType::kString, false}});
  dim.partition_columns.clear();
  dim.iam.Grant("*", Role::kWriter);
  BlmtService blmt(&lake_);
  ASSERT_TRUE(blmt.CreateTable(dim).ok());
  BatchBuilder b(dim.schema);
  for (const char* r : {"east", "west", "north", "south"}) {
    ASSERT_TRUE(b.AppendRow({Value::String(r), Value::String("m")}).ok());
  }
  ASSERT_TRUE(blmt.Insert("u", "ds.regions", b.Finish()).ok());

  RecordBatch batch = Run(
      "SELECT r.r_manager, COUNT(*) AS n "
      "FROM ds.regions AS r JOIN ds.sales AS s ON r.r_name = s.region "
      "GROUP BY r_manager");
  ASSERT_EQ(batch.num_rows(), 1u);  // single manager
  EXPECT_EQ(batch.GetValue(0, 1), Value::Int64(200));
}

// A hive partition column used outside a join key (here as the group key)
// is surfaced by the optimizer's column pruning.
TEST_F(SqlExecutionTest, GroupByPartitionColumn) {
  RecordBatch batch = Run(
      "SELECT date, COUNT(*) AS n FROM ds.sales GROUP BY date ORDER BY date");
  ASSERT_EQ(batch.num_rows(), 4u);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(batch.GetValue(r, 0), Value::Int64(static_cast<int64_t>(r)));
    EXPECT_EQ(batch.GetValue(r, 1), Value::Int64(50));
  }
}

// The examples/governed_lakehouse.cpp table through SQL.
class GovernedSqlTest : public SqlExecutionTest {
 protected:
  GovernedSqlTest() {
    CreatePeopleTable(&biglake_);
    TableDef dim = MakeBigLakeDef("depts", "depts/");
    dim.kind = TableKind::kBigLakeManaged;
    dim.schema = MakeSchema({{"d_name", DataType::kString, false},
                             {"d_floor", DataType::kInt64, false}});
    dim.partition_columns.clear();
    dim.iam.Grant("*", Role::kWriter);
    BlmtService blmt(&lake_);
    EXPECT_TRUE(blmt.CreateTable(dim).ok());
    BatchBuilder b(dim.schema);
    int64_t floor = 1;
    for (const char* d : {"eng", "sales", "hr"}) {
      EXPECT_TRUE(b.AppendRow({Value::String(d), Value::Int64(floor++)}).ok());
    }
    EXPECT_TRUE(blmt.Insert("u", "ds.depts", b.Finish()).ok());
  }

  Result<QueryResult> RunAs(const Principal& who, const std::string& sql) {
    auto plan = ParseSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return plan.status();
    return engine_.Execute(who, *plan);
  }
};

// A WHERE conjunct on a masked column filters masked values, whether the
// query is single-table or a join (where the optimizer pushes the conjunct
// into the people scan).
TEST_F(GovernedSqlTest, MaskedColumnPredicateAgreesInBothForms) {
  const std::string single =
      "SELECT emp_id, email FROM ds.people WHERE email = 'emp3@acme.com'";
  const std::string join =
      "SELECT emp_id, email, d_floor FROM ds.people JOIN ds.depts "
      "ON dept = d_name WHERE email = 'emp3@acme.com'";
  for (const std::string& sql : {single, join}) {
    SCOPED_TRACE(sql);
    auto analyst = RunAs("user:hr-analyst", sql);
    ASSERT_TRUE(analyst.ok()) << analyst.status().ToString();
    EXPECT_EQ(analyst->batch.num_rows(), 0u);
    auto officer = RunAs("user:privacy-officer", sql);
    ASSERT_TRUE(officer.ok()) << officer.status().ToString();
    ASSERT_EQ(officer->batch.num_rows(), 1u);
    EXPECT_EQ(officer->batch.GetValue(0, 0), Value::Int64(3));
  }
  // The same conjunct written as a Filter above a plan-built join.
  auto plan = Plan::Filter(
      Plan::HashJoin(Plan::Scan("ds.depts"), Plan::Scan("ds.people"),
                     {"d_name"}, {"dept"}),
      Expr::Eq(Expr::Col("email"), Expr::Lit(Value::String("emp3@acme.com"))));
  auto r = engine_.Execute("user:hr-analyst", plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->batch.num_rows(), 0u);
}

// A query that never references a denied column must not fail on it: the
// pruned scan requests only emp_id and email.
TEST_F(GovernedSqlTest, DeniedColumnNotReferencedIsNotRequested) {
  auto r = RunAs("user:eng-manager", "SELECT emp_id, email FROM ds.people");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->batch.num_rows(), 100u);  // eng rows only
  for (size_t i = 0; i < r->batch.num_rows(); ++i) {
    EXPECT_EQ(r->batch.GetValue(i, 0).int64_value() % 3, 0);
    EXPECT_EQ(r->batch.GetValue(i, 1).string_value().find('@'),
              std::string::npos);  // hashed
  }
  // Referencing it anywhere (here only in WHERE) still fails.
  EXPECT_TRUE(RunAs("user:eng-manager",
                    "SELECT emp_id FROM ds.people WHERE salary > 0")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(RunAs("user:eng-manager", "SELECT * FROM ds.people")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(SqlExecutionTest, LimitCapsRows) {
  EXPECT_EQ(Run("SELECT * FROM ds.sales LIMIT 7").num_rows(), 7u);
}

}  // namespace
}  // namespace biglake
