// The logical optimizer (engine/optimizer.h): rewritten-tree tests for each
// rule and each barrier, a differential test of optimized execution against
// full unpruned table reads, and result-cache keying on the rewritten plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/random.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "engine/engine.h"
#include "engine/optimizer.h"
#include "engine/plan_fingerprint.h"
#include "engine/sql_parser.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

/// A small TPC-DS-lite world: store_sales is hive-partitioned by
/// ss_sold_date (not stored in the files), the dimensions are BLMTs.
class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {
    CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
    ObjectStore* store = lake_.AddStore(gcp);
    EXPECT_TRUE(store->CreateBucket("lake").ok());
    EXPECT_TRUE(lake_.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake_.catalog().CreateConnection(conn).ok());
    scale_.days = 8;
    scale_.rows_per_day = 300;
    scale_.num_items = 60;
    scale_.num_customers = 80;
    scale_.num_stores = 6;
    scale_.seed = 11;
    auto t = SetupTpcds(&lake_, &biglake_, &blmt_, store, "lake", "tpcds/",
                        "ds", scale_, /*cached=*/true, "us.lake-conn");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (t.ok()) tables_ = *t;
  }

  PlanPtr Optimize(const PlanPtr& plan) {
    return OptimizePlan(lake_.catalog(), plan);
  }

  EngineOptions Options(uint32_t workers) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.max_read_streams = 4;  // row order independent of the pool size
    return opts;
  }

  LakehouseEnv lake_;
  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
  TpcdsScale scale_;
  TpcdsTables tables_;
};

ExprPtr Col(const std::string& name) { return Expr::Col(name); }
ExprPtr Int(int64_t v) { return Expr::Lit(Value::Int64(v)); }
ExprPtr Str(const std::string& v) { return Expr::Lit(Value::String(v)); }

std::string Pred(const PlanPtr& scan) {
  return scan->scan_predicate == nullptr ? ""
                                         : scan->scan_predicate->ToString();
}

// ---- Rule 1: push conjuncts down --------------------------------------------

TEST_F(OptimizerTest, FilterOverScanBecomesScanPredicate) {
  PlanPtr out = Optimize(Plan::Filter(Plan::Scan(tables_.store_sales),
                                      Expr::Eq(Col("ss_sold_date"), Int(3))));
  ASSERT_EQ(out->kind, Plan::Kind::kScan);
  EXPECT_EQ(Pred(out), "(ss_sold_date = 3)");
  // The root needs every column: the scan keeps its default projection.
  EXPECT_TRUE(out->scan_columns.empty());
}

TEST_F(OptimizerTest, ConjunctsAndWithAnExistingScanPredicate) {
  PlanPtr out = Optimize(Plan::Filter(
      Plan::Scan(tables_.item, {}, Expr::Gt(Col("i_price"), Int(5))),
      Expr::And(Expr::Eq(Col("i_category"), Str("toys")),
                Expr::Lt(Col("i_item_id"), Int(30)))));
  ASSERT_EQ(out->kind, Plan::Kind::kScan);
  EXPECT_EQ(Pred(out),
            "(((i_price > 5) AND (i_category = 'toys')) AND (i_item_id < 30))");
}

TEST_F(OptimizerTest, ConjunctsSplitAcrossJoinSides) {
  PlanPtr plan = Plan::Project(
      Plan::Filter(
          Plan::HashJoin(Plan::Scan(tables_.item),
                         Plan::Scan(tables_.store_sales), {"i_item_id"},
                         {"ss_item_id"}),
          Expr::And(Expr::And(Expr::Eq(Col("i_category"), Str("toys")),
                              Expr::Gt(Col("ss_quantity"), Int(2))),
                    Expr::Lt(Col("i_price"), Col("ss_sales_price")))),
      {"i_brand"}, {Col("i_brand")});
  PlanPtr out = Optimize(plan);
  ASSERT_EQ(out->kind, Plan::Kind::kProject);
  // The conjunct that needs both sides stays above the join.
  PlanPtr filter = out->children[0];
  ASSERT_EQ(filter->kind, Plan::Kind::kFilter);
  EXPECT_EQ(filter->filter->ToString(), "(i_price < ss_sales_price)");
  PlanPtr join = filter->children[0];
  ASSERT_EQ(join->kind, Plan::Kind::kHashJoin);
  EXPECT_EQ(Pred(join->children[0]), "(i_category = 'toys')");
  EXPECT_EQ(Pred(join->children[1]), "(ss_quantity > 2)");
  // Pruned: the item scan keeps the key, the output and the cross-side
  // filter's columns; i_category is predicate-only and not requested.
  EXPECT_EQ(join->children[0]->scan_columns,
            (std::vector<std::string>{"i_item_id", "i_brand", "i_price"}));
  EXPECT_EQ(join->children[1]->scan_columns,
            (std::vector<std::string>{"ss_item_id", "ss_sales_price"}));
}

TEST_F(OptimizerTest, ConjunctSinksThroughNestedJoins) {
  // q06's shape: the holiday conjunct, written above both joins, lands in
  // the date_dim scan two joins down.
  PlanPtr plan = Plan::Aggregate(
      Plan::Filter(
          Plan::HashJoin(
              Plan::Scan(tables_.store),
              Plan::HashJoin(Plan::Scan(tables_.date_dim),
                             Plan::Scan(tables_.store_sales), {"d_date_key"},
                             {"ss_sold_date"}),
              {"s_store_id"}, {"ss_store_id"}),
          Expr::Eq(Col("d_is_holiday"), Expr::Lit(Value::Bool(true)))),
      {"s_state"}, {{AggOp::kSum, "ss_sales_price", "revenue"}});
  PlanPtr out = Optimize(plan);
  PlanPtr outer = out->children[0];
  ASSERT_EQ(outer->kind, Plan::Kind::kHashJoin);
  PlanPtr inner = outer->children[1];
  ASSERT_EQ(inner->kind, Plan::Kind::kHashJoin);
  EXPECT_EQ(Pred(inner->children[0]), "(d_is_holiday = true)");
  EXPECT_EQ(inner->children[0]->scan_columns,
            (std::vector<std::string>{"d_date_key"}));
  // The partition-column join key is requested after the schema columns.
  EXPECT_EQ(inner->children[1]->scan_columns,
            (std::vector<std::string>{"ss_store_id", "ss_sales_price",
                                      "ss_sold_date"}));
  // store's two columns are both needed: the scan keeps its default list.
  EXPECT_TRUE(outer->children[0]->scan_columns.empty());
}

TEST_F(OptimizerTest, ConjunctsWithoutColumnsOrAboveOtherOperatorsStay) {
  // No column at all.
  PlanPtr out = Optimize(Plan::Filter(Plan::Scan(tables_.item),
                                      Expr::Lit(Value::Bool(true))));
  ASSERT_EQ(out->kind, Plan::Kind::kFilter);
  EXPECT_EQ(Pred(out->children[0]), "");
  // Above a Limit (moving it below would change which rows survive), an
  // Aggregate, a Project and a Values leaf.
  const ExprPtr pred = Expr::Gt(Col("i_item_id"), Int(3));
  for (PlanPtr below :
       {Plan::Limit(Plan::Scan(tables_.item), 5),
        Plan::Aggregate(Plan::Scan(tables_.item), {"i_item_id"}, {}),
        Plan::Project(Plan::Scan(tables_.item), {"i_item_id"},
                      {Col("i_item_id")}),
        Plan::Values(RecordBatch::Empty(ItemSchema()))}) {
    PlanPtr o = Optimize(Plan::Filter(below, pred));
    ASSERT_EQ(o->kind, Plan::Kind::kFilter) << below->ToString();
    EXPECT_EQ(o->children[0]->kind, below->kind);
  }
  // A conjunct over a name both join sides produce is ambiguous.
  PlanPtr self = Optimize(Plan::Filter(
      Plan::HashJoin(Plan::Scan(tables_.item), Plan::Scan(tables_.item),
                     {"i_item_id"}, {"i_item_id"}),
      Expr::Eq(Col("i_brand"), Str("brand-1"))));
  ASSERT_EQ(self->kind, Plan::Kind::kFilter);
  EXPECT_EQ(Pred(self->children[0]->children[0]), "");
  EXPECT_EQ(Pred(self->children[0]->children[1]), "");
}

// ---- Rule 2: prune columns --------------------------------------------------

TEST_F(OptimizerTest, ScanRequestsOnlyReferencedColumnsInSchemaOrder) {
  PlanPtr out = Optimize(Plan::Aggregate(
      Plan::Filter(Plan::Scan(tables_.store_sales),
                   Expr::Gt(Col("ss_quantity"), Int(2))),
      {"ss_store_id"}, {{AggOp::kSum, "ss_net_profit", "profit"}}));
  PlanPtr scan = out->children[0];
  ASSERT_EQ(scan->kind, Plan::Kind::kScan);
  EXPECT_EQ(scan->scan_columns,
            (std::vector<std::string>{"ss_store_id", "ss_net_profit"}));
  EXPECT_EQ(Pred(scan), "(ss_quantity > 2)");
}

TEST_F(OptimizerTest, CountStarKeepsOneColumn) {
  PlanPtr out = Optimize(Plan::Aggregate(Plan::Scan(tables_.store_sales), {},
                                         {{AggOp::kCount, "", "n"}}));
  EXPECT_EQ(out->children[0]->scan_columns,
            (std::vector<std::string>{"ss_item_id"}));
}

TEST_F(OptimizerTest, PartitionColumnIsRequestedWhenReferenced) {
  PlanPtr out = Optimize(Plan::Aggregate(
      Plan::Scan(tables_.store_sales), {"ss_sold_date"},
      {{AggOp::kSum, "ss_sales_price", "revenue"}}));
  EXPECT_EQ(out->children[0]->scan_columns,
            (std::vector<std::string>{"ss_sales_price", "ss_sold_date"}));
}

TEST_F(OptimizerTest, ExplicitScanColumnsOnlyNarrow) {
  PlanPtr out = Optimize(Plan::Project(
      Plan::Scan(tables_.item, {"i_price", "i_brand", "i_item_id"}),
      {"b"}, {Col("i_brand")}));
  EXPECT_EQ(out->children[0]->scan_columns,
            (std::vector<std::string>{"i_brand"}));
}

TEST_F(OptimizerTest, MapIsABarrier) {
  PlanPtr out = Optimize(Plan::Project(
      Plan::Map(Plan::Scan(tables_.item), "identity",
                [](const RecordBatch& b) -> Result<RecordBatch> { return b; }),
      {"i_brand"}, {Col("i_brand")}));
  PlanPtr scan = out->children[0]->children[0];
  ASSERT_EQ(scan->kind, Plan::Kind::kScan);
  EXPECT_TRUE(scan->scan_columns.empty());
}

TEST_F(OptimizerTest, JoinWithSharedNamesPrunesNeitherSide) {
  PlanPtr out = Optimize(Plan::Project(
      Plan::HashJoin(Plan::Scan(tables_.item), Plan::Scan(tables_.item),
                     {"i_item_id"}, {"i_item_id"}),
      {"i_brand"}, {Col("i_brand")}));
  PlanPtr join = out->children[0];
  EXPECT_TRUE(join->children[0]->scan_columns.empty());
  EXPECT_TRUE(join->children[1]->scan_columns.empty());
}

TEST_F(OptimizerTest, SelectStarPrunesNothingButSurfacesJoinKeys) {
  EXPECT_EQ(Optimize(Plan::Scan(tables_.store_sales))->scan_columns.size(),
            0u);
  PlanPtr out = Optimize(Plan::HashJoin(Plan::Scan(tables_.date_dim),
                                        Plan::Scan(tables_.store_sales),
                                        {"d_date_key"}, {"ss_sold_date"}));
  EXPECT_TRUE(out->children[0]->scan_columns.empty());
  std::vector<std::string> want;
  const SchemaPtr schema = StoreSalesSchema();
  for (const Field& f : schema->fields()) want.push_back(f.name);
  want.push_back("ss_sold_date");
  EXPECT_EQ(out->children[1]->scan_columns, want);
}

TEST_F(OptimizerTest, UnknownTablesAndInputPlansAreLeftAlone) {
  PlanPtr unknown = Plan::Project(
      Plan::Filter(Plan::Scan("ds.nope"), Expr::Gt(Col("x"), Int(1))), {"y"},
      {Col("y")});
  PlanPtr out = Optimize(unknown);
  // The filter is not pushed (its columns are unknown) and the scan keeps
  // its default projection.
  EXPECT_EQ(out->children[0]->kind, Plan::Kind::kFilter);
  EXPECT_TRUE(out->children[0]->children[0]->scan_columns.empty());

  // Pure: the input tree is not mutated.
  PlanPtr q = TpcdsQueries(tables_, scale_)[5].plan;
  const uint64_t before = PlanFingerprint(*q);
  (void)Optimize(q);
  EXPECT_EQ(PlanFingerprint(*q), before);
}

// ---- Differential: optimized execution vs full unpruned reads ------------

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

/// Empty when equal: same schema names, same sorted rows, doubles within
/// 1e-9 relative (SUMs may add in another order).
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

/// Every scan replaced by a literal full read of its table (schema and hive
/// partition columns, no predicate, no pruning) with the scan's own
/// predicate and projection applied above it. The optimizer cannot push or
/// prune into Values, so this runs the plan as written.
PlanPtr OverFullReads(const PlanPtr& plan,
                      const std::map<std::string, RecordBatch>& full) {
  if (plan->kind == Plan::Kind::kScan) {
    PlanPtr out = Plan::Values(full.at(plan->table_id));
    if (plan->scan_predicate != nullptr) {
      out = Plan::Filter(out, plan->scan_predicate);
    }
    if (!plan->scan_columns.empty()) {
      std::vector<ExprPtr> cols;
      for (const auto& c : plan->scan_columns) cols.push_back(Col(c));
      out = Plan::Project(out, plan->scan_columns, cols);
    }
    return out;
  }
  auto copy = std::make_shared<Plan>(*plan);
  for (PlanPtr& c : copy->children) c = OverFullReads(c, full);
  return copy;
}

/// Seeded random Filter/Join/Project/Aggregate plans over the TPC-DS-lite
/// star: store_sales joined with 0-3 dimensions on either side, random
/// single-table, cross-side and OR conjuncts above and below the joins.
class RandomPlans {
 public:
  RandomPlans(const TpcdsTables& t, uint64_t seed) : t_(t), rng_(seed) {}

  PlanPtr Next() {
    struct Dim {
      std::string table, key, fact_key;
    };
    std::vector<Dim> dims = {{t_.item, "i_item_id", "ss_item_id"},
                             {t_.customer, "c_customer_id", "ss_customer_id"},
                             {t_.store, "s_store_id", "ss_store_id"},
                             {t_.date_dim, "d_date_key", "ss_sold_date"}};
    std::vector<std::string> cols = {"ss_item_id", "ss_customer_id",
                                     "ss_store_id", "ss_quantity",
                                     "ss_sales_price", "ss_sold_date"};
    PlanPtr plan = MaybeFilter(Plan::Scan(t_.store_sales), "store_sales");
    const size_t joins = rng_.Uniform(4);
    for (size_t j = 0; j < joins; ++j) {
      size_t pick = rng_.Uniform(dims.size());
      Dim d = dims[pick];
      dims.erase(dims.begin() + static_cast<std::ptrdiff_t>(pick));
      PlanPtr dim = MaybeFilter(Plan::Scan(d.table), d.table);
      if (rng_.Uniform(2) == 0) {
        plan = Plan::HashJoin(dim, plan, {d.key}, {d.fact_key});
      } else {
        plan = Plan::HashJoin(plan, dim, {d.fact_key}, {d.key});
      }
      for (const auto& c : DimColumns(d.table)) cols.push_back(c);
    }
    // Conjuncts above the joins: single-table ones sink, cross-side ones
    // (and a constant) stay.
    std::vector<ExprPtr> above;
    for (size_t i = 0, n = rng_.Uniform(3); i < n; ++i) {
      above.push_back(RandomPredicate(cols));
    }
    if (rng_.Uniform(4) == 0) {
      above.push_back(Expr::Lt(Col("ss_quantity"),
                               Expr::Arith(ArithOp::kAdd, Col("ss_store_id"),
                                           Int(4))));
    }
    if (rng_.Uniform(6) == 0) above.push_back(Expr::Lit(Value::Bool(true)));
    for (const ExprPtr& p : above) plan = Plan::Filter(plan, p);

    if (rng_.Uniform(2) == 0) {
      // Aggregate over a categorical key with a mix of aggregates.
      std::vector<std::string> keys;
      for (const auto& c : cols) {
        if (IsGroupKey(c)) keys.push_back(c);
      }
      std::vector<std::string> group;
      if (!keys.empty() && rng_.Uniform(4) != 0) {
        group.push_back(keys[rng_.Uniform(keys.size())]);
      }
      std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"}};
      if (rng_.Uniform(2) == 0) {
        aggs.push_back({AggOp::kSum, "ss_sales_price", "revenue"});
      }
      if (rng_.Uniform(2) == 0) {
        aggs.push_back({AggOp::kMax, "ss_quantity", "max_qty"});
      }
      plan = Plan::Aggregate(plan, group, aggs);
      if (!group.empty() && rng_.Uniform(2) == 0) {
        plan = Plan::OrderBy(plan, {{group[0], rng_.Uniform(2) == 0}});
      }
      return plan;
    }
    // Project a random subset plus one derived column.
    std::vector<std::string> names;
    std::vector<ExprPtr> exprs;
    for (const auto& c : cols) {
      if (rng_.Uniform(3) == 0) {
        names.push_back(c);
        exprs.push_back(Col(c));
      }
    }
    names.push_back("qty_x2");
    exprs.push_back(Expr::Arith(ArithOp::kMul, Col("ss_quantity"), Int(2)));
    return Plan::Project(plan, names, exprs);
  }

 private:
  std::vector<std::string> DimColumns(const std::string& table) {
    if (table == t_.item) {
      return {"i_item_id", "i_category", "i_brand", "i_price"};
    }
    if (table == t_.customer) return {"c_customer_id", "c_region", "c_segment"};
    if (table == t_.store) return {"s_store_id", "s_state"};
    return {"d_date_key", "d_month", "d_is_holiday"};
  }

  static bool IsGroupKey(const std::string& c) {
    return c == "ss_store_id" || c == "ss_sold_date" || c == "i_category" ||
           c == "i_brand" || c == "c_region" || c == "c_segment" ||
           c == "s_state" || c == "d_month" || c == "d_is_holiday";
  }

  PlanPtr MaybeFilter(PlanPtr scan, const std::string& table) {
    if (rng_.Uniform(2) == 0) return scan;
    std::vector<std::string> cols =
        table == "store_sales"
            ? std::vector<std::string>{"ss_quantity", "ss_sales_price",
                                       "ss_sold_date", "ss_store_id"}
            : DimColumns(table);
    return Plan::Filter(std::move(scan), RandomPredicate(cols));
  }

  ExprPtr Leaf(const std::string& c) {
    const int64_t r = static_cast<int64_t>(rng_.Uniform(10));
    if (c == "i_category") {
      return Expr::InList(Col(c), {Value::String("toys"),
                                   Value::String("electronics")});
    }
    if (c == "i_brand") {
      return Expr::Ne(Col(c), Str("brand-" + std::to_string(r)));
    }
    if (c == "c_region") return Expr::Eq(Col(c), Str("east"));
    if (c == "c_segment") return Expr::Ne(Col(c), Str("smb"));
    if (c == "s_state") {
      return Expr::InList(Col(c), {Value::String("CA"), Value::String("NY"),
                                   Value::String("TX")});
    }
    if (c == "d_is_holiday") {
      return Expr::Eq(Col(c), Expr::Lit(Value::Bool(r < 5)));
    }
    if (c == "ss_sales_price" || c == "i_price") {
      return Expr::Gt(Col(c),
                      Expr::Lit(Value::Double(static_cast<double>(r) * 8.0)));
    }
    if (c == "ss_sold_date" || c == "d_date_key") {
      return Expr::Ge(Col(c), Int(r % 8));
    }
    return Expr::Le(Col(c), Int(r * 8 + 2));
  }

  ExprPtr RandomPredicate(const std::vector<std::string>& cols) {
    ExprPtr p = Leaf(cols[rng_.Uniform(cols.size())]);
    switch (rng_.Uniform(4)) {
      case 0:
        return Expr::Or(p, Leaf(cols[rng_.Uniform(cols.size())]));
      case 1:
        return Expr::And(p, Leaf(cols[rng_.Uniform(cols.size())]));
      default:
        return p;
    }
  }

  const TpcdsTables& t_;
  Random rng_;
};

TEST_F(OptimizerTest, DifferentialAgainstFullReadsAtEveryWorkerCount) {
  std::map<std::string, RecordBatch> full;
  {
    QueryEngine engine(&lake_, &api_, Options(1));
    for (const std::string& t :
         {tables_.store_sales, tables_.item, tables_.customer, tables_.store,
          tables_.date_dim}) {
      auto def = lake_.catalog().GetTable(t);
      ASSERT_TRUE(def.ok());
      std::vector<std::string> cols;
      for (const Field& f : (*def)->schema->fields()) cols.push_back(f.name);
      for (const auto& p : (*def)->partition_columns) cols.push_back(p);
      auto r = engine.Execute("user:admin", Plan::Scan(t, cols));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      full[t] = r->batch;
    }
  }
  ASSERT_EQ(full[tables_.store_sales].num_rows(),
            static_cast<size_t>(scale_.days) * scale_.rows_per_day);

  std::vector<std::pair<std::string, PlanPtr>> cases;
  for (const NamedQuery& q : TpcdsQueries(tables_, scale_)) {
    cases.emplace_back(q.name, q.plan);
  }
  // The perfbench tpcds_sql texts, including the two shapes its comments
  // call out: q06 with store first, and GROUP BY on the partition column.
  const std::string mid = std::to_string(scale_.days / 2);
  for (const std::string& sql : std::vector<std::string>{
           "SELECT SUM(ss_sales_price) AS revenue, COUNT(*) AS sales "
           "FROM ds.store_sales WHERE ss_sold_date = " + mid,
           "SELECT ss_store_id, SUM(ss_net_profit) AS profit FROM "
           "ds.store_sales WHERE ss_sold_date >= 1 AND ss_sold_date <= 5 "
           "GROUP BY ss_store_id",
           "SELECT i_brand, SUM(ss_sales_price) AS revenue FROM ds.item "
           "JOIN ds.store_sales ON i_item_id = ss_item_id "
           "WHERE i_category = 'electronics' GROUP BY i_brand",
           "SELECT SUM(ss_net_profit) AS profit, COUNT(*) AS sales "
           "FROM ds.date_dim JOIN ds.store_sales ON d_date_key = ss_sold_date "
           "WHERE d_is_holiday = TRUE",
           "SELECT c_region, SUM(ss_sales_price) AS revenue FROM "
           "ds.store_sales JOIN ds.customer ON ss_customer_id = c_customer_id "
           "GROUP BY c_region",
           "SELECT s_state, SUM(ss_sales_price) AS revenue FROM ds.date_dim "
           "JOIN ds.store_sales ON d_date_key = ss_sold_date "
           "JOIN ds.store ON ss_store_id = s_store_id "
           "WHERE d_is_holiday = TRUE GROUP BY s_state",
           "SELECT s_state, SUM(ss_sales_price) AS revenue FROM ds.store "
           "JOIN ds.store_sales ON s_store_id = ss_store_id "
           "JOIN ds.date_dim ON ss_sold_date = d_date_key "
           "WHERE d_is_holiday = TRUE GROUP BY s_state",
           "SELECT ss_sold_date, COUNT(*) AS n FROM ds.store_sales "
           "GROUP BY ss_sold_date",
           "SELECT ss_item_id, SUM(ss_quantity) AS units FROM ds.store_sales "
           "WHERE ss_sold_date >= 6 GROUP BY ss_item_id",
           "SELECT SUM(ss_net_profit) AS profit FROM ds.store_sales"}) {
    auto plan = ParseSql(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    cases.emplace_back(sql, *plan);
  }
  RandomPlans gen(tables_, 2024);
  for (int i = 0; i < 48; ++i) {
    cases.emplace_back("random #" + std::to_string(i), gen.Next());
  }

  size_t nonempty = 0;
  size_t rewritten = 0;
  for (const auto& [name, plan] : cases) {
    SCOPED_TRACE(name + "\n" + plan->ToString());
    if (PlanFingerprint(*Optimize(plan)) != PlanFingerprint(*plan)) {
      ++rewritten;
    }
    QueryEngine ref_engine(&lake_, &api_, Options(2));
    auto want = ref_engine.Execute("user:admin", OverFullReads(plan, full));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    RecordBatch first;
    for (uint32_t workers : {1u, 2u, 8u}) {
      QueryEngine engine(&lake_, &api_, Options(workers));
      auto got = engine.Execute("user:admin", plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Diff(got->batch, want->batch), "") << workers << " workers";
      if (workers == 1) {
        if (got->batch.num_rows() > 0) ++nonempty;
        first = got->batch;
      } else {
        // Same rows in the same order at every worker count.
        ASSERT_EQ(got->batch.num_rows(), first.num_rows());
        for (size_t r = 0; r < first.num_rows(); ++r) {
          for (size_t c = 0; c < first.num_columns(); ++c) {
            ASSERT_EQ(got->batch.GetValue(r, c), first.GetValue(r, c))
                << workers << " workers, row " << r;
          }
        }
      }
    }
  }
  // The inputs exercise the rewrite and return rows.
  EXPECT_GT(rewritten, cases.size() * 3 / 4);
  EXPECT_GT(nonempty, cases.size() * 3 / 4);
}

// ---- Result cache: keyed on the rewritten plan ---------------------------

TEST_F(OptimizerTest, ResultCacheNeverServesAnotherOutputShape) {
  EngineOptions opts = Options(2);
  opts.enable_result_cache = true;
  QueryEngine cached(&lake_, &api_, opts);
  QueryEngine fresh(&lake_, &api_, Options(2));
  const std::vector<PlanPtr> plans = {
      Plan::Scan(tables_.item),
      Plan::Scan(tables_.item, {"i_item_id"}),
      Plan::Scan(tables_.item, {"i_item_id", "i_brand"}),
      Plan::Project(Plan::Scan(tables_.item), {"i_item_id"},
                    {Col("i_item_id")}),
      Plan::Project(Plan::Scan(tables_.item), {"i_brand"}, {Col("i_brand")}),
      Plan::Project(Plan::Scan(tables_.item), {"i_item_id", "i_brand"},
                    {Col("i_item_id"), Col("i_brand")}),
      Plan::Aggregate(Plan::Scan(tables_.item), {}, {{AggOp::kCount, "", "n"}}),
      Plan::Aggregate(Plan::Scan(tables_.item), {"i_category"},
                      {{AggOp::kCount, "", "n"}}),
  };
  // Every plan twice, interleaved: the second round may only hit its own
  // entry, so each result must still match a cache-off execution.
  for (int round = 0; round < 2; ++round) {
    for (const PlanPtr& plan : plans) {
      SCOPED_TRACE(plan->ToString());
      auto got = cached.Execute("user:admin", plan);
      auto want = fresh.Execute("user:admin", plan);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(got->batch.schema()->ToString(),
                want->batch.schema()->ToString());
      EXPECT_EQ(Diff(got->batch, want->batch), "");
    }
  }
  EXPECT_EQ(lake_.result_cache().Stats().hits, plans.size());
}

}  // namespace
}  // namespace biglake
