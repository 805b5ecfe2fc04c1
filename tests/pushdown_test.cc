// Tests for Read API aggregate pushdown (the Sec 3.4 future-work item) and
// the partial-merge kernel.

#include <gtest/gtest.h>

#include "columnar/aggregate.h"
#include "reference_eval.h"
#include "core/read_api.h"
#include "engine/engine.h"
#include "extengine/spark_lite.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

TEST(MergePartialsTest, MergesCountsSumsMinsMaxes) {
  auto schema = MakeSchema({{"g", DataType::kString, false},
                            {"n", DataType::kInt64, true},
                            {"s", DataType::kDouble, true},
                            {"lo", DataType::kInt64, true},
                            {"hi", DataType::kInt64, true}});
  BatchBuilder b(schema);
  // Two partials for group "a", one for "b".
  ASSERT_TRUE(b.AppendRow({Value::String("a"), Value::Int64(3),
                           Value::Double(10.0), Value::Int64(1),
                           Value::Int64(9)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::String("a"), Value::Int64(2),
                           Value::Double(5.0), Value::Int64(0),
                           Value::Int64(4)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::String("b"), Value::Int64(7),
                           Value::Double(1.5), Value::Int64(-2),
                           Value::Int64(2)})
                  .ok());
  std::vector<AggSpec> specs = {{AggOp::kCount, "", "n"},
                                {AggOp::kSum, "x", "s"},
                                {AggOp::kMin, "x", "lo"},
                                {AggOp::kMax, "x", "hi"}};
  auto merged = MergePartialAggregates({b.Finish()}, {"g"}, specs);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), 2u);
  // Group "a".
  EXPECT_EQ(merged->GetValue(0, 0), Value::String("a"));
  EXPECT_EQ(merged->GetValue(0, 1), Value::Int64(5));
  EXPECT_EQ(merged->GetValue(0, 2), Value::Double(15.0));
  EXPECT_EQ(merged->GetValue(0, 3), Value::Int64(0));
  EXPECT_EQ(merged->GetValue(0, 4), Value::Int64(9));
  // COUNT stays INT64 after merging.
  EXPECT_EQ(merged->schema()->field(1).type, DataType::kInt64);
}

TEST(MergePartialsTest, RejectsAvgAndUnknownColumns) {
  auto schema = MakeSchema({{"n", DataType::kInt64, true}});
  std::vector<Column> cols{Column::MakeInt64({1})};
  RecordBatch partials(schema, std::move(cols));
  EXPECT_FALSE(
      MergePartialAggregates({partials}, {}, {{AggOp::kAvg, "x", "n"}}).ok());
  EXPECT_FALSE(
      MergePartialAggregates({partials}, {}, {{AggOp::kSum, "x", "zz"}}).ok());
}

class AggregatePushdownTest : public LakehouseFixture {
 protected:
  AggregatePushdownTest() : api_(&lake_), biglake_(&lake_) {
    BuildLake("sales/", 6, 100);
    EXPECT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef("sales", "sales/")).ok());
  }
  StorageReadApi api_;
  BigLakeTableService biglake_;
};

TEST_F(AggregatePushdownTest, ServerSidePartialsMatchClientSideAggregation) {
  // Client-side reference.
  ReadSessionOptions plain;
  auto ref_session = api_.CreateReadSession("u", "ds.sales", plain);
  ASSERT_TRUE(ref_session.ok());
  std::vector<RecordBatch> parts;
  for (size_t s = 0; s < ref_session->streams.size(); ++s) {
    parts.push_back(*api_.ReadStreamBatch(*ref_session, s));
  }
  auto all = RecordBatch::Concat(parts);
  ASSERT_TRUE(all.ok());
  std::vector<AggSpec> specs = {{AggOp::kCount, "", "n"},
                                {AggOp::kSum, "qty", "total_qty"},
                                {AggOp::kMin, "id", "min_id"},
                                {AggOp::kMax, "id", "max_id"}};
  auto reference = ReferenceAggregate(*all, {"region"}, specs);
  ASSERT_TRUE(reference.ok());

  // Pushdown path.
  ReadSessionOptions pushed;
  pushed.aggregate_group_by = {"region"};
  pushed.partial_aggregates = specs;
  auto session = api_.CreateReadSession("u", "ds.sales", pushed);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->output_schema->num_fields(), 5u);
  std::vector<RecordBatch> partials;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto b = api_.ReadStreamBatch(*session, s);
    ASSERT_TRUE(b.ok());
    // Each stream returns at most one row per group — tiny payloads.
    EXPECT_LE(b->num_rows(), 4u);
    partials.push_back(*b);
  }
  auto final_result = MergePartialAggregates(partials, {"region"}, specs);
  ASSERT_TRUE(final_result.ok());

  // Compare region -> (n, total, min, max) maps.
  auto to_map = [](const RecordBatch& b) {
    std::map<std::string, std::vector<Value>> m;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::vector<Value> vals;
      for (size_t c = 1; c < b.num_columns(); ++c) {
        vals.push_back(b.GetValue(r, c));
      }
      m[b.GetValue(r, 0).string_value()] = std::move(vals);
    }
    return m;
  };
  auto ref_map = to_map(*reference);
  auto got_map = to_map(*final_result);
  ASSERT_EQ(ref_map.size(), got_map.size());
  for (const auto& [region, vals] : ref_map) {
    ASSERT_TRUE(got_map.count(region));
    for (size_t i = 0; i < vals.size(); ++i) {
      EXPECT_TRUE(vals[i] == got_map[region][i]) << region << " field " << i;
    }
  }
}

TEST_F(AggregatePushdownTest, PushdownShrinksWirePayload) {
  uint64_t before = lake_.sim().counters().Get("readapi.bytes_returned");
  ReadSessionOptions plain;
  auto s1 = api_.CreateReadSession("u", "ds.sales", plain);
  ASSERT_TRUE(s1.ok());
  for (size_t s = 0; s < s1->streams.size(); ++s) {
    ASSERT_TRUE(api_.ReadRows(*s1, s).ok());
  }
  uint64_t raw_bytes =
      lake_.sim().counters().Get("readapi.bytes_returned") - before;

  before = lake_.sim().counters().Get("readapi.bytes_returned");
  ReadSessionOptions pushed;
  pushed.aggregate_group_by = {"region"};
  pushed.partial_aggregates = {{AggOp::kSum, "price", "rev"}};
  auto s2 = api_.CreateReadSession("u", "ds.sales", pushed);
  ASSERT_TRUE(s2.ok());
  for (size_t s = 0; s < s2->streams.size(); ++s) {
    ASSERT_TRUE(api_.ReadRows(*s2, s).ok());
  }
  uint64_t pushed_bytes =
      lake_.sim().counters().Get("readapi.bytes_returned") - before;
  EXPECT_LT(pushed_bytes * 10, raw_bytes);  // much smaller payload
}

TEST_F(AggregatePushdownTest, AvgAndBadColumnsRejected) {
  ReadSessionOptions opts;
  opts.partial_aggregates = {{AggOp::kAvg, "price", "p"}};
  EXPECT_TRUE(api_.CreateReadSession("u", "ds.sales", opts)
                  .status()
                  .IsInvalidArgument());
  ReadSessionOptions bad_col;
  bad_col.partial_aggregates = {{AggOp::kSum, "nope", "p"}};
  EXPECT_TRUE(
      api_.CreateReadSession("u", "ds.sales", bad_col).status().IsNotFound());
}

TEST_F(AggregatePushdownTest, GovernanceStillAppliesUnderPushdown) {
  TableDef def = MakeBigLakeDef("gov", "gov/");
  BuildLake("gov/", 2, 100);
  RowAccessPolicy east;
  east.name = "east";
  east.grantees = {"user:alice"};
  east.filter = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  def.policy.row_policies = {east};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  ReadSessionOptions opts;
  opts.aggregate_group_by = {"region"};
  opts.partial_aggregates = {{AggOp::kCount, "", "n"}};
  auto session = api_.CreateReadSession("user:alice", "ds.gov", opts);
  ASSERT_TRUE(session.ok());
  std::vector<RecordBatch> partials;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    partials.push_back(*api_.ReadStreamBatch(*session, s));
  }
  auto final_result = MergePartialAggregates(partials, {"region"},
                                             opts.partial_aggregates);
  ASSERT_TRUE(final_result.ok());
  // Only the "east" group exists: the row filter ran before aggregation.
  ASSERT_EQ(final_result->num_rows(), 1u);
  EXPECT_EQ(final_result->GetValue(0, 0), Value::String("east"));
}

TEST_F(AggregatePushdownTest, SparkUsesPushdownAutomatically) {
  const std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                                     {AggOp::kSum, "qty", "q"}};
  SparkLiteEngine spark(&lake_, &api_);
  auto result =
      spark.ReadBigLake("ds.sales").Aggregate({"region"}, aggs).Collect("u");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.aggregates_pushed, 1u);

  // Reference: the engine aggregating the same scan client-side.
  QueryEngine engine(&lake_, &api_);
  auto reference = engine.Execute(
      "u", Plan::Aggregate(Plan::Scan("ds.sales"), {"region"}, aggs));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Same answers, keyed by region.
  auto by_region = [](const RecordBatch& b) {
    std::map<std::string, std::vector<Value>> m;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      m[b.GetValue(r, 0).string_value()] = {b.GetValue(r, 1),
                                            b.GetValue(r, 2)};
    }
    return m;
  };
  ASSERT_EQ(result->batch.num_rows(), reference->batch.num_rows());
  EXPECT_TRUE(by_region(result->batch) == by_region(reference->batch));
}

TEST_F(AggregatePushdownTest, AvgFallsBackToClientSide) {
  SparkLiteEngine spark(&lake_, &api_);
  auto result = spark.ReadBigLake("ds.sales")
                    .Aggregate({}, {{AggOp::kAvg, "price", "p"}})
                    .Collect("u");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.aggregates_pushed, 0u);
  EXPECT_EQ(result->batch.num_rows(), 1u);
}

}  // namespace
}  // namespace biglake
