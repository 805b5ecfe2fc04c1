// Determinism of real multi-threaded execution: the same query on the same
// data must produce bit-identical batches, cost counters and QueryStats no
// matter how the OS schedules the pool — and identical to the pool-size-1
// compatibility mode, SUM/AVG included (aggregation folds fixed 4096-row
// chunks in chunk order at every worker count).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "columnar/ipc.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "engine/engine.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

// A self-contained lakehouse + TPC-DS-lite setup, so a test can build two
// identical worlds and compare them after independent runs.
struct World {
  LakehouseEnv lake;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  ObjectStore* store = nullptr;
  StorageReadApi api;
  BigLakeTableService biglake;
  BlmtService blmt;
  TpcdsTables tables;

  explicit World(const TpcdsScale& scale)
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

// Large enough that fact scans span several 4096-row aggregation chunks,
// so chunk partials really fold (join probes run on the pool at any size).
TpcdsScale BigScale() {
  TpcdsScale scale;
  scale.days = 6;
  scale.rows_per_day = 2000;  // 12000 fact rows > 8192 threshold
  return scale;
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.wall_micros, b.wall_micros) << label;
  EXPECT_EQ(a.total_micros, b.total_micros) << label;
  EXPECT_EQ(a.rows_returned, b.rows_returned) << label;
  EXPECT_EQ(a.files_scanned, b.files_scanned) << label;
  EXPECT_EQ(a.files_pruned, b.files_pruned) << label;
  EXPECT_EQ(a.read_streams, b.read_streams) << label;
  EXPECT_EQ(a.build_side_swaps, b.build_side_swaps) << label;
  EXPECT_EQ(a.dpp_scans, b.dpp_scans) << label;
}

TEST(ParallelDeterminismTest, TwoEightWorkerRunsAreBitIdentical) {
  TpcdsScale scale = BigScale();
  World w1(scale);
  World w2(scale);

  EngineOptions opts;
  opts.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, opts);
  QueryEngine e2(&w2.lake, &w2.api, opts);

  auto q1 = TpcdsQueries(w1.tables, scale);
  auto q2 = TpcdsQueries(w2.tables, scale);
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t q = 0; q < q1.size(); ++q) {
    auto a = e1.Execute("u", q1[q].plan);
    auto b = e2.Execute("u", q2[q].plan);
    ASSERT_TRUE(a.ok()) << q1[q].name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q2[q].name << ": " << b.status().ToString();
    // Bit-identical results: the serialized wire form must match byte for
    // byte, which covers schema, nulls and every floating-point bit.
    EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch))
        << q1[q].name;
    ExpectSameStats(a->stats, b->stats, q1[q].name);
  }

  // The whole simulation converged identically: virtual clocks and every
  // cost counter agree across the two independently scheduled runs.
  EXPECT_EQ(w1.lake.sim().clock().Now(), w2.lake.sim().clock().Now());
  EXPECT_EQ(w1.lake.sim().counters().all(), w2.lake.sim().counters().all());
}

TEST(ParallelDeterminismTest, EightWorkersMatchSerialOnScans) {
  TpcdsScale scale = BigScale();
  World w1(scale);
  World w8(scale);

  EngineOptions serial;
  serial.num_workers = 1;
  EngineOptions parallel;
  parallel.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, serial);
  QueryEngine e8(&w8.lake, &w8.api, parallel);

  auto a = e1.Execute("u", Plan::Scan(w1.tables.store_sales));
  auto b = e8.Execute("u", Plan::Scan(w8.tables.store_sales));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Stream-parallel scans concatenate in stream order: row-for-row and
  // bit-for-bit equal to the serial scan.
  EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch));
  // The serial-equivalent charge fold means resource totals agree too; only
  // wall time is allowed to differ (that is the point of the pool).
  EXPECT_EQ(a->stats.total_micros, b->stats.total_micros);
  EXPECT_EQ(a->stats.rows_returned, b->stats.rows_returned);
  EXPECT_EQ(a->stats.files_scanned, b->stats.files_scanned);
  EXPECT_LE(b->stats.wall_micros, a->stats.wall_micros);
}

TEST(ParallelDeterminismTest, PartitionedJoinMatchesSerialRowForRow) {
  TpcdsScale scale = BigScale();
  World w1(scale);
  World w8(scale);

  EngineOptions serial;
  serial.num_workers = 1;
  EngineOptions parallel;
  parallel.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, serial);
  QueryEngine e8(&w8.lake, &w8.api, parallel);

  auto join = [](const TpcdsTables& t) {
    return Plan::HashJoin(Plan::Scan(t.item), Plan::Scan(t.store_sales),
                          {"i_item_id"}, {"ss_item_id"});
  };
  auto a = e1.Execute("u", join(w1.tables));
  auto b = e8.Execute("u", join(w8.tables));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_GT(a->batch.num_rows(), 0u);
  // The join probes fixed 16 Ki-row chunks and concatenates their matches
  // in chunk order, so its output is row-for-row identical to the serial
  // (one-worker) run.
  EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch));
}

TEST(ParallelDeterminismTest, ParallelAggregateMatchesSerialOnExactAggs) {
  TpcdsScale scale = BigScale();
  World w1(scale);
  World w8(scale);

  EngineOptions serial;
  serial.num_workers = 1;
  EngineOptions parallel;
  parallel.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, serial);
  QueryEngine e8(&w8.lake, &w8.api, parallel);

  // COUNT/MIN/MAX merges are exact (no floating-point reassociation), so
  // the chunked parallel aggregation must equal the serial kernel bitwise.
  auto agg = [](const TpcdsTables& t) {
    return Plan::Aggregate(Plan::Scan(t.store_sales), {"ss_store_id"},
                           {{AggOp::kCount, "ss_item_id", "n"},
                            {AggOp::kMin, "ss_sales_price", "lo"},
                            {AggOp::kMax, "ss_sales_price", "hi"}});
  };
  auto a = e1.Execute("u", agg(w1.tables));
  auto b = e8.Execute("u", agg(w8.tables));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_GT(a->batch.num_rows(), 0u);
  EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch));
}

TEST(ParallelDeterminismTest, SumAndAvgAreStableAcrossParallelRuns) {
  TpcdsScale scale = BigScale();
  World w1(scale);
  World w8(scale);

  EngineOptions serial;
  serial.num_workers = 1;
  EngineOptions parallel;
  parallel.num_workers = 8;
  QueryEngine e1(&w1.lake, &w1.api, serial);
  QueryEngine e8(&w8.lake, &w8.api, parallel);

  // Chunking is fixed at 4096 rows and the chunk partials fold in chunk
  // order at any worker count, so even floating-point SUM/AVG agree
  // bit-for-bit between a one-worker and an eight-worker run.
  auto agg = [](const TpcdsTables& t) {
    return Plan::Aggregate(Plan::Scan(t.store_sales), {"ss_store_id"},
                           {{AggOp::kSum, "ss_sales_price", "revenue"},
                            {AggOp::kAvg, "ss_sales_price", "avg_price"}});
  };
  for (int round = 0; round < 3; ++round) {
    auto a = e1.Execute("u", agg(w1.tables));
    auto b = e8.Execute("u", agg(w8.tables));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_GT(a->batch.num_rows(), 0u);
    EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch)) << round;
  }
}

}  // namespace
}  // namespace biglake
