// Determinism of the cached, prefetching read path: with the block cache on
// and a readahead window issuing speculative fetch+decode work on a separate
// pool, results, cost counters, the virtual clock, cache statistics and
// deterministic profiles must be bit-identical at any worker count — and a
// warm scan must return exactly the bytes of the cold one.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "columnar/ipc.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "engine/engine.h"
#include "obs/profile.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

// Same self-contained world as parallel_determinism_test, at a scale that
// crosses the parallel thresholds so streams really run on the pool.
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

TpcdsScale MidScale() {
  TpcdsScale scale;
  scale.days = 6;
  scale.rows_per_day = 1000;
  return scale;
}

EngineOptions CachedOptions(uint32_t workers, uint32_t depth = 2) {
  EngineOptions opts;
  opts.num_workers = workers;
  // Pin the stream fan-out so the query shape is identical across pools —
  // and keep it smaller than the file count so each stream holds several
  // files and the readahead window actually engages.
  opts.max_read_streams = 2;
  opts.enable_block_cache = true;
  opts.block_cache_capacity_bytes = 64ull << 20;
  opts.readahead_depth = depth;
  return opts;
}

obs::ProfileExportOptions Deterministic() {
  obs::ProfileExportOptions o;
  o.include_wall = false;
  o.pretty = false;
  return o;
}

// Cold and warm cached scans agree bit-for-bit at 1, 2 and 8 workers, and
// every virtual cost (clock, sim counters, cache stats) converges to the
// same totals regardless of how the pool interleaved the work.
TEST(CacheDeterminismTest, ColdAndWarmScansAreBitIdenticalAcrossWorkers) {
  TpcdsScale scale = MidScale();
  struct Run {
    std::string cold_bytes, warm_bytes;
    QueryStats cold_stats, warm_stats;
    std::map<std::string, uint64_t> counters;
    SimMicros clock = 0;
    cache::BlockCacheStats cache;
  };
  std::vector<Run> runs;
  for (uint32_t workers : {1u, 2u, 8u}) {
    World w(scale);
    QueryEngine engine(&w.lake, &w.api, CachedOptions(workers));
    Run run;
    auto cold = engine.Execute("u", Plan::Scan(w.tables.store_sales));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    run.cold_bytes = SerializeBatch(cold->batch);
    run.cold_stats = cold->stats;
    auto warm = engine.Execute("u", Plan::Scan(w.tables.store_sales));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    run.warm_bytes = SerializeBatch(warm->batch);
    run.warm_stats = warm->stats;
    run.counters = w.lake.sim().counters().all();
    run.clock = w.lake.sim().clock().Now();
    run.cache = w.lake.block_cache().Stats();
    runs.push_back(std::move(run));
  }

  // Warm equals cold within every run: cache state changes costs, not bytes.
  for (const Run& r : runs) {
    EXPECT_EQ(r.warm_bytes, r.cold_bytes);
    EXPECT_EQ(r.warm_stats.rows_returned, r.cold_stats.rows_returned);
    EXPECT_LT(r.warm_stats.total_micros, r.cold_stats.total_micros);
  }
  // And every run equals the serial one, to the last counter and tick.
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].cold_bytes, runs[0].cold_bytes) << "run " << i;
    EXPECT_EQ(runs[i].warm_bytes, runs[0].warm_bytes) << "run " << i;
    EXPECT_EQ(runs[i].cold_stats.total_micros, runs[0].cold_stats.total_micros)
        << "run " << i;
    EXPECT_EQ(runs[i].warm_stats.total_micros, runs[0].warm_stats.total_micros)
        << "run " << i;
    EXPECT_EQ(runs[i].counters, runs[0].counters) << "run " << i;
    EXPECT_EQ(runs[i].clock, runs[0].clock) << "run " << i;
    EXPECT_EQ(runs[i].cache.entries, runs[0].cache.entries) << "run " << i;
    EXPECT_EQ(runs[i].cache.bytes_pinned, runs[0].cache.bytes_pinned)
        << "run " << i;
    EXPECT_EQ(runs[i].cache.hits, runs[0].cache.hits) << "run " << i;
    EXPECT_EQ(runs[i].cache.misses, runs[0].cache.misses) << "run " << i;
    EXPECT_EQ(runs[i].cache.evictions, runs[0].cache.evictions)
        << "run " << i;
  }
}

// The prefetch fold is serial-equivalent: any readahead depth returns the
// same bytes and burns the same resource time as the window of one (depths
// 0 and 1, fetched inline), with the block cache on or off — only the
// analytic wall estimate (overlapped I/O) and the readapi.prefetch_*
// counters that account for it change.
TEST(CacheDeterminismTest, ReadaheadDepthNeverChangesResultsOrResourceCost) {
  TpcdsScale scale = MidScale();
  auto without_prefetch = [](std::map<std::string, uint64_t> counters) {
    for (auto it = counters.begin(); it != counters.end();) {
      it = it->first.rfind("readapi.prefetch_", 0) == 0 ? counters.erase(it)
                                                        : std::next(it);
    }
    return counters;
  };
  for (bool block_cache : {true, false}) {
    SCOPED_TRACE(block_cache ? "block cache on" : "block cache off");
    std::string bytes0;
    SimMicros total0 = 0, wall0 = 0, clock0 = 0;
    std::map<std::string, uint64_t> counters0;
    for (uint32_t depth : {0u, 1u, 2u, 8u}) {
      World w(scale);
      EngineOptions opts = CachedOptions(4, depth);
      opts.enable_block_cache = block_cache;
      QueryEngine engine(&w.lake, &w.api, opts);
      auto r = engine.Execute("u", Plan::Scan(w.tables.store_sales));
      ASSERT_TRUE(r.ok()) << "depth " << depth << ": "
                          << r.status().ToString();
      std::map<std::string, uint64_t> counters =
          without_prefetch(w.lake.sim().counters().all());
      if (depth == 0) {
        bytes0 = SerializeBatch(r->batch);
        total0 = r->stats.total_micros;
        wall0 = r->stats.wall_micros;
        clock0 = w.lake.sim().clock().Now();
        counters0 = std::move(counters);
        continue;
      }
      EXPECT_EQ(SerializeBatch(r->batch), bytes0) << "depth " << depth;
      EXPECT_EQ(r->stats.total_micros, total0) << "depth " << depth;
      EXPECT_EQ(w.lake.sim().clock().Now(), clock0) << "depth " << depth;
      EXPECT_EQ(counters, counters0) << "depth " << depth;
      if (depth == 1) {
        EXPECT_EQ(r->stats.wall_micros, wall0);  // nothing overlapped
      } else {
        // Overlap can only help the cold scan's wall estimate.
        EXPECT_LT(r->stats.wall_micros, wall0) << "depth " << depth;
      }
    }
  }
}

// Scheduling half: two independently scheduled 8-worker worlds export
// byte-identical deterministic profiles for the cold scan, and again for
// the warm scan (cold and warm profiles legitimately differ — cache spans
// replace I/O spans — but each is reproducible on its own).
TEST(CacheDeterminismTest, CachedProfilesAreByteIdenticalAcrossSchedules) {
  TpcdsScale scale = MidScale();
  World w1(scale);
  World w2(scale);
  QueryEngine e1(&w1.lake, &w1.api, CachedOptions(8));
  QueryEngine e2(&w2.lake, &w2.api, CachedOptions(8));

  PlanPtr q1 = Plan::Scan(w1.tables.store_sales);
  PlanPtr q2 = Plan::Scan(w2.tables.store_sales);
  std::string cold_json;
  for (int round = 0; round < 2; ++round) {  // round 0 cold, round 1 warm
    obs::QueryProfile p1, p2;
    auto a = e1.Execute("u", q1, &p1);
    auto b = e2.Execute("u", q2, &p2);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeBatch(a->batch), SerializeBatch(b->batch)) << round;
    std::string j1 = p1.ToJson(Deterministic());
    std::string j2 = p2.ToJson(Deterministic());
    EXPECT_EQ(j1, j2) << "round " << round;
    ASSERT_GT(j1.size(), 2u);
    if (round == 0) {
      cold_json = j1;
    } else {
      // The warm profile really took the cache path (it differs from cold).
      EXPECT_NE(j1, cold_json);
    }
  }
  EXPECT_EQ(w1.lake.sim().counters().all(), w2.lake.sim().counters().all());
  EXPECT_EQ(w1.lake.sim().clock().Now(), w2.lake.sim().clock().Now());
  // The sweep exercised the cache and the prefetcher on both worlds.
  EXPECT_GT(w1.lake.sim().counters().Get("blockcache.hits"), 0u);
  EXPECT_GT(w1.lake.sim().counters().Get("readapi.prefetch_issued"), 0u);
}

// Joins and aggregations on top of cached scans stay deterministic too.
TEST(CacheDeterminismTest, CachedStarQueryMatchesAcrossWorkerCounts) {
  TpcdsScale scale = MidScale();
  PlanPtr query;
  std::string bytes;
  bool first = true;
  for (uint32_t workers : {1u, 8u}) {
    World w(scale);
    QueryEngine engine(&w.lake, &w.api, CachedOptions(workers));
    PlanPtr q = Plan::Aggregate(
        Plan::HashJoin(Plan::Scan(w.tables.item),
                       Plan::Scan(w.tables.store_sales), {"i_item_id"},
                       {"ss_item_id"}),
        {"ss_store_id"},
        {{AggOp::kCount, "ss_item_id", "n"},
         {AggOp::kMin, "ss_sales_price", "lo"}});
    // Warm the cache with one run, then compare the warm run.
    ASSERT_TRUE(engine.Execute("u", q).ok());
    auto r = engine.Execute("u", q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (first) {
      bytes = SerializeBatch(r->batch);
      first = false;
    } else {
      EXPECT_EQ(SerializeBatch(r->batch), bytes);
    }
  }
}

}  // namespace
}  // namespace biglake
