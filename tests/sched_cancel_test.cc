// Cancellation races under parallel execution: queries cancelled mid-scan
// at 1/2/8 workers must (a) leak no partial results, (b) never poison the
// block cache, and (c) fold all counters deterministically — the cancelled
// outcome set, per-query stamps, and cache hit/miss/eviction counts are
// bit-identical at every worker count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "columnar/ipc.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "engine/engine.h"
#include "lakehouse_fixture.h"
#include "sched/scheduler.h"

namespace biglake {
namespace sched {
namespace {

class CancelWorld : public LakehouseFixture {
 public:
  using LakehouseFixture::lake_;

  CancelWorld() : api_(&lake_), biglake_(&lake_) {
    std::string prefix = "sales/";
    BuildLake(prefix, /*num_files=*/6, /*rows_per_file=*/80);
    EXPECT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef("sales", prefix)).ok());
  }
  void TestBody() override {}

  QueryEngine MakeEngine(uint32_t workers, uint32_t readahead_depth) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.max_read_streams = 4;
    opts.readahead_depth = readahead_depth;
    opts.enable_block_cache = true;
    opts.block_cache_capacity_bytes = 4ull << 20;
    return QueryEngine(&lake_, &api_, opts);
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
};

QueryRequest Req(const std::string& tenant, PlanPtr plan, SimMicros arrive,
                 SimMicros deadline) {
  QueryRequest r;
  r.tenant = tenant;
  r.lane = Lane::kInteractive;
  r.principal = "u";
  r.plan = std::move(plan);
  r.arrive_micros = arrive;
  r.deadline_micros = deadline;
  return r;
}

// Cancel-heavy trace: doomed queries (tiny budgets tripping mid-scan, at
// different points thanks to different budgets) interleaved with healthy
// ones scanning the same table through the same block cache.
std::vector<QueryRequest> BuildTrace() {
  std::vector<QueryRequest> trace;
  for (int i = 0; i < 24; ++i) {
    SimMicros arrive = static_cast<SimMicros>(i) * 100;
    if (i % 2 == 0) {
      trace.push_back(Req("doomed" + std::to_string(i % 4),
                          Plan::Scan("ds.sales"), arrive,
                          /*deadline=*/10 + static_cast<SimMicros>(i) * 7));
    } else {
      trace.push_back(Req("healthy" + std::to_string(i % 3),
                          Plan::Scan("ds.sales"), arrive, /*deadline=*/0));
    }
  }
  return trace;
}

struct CancelRun {
  std::vector<QueryOutcome> outcomes;
  cache::BlockCacheStats cache_stats;
  std::string post_cancel_batch;  // serialized re-run through the warm cache
  SimMicros post_cancel_total_micros = 0;
};

CancelRun RunAt(uint32_t workers, uint32_t readahead_depth) {
  CancelWorld world;
  QueryEngine engine = world.MakeEngine(workers, readahead_depth);
  SchedulerOptions opts;
  opts.total_slots = 4;
  QueryScheduler sched(&world.lake_, &engine, opts);

  CancelRun run;
  run.outcomes = sched.RunAll(BuildTrace());
  run.cache_stats = world.lake_.block_cache().Stats();
  // Re-scan through whatever the cancelled queries left in the cache: if a
  // cancelled query admitted a partial or corrupt block, this differs.
  auto result = engine.Execute("u", Plan::Scan("ds.sales"));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    run.post_cancel_batch = SerializeBatch(result->batch);
    run.post_cancel_total_micros = result->stats.total_micros;
  }
  return run;
}

// Runs once through the prefetch pool (readahead depth 2) and once through
// the inline window of one (depth 0): each must cancel at the same file at
// every worker count.
TEST(SchedCancelTest, MidScanCancellationLeaksNothingAtAnyWorkerCount) {
  for (uint32_t depth : {2u, 0u}) {
    SCOPED_TRACE("readahead_depth " + std::to_string(depth));
    CancelRun base = RunAt(1, depth);

    int cancelled = 0, completed = 0;
    for (const auto& out : base.outcomes) {
      if (out.state == QueryState::kCancelledRunning ||
          out.state == QueryState::kCancelledQueued) {
        ++cancelled;
        // No partial results leak out of a cancelled query.
        EXPECT_EQ(out.rows, 0u);
        EXPECT_TRUE(out.status.IsDeadlineExceeded()) << out.status.ToString();
      } else {
        ASSERT_EQ(out.state, QueryState::kCompleted) << out.status.ToString();
        ++completed;
        EXPECT_EQ(out.rows, 480u);
      }
    }
    // The trace must actually race cancellations against healthy scans.
    EXPECT_GE(cancelled, 8);
    EXPECT_GE(completed, 12);

    // A fresh, never-cancelled world is the poisoning oracle: the
    // post-cancel re-scan through the warm (possibly poisoned) cache must
    // match a world where no cancellation ever touched the cache.
    {
      CancelWorld clean;
      QueryEngine engine = clean.MakeEngine(1, depth);
      auto pristine = engine.Execute("u", Plan::Scan("ds.sales"));
      ASSERT_TRUE(pristine.ok());
      EXPECT_EQ(base.post_cancel_batch, SerializeBatch(pristine->batch));
    }

    for (uint32_t workers : {2u, 8u}) {
      CancelRun other = RunAt(workers, depth);
      ASSERT_EQ(base.outcomes.size(), other.outcomes.size());
      for (size_t i = 0; i < base.outcomes.size(); ++i) {
        const QueryOutcome& a = base.outcomes[i];
        const QueryOutcome& b = other.outcomes[i];
        EXPECT_EQ(a.state, b.state) << "w=" << workers << " query " << i;
        EXPECT_EQ(a.status.code(), b.status.code()) << i;
        EXPECT_EQ(a.rows, b.rows) << i;
        EXPECT_EQ(a.queue_micros, b.queue_micros) << i;
        EXPECT_EQ(a.service_micros, b.service_micros) << i;
        EXPECT_EQ(a.finish_micros, b.finish_micros) << i;
      }
      // Deterministic counter folds: the cache saw the same hits, misses,
      // insertions and evictions regardless of how workers interleaved.
      EXPECT_EQ(base.cache_stats.hits, other.cache_stats.hits) << workers;
      EXPECT_EQ(base.cache_stats.misses, other.cache_stats.misses) << workers;
      EXPECT_EQ(base.cache_stats.evictions, other.cache_stats.evictions);
      EXPECT_EQ(base.cache_stats.entries, other.cache_stats.entries);
      EXPECT_EQ(base.cache_stats.bytes_pinned,
                other.cache_stats.bytes_pinned);
      // And the post-cancel world is byte-identical too.
      EXPECT_EQ(base.post_cancel_batch, other.post_cancel_batch) << workers;
      EXPECT_EQ(base.post_cancel_total_micros,
                other.post_cancel_total_micros);
    }
  }
}

}  // namespace
}  // namespace sched
}  // namespace biglake
