// Columnar block cache (src/cache/): unit behavior (keys, LRU eviction,
// stats, parity with the result cache's eviction and admission) plus the
// invalidation story end-to-end — DML, storage coalescing
// and external rewrites must never let a scan observe stale cached blocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/result_cache.h"
#include "columnar/ipc.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "core/read_api.h"
#include "core/write_api.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

using cache::BlockCacheOptions;
using cache::BlockKey;
using cache::FooterKey;
using cache::ObjectKeyPrefix;
using cache::ProjectionFingerprint;

TEST(BlockCacheKeysTest, ProjectionFingerprintIsOrderInsensitive) {
  uint64_t ab = ProjectionFingerprint({"a", "b"});
  uint64_t ba = ProjectionFingerprint({"b", "a"});
  EXPECT_EQ(ab, ba);
  EXPECT_NE(ab, ProjectionFingerprint({"a"}));
  EXPECT_NE(ab, ProjectionFingerprint({"a", "c"}));
  EXPECT_NE(ab, ProjectionFingerprint({}));
}

TEST(BlockCacheKeysTest, ProjectionFingerprintIsASetFingerprint) {
  // Duplicates are ignored: [a,a,b] and [a,b] name the same column *set*, so
  // they must hit the same cached block.
  EXPECT_EQ(ProjectionFingerprint({"a", "a", "b"}),
            ProjectionFingerprint({"a", "b"}));
  EXPECT_EQ(ProjectionFingerprint({"b", "a", "b", "a"}),
            ProjectionFingerprint({"a", "b"}));
  // ...but the fingerprint is not just a bag-size collapse.
  EXPECT_NE(ProjectionFingerprint({"a", "a"}), ProjectionFingerprint({"b"}));
  // The span overload sees through any contiguous container.
  std::vector<std::string> v = {"a", "b"};
  EXPECT_EQ(ProjectionFingerprint(v), ProjectionFingerprint({"a", "b"}));
}

TEST(BlockCacheKeysTest, AdversarialNamesCannotAliasAnotherObject) {
  // Length-prefixed components: a `|` inside a bucket or object name cannot
  // re-split into a different (bucket, object) pair.
  EXPECT_NE(ObjectKeyPrefix("gcp", "a|b", "c"),
            ObjectKeyPrefix("gcp", "a", "b|c"));
  EXPECT_NE(ObjectKeyPrefix("gcp", "a", "b|c@1"),
            ObjectKeyPrefix("gcp", "a|b", "c@1"));
  // A name that *contains* the `@` generation marker cannot make one
  // object's keys parse as another's generations.
  std::string plain = ObjectKeyPrefix("gcp", "b", "o");
  std::string tricky = ObjectKeyPrefix("gcp", "b", "o@2");
  EXPECT_NE(FooterKey(tricky, 1), FooterKey(plain, 21));
  // No object's invalidation prefix is a prefix of a *different* object's
  // keys (the length digits diverge before the content can), so the prefix
  // scan in InvalidateObject can never over-drop.
  std::string p_short = ObjectKeyPrefix("gcp", "b", "o");
  std::string p_long = ObjectKeyPrefix("gcp", "b", "o@1/x");
  EXPECT_NE(FooterKey(p_long, 3).compare(0, p_short.size(), p_short), 0);
  EXPECT_NE(BlockKey(p_long, 3, 0, 7).compare(0, p_short.size(), p_short), 0);
}

TEST(BlockCacheKeysTest, KeysSeparateGenerationRowGroupAndProjection) {
  std::string p = ObjectKeyPrefix("gcp", "lake", "t/part-0.plk");
  // Generation is part of every key: a rewrite changes the key, so stale
  // entries become unreachable even without explicit invalidation.
  EXPECT_NE(FooterKey(p, 1), FooterKey(p, 2));
  EXPECT_NE(BlockKey(p, 1, 0, 7), BlockKey(p, 2, 0, 7));
  EXPECT_NE(BlockKey(p, 1, 0, 7), BlockKey(p, 1, 1, 7));
  EXPECT_NE(BlockKey(p, 1, 0, 7), BlockKey(p, 1, 0, 8));
  // Every key of an object starts with its invalidation prefix.
  EXPECT_EQ(BlockKey(p, 1, 0, 7).compare(0, p.size(), p), 0);
  EXPECT_EQ(FooterKey(p, 1).compare(0, p.size(), p), 0);
  // Different objects never share a prefix.
  EXPECT_NE(p, ObjectKeyPrefix("gcp", "lake", "t/part-1.plk"));
  EXPECT_NE(p, ObjectKeyPrefix("aws", "lake", "t/part-0.plk"));
}

std::shared_ptr<const RecordBatch> MakeBlock(size_t rows, int64_t base) {
  BatchBuilder b(MakeSchema({{"id", DataType::kInt64, false}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Int64(base + static_cast<int64_t>(i))})
                    .ok());
  }
  return std::make_shared<const RecordBatch>(b.Finish());
}

TEST(BlockCacheUnitTest, LruEvictsLeastRecentlyUsedUnderPressure) {
  LakehouseEnv lake;
  auto block = MakeBlock(64, 0);
  uint64_t bytes = block->MemoryBytes();
  ASSERT_GT(bytes, 0u);
  BlockCacheOptions opts;
  opts.shard_count = 1;  // single shard: eviction order is fully observable
  opts.capacity_bytes = 2 * bytes + bytes / 2;  // room for exactly two blocks
  lake.ConfigureBlockCache(opts);
  cache::BlockCache& c = lake.block_cache();
  ASSERT_TRUE(c.enabled());

  std::string p = ObjectKeyPrefix("gcp", "lake", "t/f.plk");
  c.PutBlock(BlockKey(p, 1, 0, 0), MakeBlock(64, 0));
  c.PutBlock(BlockKey(p, 1, 1, 0), MakeBlock(64, 100));
  // Touch row group 0 so row group 1 is now the least recently used.
  EXPECT_NE(c.GetBlock(BlockKey(p, 1, 0, 0)), nullptr);
  c.PutBlock(BlockKey(p, 1, 2, 0), MakeBlock(64, 200));

  EXPECT_EQ(c.GetBlock(BlockKey(p, 1, 1, 0)), nullptr);  // evicted
  EXPECT_NE(c.GetBlock(BlockKey(p, 1, 0, 0)), nullptr);  // survived the touch
  EXPECT_NE(c.GetBlock(BlockKey(p, 1, 2, 0)), nullptr);
  cache::BlockCacheStats stats = c.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_pinned, opts.capacity_bytes);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BlockCacheUnitTest, BufferedTxnOpsAreInvisibleUntilFolded) {
  LakehouseEnv lake;
  BlockCacheOptions opts;
  opts.capacity_bytes = 16 << 20;
  lake.ConfigureBlockCache(opts);
  cache::BlockCache& c = lake.block_cache();
  std::string key = BlockKey(ObjectKeyPrefix("gcp", "lake", "x.plk"), 1, 0, 0);

  cache::CacheTxn txn;
  {
    cache::ScopedCacheTxn scope(&txn);
    c.PutBlock(key, MakeBlock(8, 0));
    // The inserting task sees its own pending write...
    EXPECT_NE(c.GetBlock(key), nullptr);
  }
  // ...but the shared state does not, until the launcher folds the txn.
  EXPECT_EQ(c.Stats().entries, 0u);
  c.FoldTxn(&txn);
  EXPECT_EQ(c.Stats().entries, 1u);
  EXPECT_NE(c.GetBlock(key), nullptr);
}

TEST(FrequencySketchTest, EstimatesSaturateAndAgeByHalving) {
  cache::FrequencySketch sketch;
  sketch.Reset(1024);
  uint64_t hot = cache::KeyHash("hot");
  uint64_t cold = cache::KeyHash("cold");
  EXPECT_EQ(sketch.Estimate(hot), 0u);
  for (int i = 0; i < 40; ++i) sketch.Increment(hot);
  EXPECT_EQ(sketch.Estimate(hot), 15u);  // 4-bit counters saturate
  sketch.Increment(cold);
  uint64_t cold_est = sketch.Estimate(cold);
  EXPECT_GE(cold_est, 1u);  // count-min never under-counts
  EXPECT_LT(cold_est, sketch.Estimate(hot));
  // Drive past the sample period: every counter halves, so history decays
  // (aging is by logical access count, never wall time).
  uint64_t hot_before = sketch.Estimate(hot);
  for (uint64_t i = 0; i < sketch.sample_period(); ++i) {
    sketch.Increment(cache::KeyHash("filler" + std::to_string(i % 997)));
  }
  EXPECT_LT(sketch.Estimate(hot), hot_before);
}

TEST(BlockCacheUnitTest, TinyLfuRejectsOneHitWondersAndKeepsHotEntries) {
  LakehouseEnv lake;
  auto probe = MakeBlock(64, 0);
  uint64_t bytes = probe->MemoryBytes();
  BlockCacheOptions opts;
  opts.shard_count = 1;
  opts.capacity_bytes = 2 * bytes + bytes / 2;  // room for exactly two
  opts.admission_policy = cache::AdmissionPolicy::kTinyLfu;
  lake.ConfigureBlockCache(opts);
  cache::BlockCache& c = lake.block_cache();

  std::string p = ObjectKeyPrefix("gcp", "lake", "t/f.plk");
  std::string hot_a = BlockKey(p, 1, 0, 0);
  std::string hot_b = BlockKey(p, 1, 1, 0);
  c.PutBlock(hot_a, MakeBlock(64, 0));
  c.PutBlock(hot_b, MakeBlock(64, 100));
  // Build frequency on the residents (hits feed the sketch).
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(c.GetBlock(hot_a), nullptr);
    EXPECT_NE(c.GetBlock(hot_b), nullptr);
  }
  // A stream of cold, never-repeated candidates must not displace them.
  for (int i = 0; i < 8; ++i) {
    std::string cold = BlockKey(p, 1, 10 + i, 0);
    EXPECT_EQ(c.GetBlock(cold), nullptr);  // one sketch observation
    c.PutBlock(cold, MakeBlock(64, 1000 + i * 100));
  }
  EXPECT_NE(c.GetBlock(hot_a), nullptr);
  EXPECT_NE(c.GetBlock(hot_b), nullptr);
  cache::BlockCacheStats stats = c.Stats();
  EXPECT_GT(stats.admission_rejections, 0u);
  EXPECT_LE(stats.bytes_pinned, opts.capacity_bytes);

  // A candidate that *earns* frequency (repeated misses) is admitted once
  // its estimate beats the colder resident's.
  std::string riser = BlockKey(p, 1, 99, 0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c.GetBlock(riser), nullptr);
  for (int i = 0; i < 8; ++i) EXPECT_NE(c.GetBlock(hot_a), nullptr);
  c.PutBlock(riser, MakeBlock(64, 9900));
  EXPECT_NE(c.GetBlock(riser), nullptr);
}

// The block cache and the result cache share one eviction and admission
// policy: a seeded trace of the same gets and puts of the same batches must
// leave both with the same residents and the same counts, under either
// policy and either shard count.
TEST(CacheParityTest, BlockAndResultCachesEvictAndAdmitAlike) {
  constexpr size_t kKeys = 48;
  std::vector<std::string> keys;
  std::vector<std::shared_ptr<const RecordBatch>> batches;
  uint64_t total_bytes = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    keys.push_back(StrCat("key-", k));
    batches.push_back(MakeBlock(8 + (k * 7) % 57, static_cast<int64_t>(k)));
    total_bytes += batches.back()->MemoryBytes();
  }
  for (cache::AdmissionPolicy policy :
       {cache::AdmissionPolicy::kLru, cache::AdmissionPolicy::kTinyLfu}) {
    const bool tiny_lfu = policy == cache::AdmissionPolicy::kTinyLfu;
    for (uint32_t shards : {1u, 8u}) {
      SCOPED_TRACE(StrCat("tinylfu=", tiny_lfu, " shards=", shards));
      LakehouseEnv lake;
      BlockCacheOptions bopts;
      bopts.capacity_bytes = total_bytes / 4;
      bopts.shard_count = shards;
      bopts.admission_policy = policy;
      lake.ConfigureBlockCache(bopts);
      cache::ResultCacheOptions ropts;
      ropts.capacity_bytes = bopts.capacity_bytes;
      ropts.shard_count = shards;
      ropts.admission_policy = policy;
      lake.ConfigureResultCache(ropts);
      cache::BlockCache& bc = lake.block_cache();
      cache::ResultCache& rc = lake.result_cache();

      Random rng(1000 + shards);
      for (int op = 0; op < 3000; ++op) {
        const size_t k = rng.Skewed(kKeys);
        if (rng.OneIn(3)) {
          bc.PutBlock(keys[k], batches[k]);
          rc.Put(keys[k], {"ds.t"}, batches[k]);
        } else {
          const bool block_hit = bc.GetBlock(keys[k]) != nullptr;
          ASSERT_EQ(block_hit, rc.Get(keys[k]) != nullptr) << "op " << op;
        }
      }
      cache::BlockCacheStats bs = bc.Stats();
      cache::ResultCacheStats rs = rc.Stats();
      EXPECT_GT(bs.evictions, 0u);
      if (tiny_lfu) EXPECT_GT(bs.admission_rejections, 0u);
      EXPECT_EQ(bs.evictions, rs.evictions);
      EXPECT_EQ(bs.admission_rejections, rs.admission_rejections);
      EXPECT_EQ(bs.entries, rs.entries);
      EXPECT_EQ(bs.bytes_pinned, rs.bytes_pinned);
      EXPECT_EQ(bs.hits, rs.hits);
      EXPECT_EQ(bs.misses, rs.misses);
      for (const std::string& key : keys) {
        EXPECT_EQ(bc.PeekBlock(key) != nullptr, rc.Get(key) != nullptr)
            << key;
      }
    }
  }
}

// ---- End-to-end: scans through the engine ---------------------------------

class BlockCacheScanTest : public LakehouseFixture {
 protected:
  BlockCacheScanTest() : api_(&lake_), biglake_(&lake_), blmt_(&lake_) {}

  EngineOptions CachedOptions(uint32_t depth = 2) {
    EngineOptions opts;
    opts.num_workers = 2;
    opts.enable_block_cache = true;
    opts.block_cache_capacity_bytes = 64ull << 20;
    opts.readahead_depth = depth;
    return opts;
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
  BlmtService blmt_;
};

TEST_F(BlockCacheScanTest, WarmScanHitsAndMatchesColdBitForBit) {
  BuildLake("warm/", 4, 200);
  ASSERT_TRUE(
      biglake_.CreateBigLakeTable(MakeBigLakeDef("warm", "warm/")).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());

  auto cold = engine.Execute("u", Plan::Scan("ds.warm"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  cache::BlockCacheStats after_cold = lake_.block_cache().Stats();
  EXPECT_GT(after_cold.entries, 0u);
  EXPECT_GT(after_cold.misses, 0u);

  auto warm = engine.Execute("u", Plan::Scan("ds.warm"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  cache::BlockCacheStats after_warm = lake_.block_cache().Stats();
  // The warm scan is served from the cache: hits grew, entries did not.
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.entries, after_cold.entries);
  // Cache state changes cost accounting only, never bytes.
  EXPECT_EQ(SerializeBatch(warm->batch), SerializeBatch(cold->batch));
  EXPECT_EQ(warm->stats.rows_returned, cold->stats.rows_returned);
  // Warm total resource time is strictly cheaper: no footer or chunk I/O.
  EXPECT_LT(warm->stats.total_micros, cold->stats.total_micros);
}

// A pruned scan after a full scan reads no object and decodes nothing: its
// blocks are admitted as column views of the resident full-width blocks.
TEST_F(BlockCacheScanTest, NarrowProjectionIsServedAsViewOfFullBlock) {
  BuildLake("view/", 3, 150);
  ASSERT_TRUE(
      biglake_.CreateBigLakeTable(MakeBigLakeDef("view", "view/")).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());
  ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.view")).ok());
  const cache::BlockCacheStats after_full = lake_.block_cache().Stats();

  const PlanPtr narrow = Plan::Project(
      Plan::Scan("ds.view"), {"id", "price"},
      {Expr::Col("id"), Expr::Col("price")});
  const uint64_t gets = lake_.sim().counters().Get("objstore.get_calls");
  auto got = engine.Execute("u", narrow);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(lake_.sim().counters().Get("objstore.get_calls"), gets);
  const cache::BlockCacheStats after_narrow = lake_.block_cache().Stats();
  EXPECT_GT(after_narrow.entries, after_full.entries);

  EngineOptions plain;
  plain.num_workers = 2;
  plain.max_read_streams = CachedOptions().max_read_streams;
  QueryEngine uncached(&lake_, &api_, plain);
  auto want = uncached.Execute("u", narrow);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(SerializeBatch(got->batch), SerializeBatch(want->batch));
}

TEST_F(BlockCacheScanTest, DmlInvalidatesAndScansNeverSeeStaleRows) {
  TableDef def;
  def.dataset = "ds";
  def.name = "dml";
  def.schema = SalesSchema();
  def.connection = "us.lake-conn";
  def.location = gcp_;
  def.bucket = "lake";
  def.prefix = "dml/";
  def.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(def).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.dml", SalesBatch(120, 0, 7)).ok());

  QueryEngine engine(&lake_, &api_, CachedOptions());
  auto before = engine.Execute("u", Plan::Scan("ds.dml"));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  // Warm the cache, then mutate.
  ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.dml")).ok());
  ASSERT_GT(lake_.block_cache().Stats().entries, 0u);

  auto deleted = blmt_.Delete(
      "u", "ds.dml", Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(50))));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 50u);
  // The rewrite dropped the cached blocks of the replaced file eagerly.
  EXPECT_GT(lake_.block_cache().Stats().invalidations, 0u);

  auto after = engine.Execute("u", Plan::Scan("ds.dml"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.rows_returned, 70u);
  // Cross-check against a cache-free world: the cached read is identical.
  EngineOptions plain;
  plain.num_workers = 2;
  QueryEngine uncached(&lake_, &api_, plain);
  auto verify = uncached.Execute("u", Plan::Scan("ds.dml"));
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(SerializeBatch(after->batch), SerializeBatch(verify->batch));
}

TEST_F(BlockCacheScanTest, StorageCoalescingInvalidatesRewrittenObjects) {
  TableDef def;
  def.dataset = "ds";
  def.name = "opt";
  def.schema = SalesSchema();
  def.connection = "us.lake-conn";
  def.location = gcp_;
  def.bucket = "lake";
  def.prefix = "opt/";
  def.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(def).ok());
  // Many small files so OptimizeStorage actually coalesces.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        blmt_.Insert("u", "ds.opt", SalesBatch(20, i * 100, 10 + i)).ok());
  }

  QueryEngine engine(&lake_, &api_, CachedOptions());
  auto before = engine.Execute("u", Plan::Scan("ds.opt"));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  uint64_t inv_before = lake_.block_cache().Stats().invalidations;

  auto report = blmt_.OptimizeStorage("ds.opt");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(lake_.block_cache().Stats().invalidations, inv_before);

  auto after = engine.Execute("u", Plan::Scan("ds.opt"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.rows_returned, before->stats.rows_returned);
}

TEST_F(BlockCacheScanTest, ExternalRewriteMissesViaGenerationKey) {
  // Uncached-metadata table: every scan re-lists, so a rewrite is visible
  // immediately — the cache must not resurrect the old bytes.
  BuildLake("gen/", 1, 50);
  ASSERT_TRUE(
      biglake_.CreateBigLakeTable(MakeBigLakeDef("gen", "gen/", false)).ok());
  QueryEngine engine(&lake_, &api_, CachedOptions());
  auto old_scan = engine.Execute("u", Plan::Scan("ds.gen"));
  ASSERT_TRUE(old_scan.ok()) << old_scan.status().ToString();

  // External writer rewrites the object in place (new generation, new rows).
  RecordBatch replacement = SalesBatch(80, 5000, 99);
  auto bytes = WriteParquetFile(replacement);
  ASSERT_TRUE(bytes.ok());
  PutOptions po;
  po.content_type = "application/x-parquet-lite";
  ASSERT_TRUE(
      store_->Put(GcpCaller(), "lake", "gen/date=0/part-0.plk", *bytes, po)
          .ok());

  auto fresh = engine.Execute("u", Plan::Scan("ds.gen"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // Stale cached blocks (old generation) were unreachable by key.
  EXPECT_EQ(fresh->stats.rows_returned, 80u);
  auto ids = fresh->batch.ColumnByName("id");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ((*ids)->Decode().int64_data()[0], 5000);
}

TEST_F(BlockCacheScanTest, WriteApiCommitIsVisibleToWarmScans) {
  TableDef def;
  def.dataset = "ds";
  def.name = "wapi";
  def.schema = SalesSchema();
  def.connection = "us.lake-conn";
  def.location = gcp_;
  def.bucket = "lake";
  def.prefix = "wapi/";
  def.iam.Grant("*", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(def).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.wapi", SalesBatch(30, 0, 3)).ok());

  QueryEngine engine(&lake_, &api_, CachedOptions());
  ASSERT_TRUE(engine.Execute("u", Plan::Scan("ds.wapi")).ok());  // warm

  StorageWriteApi write_api(&lake_);
  auto stream =
      write_api.CreateWriteStream("u", "ds.wapi", WriteMode::kPending);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  ASSERT_TRUE(write_api.AppendRows(*stream, SalesBatch(25, 1000, 4)).ok());
  ASSERT_TRUE(write_api.FinalizeStream(*stream).ok());
  ASSERT_TRUE(write_api.BatchCommit({*stream}).ok());

  auto after = engine.Execute("u", Plan::Scan("ds.wapi"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.rows_returned, 55u);
}

TEST_F(BlockCacheScanTest, FaultedReadsRetryCleanlyAndNeverPoisonTheCache) {
  BuildLake("flt/", 3, 100);
  ASSERT_TRUE(biglake_.CreateBigLakeTable(MakeBigLakeDef("flt", "flt/")).ok());

  // Fault-free baseline from an uncached engine.
  EngineOptions plain;
  plain.num_workers = 2;
  QueryEngine uncached(&lake_, &api_, plain);
  auto baseline = uncached.Execute("u", Plan::Scan("ds.flt"));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::string baseline_bytes = SerializeBatch(baseline->batch);

  QueryEngine engine(&lake_, &api_, CachedOptions());
  fault::FaultInjector* injector =
      fault::FaultInjector::InstallOn(&lake_.sim());
  injector->SetPlan(fault::FaultPlan::FailNext(FaultSite::kObjGet));
  auto faulted = engine.Execute("u", Plan::Scan("ds.flt"));
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(SerializeBatch(faulted->batch), baseline_bytes);
  EXPECT_GT(lake_.sim().counters().Get("retry.read_rows"), 0u);

  // Whatever the faulted attempt cached is whole (admission requires every
  // read to have observed the expected generation): the warm scan agrees.
  injector->Clear();
  auto warm = engine.Execute("u", Plan::Scan("ds.flt"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(SerializeBatch(warm->batch), baseline_bytes);
}

}  // namespace
}  // namespace biglake
