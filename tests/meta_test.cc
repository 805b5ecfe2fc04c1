#include <gtest/gtest.h>

#include "format/parquet_lite.h"
#include "meta/bigmeta.h"
#include "meta/metadata_cache.h"

namespace biglake {
namespace {

CachedFileMeta MakeFile(const std::string& path, uint64_t rows,
                        int64_t id_min = 0, int64_t id_max = 100,
                        int64_t date_part = -1) {
  CachedFileMeta f;
  f.file.path = path;
  f.file.size_bytes = rows * 32;
  f.file.row_count = rows;
  ColumnStats s;
  s.min = Value::Int64(id_min);
  s.max = Value::Int64(id_max);
  s.row_count = rows;
  s.distinct_count = rows;
  f.file.column_stats["id"] = s;
  if (date_part >= 0) {
    f.file.partition.emplace_back("date", Value::Int64(date_part));
  }
  return f;
}

class BigMetaTest : public ::testing::Test {
 protected:
  BigMetaTest() : meta_(&env_) { meta_.EnsureTable("ds.t"); }
  SimEnv env_;
  BigMetadataStore meta_;
};

TEST_F(BigMetaTest, AppendAndSnapshot) {
  ASSERT_TRUE(meta_.AppendFiles("ds.t", {MakeFile("a", 10)}).ok());
  ASSERT_TRUE(meta_.AppendFiles("ds.t", {MakeFile("b", 20)}).ok());
  auto snap = meta_.Snapshot("ds.t");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);
  EXPECT_EQ((*snap)[0].file.path, "a");
  EXPECT_EQ((*snap)[1].file.row_count, 20u);
}

TEST_F(BigMetaTest, UnknownTableFails) {
  EXPECT_TRUE(meta_.Snapshot("nope").status().IsNotFound());
  EXPECT_TRUE(meta_.AppendFiles("nope", {}).status().IsNotFound());
  EXPECT_TRUE(meta_.DropTable("nope").IsNotFound());
}

TEST_F(BigMetaTest, RemoveFiles) {
  ASSERT_TRUE(
      meta_.AppendFiles("ds.t", {MakeFile("a", 10), MakeFile("b", 20)}).ok());
  ASSERT_TRUE(meta_.RemoveFiles("ds.t", {"a"}).ok());
  auto snap = meta_.Snapshot("ds.t");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ((*snap)[0].file.path, "b");
}

TEST_F(BigMetaTest, SnapshotIsolationByTxn) {
  auto t1 = meta_.AppendFiles("ds.t", {MakeFile("a", 10)});
  ASSERT_TRUE(t1.ok());
  auto t2 = meta_.AppendFiles("ds.t", {MakeFile("b", 20)});
  ASSERT_TRUE(t2.ok());
  auto old_snap = meta_.Snapshot("ds.t", *t1);
  ASSERT_TRUE(old_snap.ok());
  EXPECT_EQ(old_snap->size(), 1u);
  auto new_snap = meta_.Snapshot("ds.t", *t2);
  ASSERT_TRUE(new_snap.ok());
  EXPECT_EQ(new_snap->size(), 2u);
}

TEST_F(BigMetaTest, MultiTableTransactionIsAtomic) {
  meta_.EnsureTable("ds.u");
  MetaTransaction txn = meta_.BeginTransaction();
  txn.AddFiles("ds.t", {MakeFile("t1", 5)});
  txn.AddFiles("ds.u", {MakeFile("u1", 7)});
  auto id = txn.Commit();
  ASSERT_TRUE(id.ok());
  // Both tables see the same txn id.
  auto st = meta_.Snapshot("ds.t", *id);
  auto su = meta_.Snapshot("ds.u", *id);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(su.ok());
  EXPECT_EQ(st->size(), 1u);
  EXPECT_EQ(su->size(), 1u);
  // Reuse is rejected.
  EXPECT_FALSE(txn.Commit().ok());
}

TEST_F(BigMetaTest, MultiTableTransactionFailsAtomicallyOnUnknownTable) {
  MetaTransaction txn = meta_.BeginTransaction();
  txn.AddFiles("ds.t", {MakeFile("x", 5)});
  txn.AddFiles("ds.missing", {MakeFile("y", 5)});
  EXPECT_FALSE(txn.Commit().ok());
  // Nothing applied to ds.t either.
  auto snap = meta_.Snapshot("ds.t");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->empty());
}

TEST_F(BigMetaTest, CompactionFoldsTail) {
  BigMetadataOptions opts;
  opts.compaction_threshold = 10;
  BigMetadataStore meta(&env_, opts);
  meta.EnsureTable("t");
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        meta.AppendFiles("t", {MakeFile("f" + std::to_string(i), 1)}).ok());
  }
  auto tail = meta.TailLength("t");
  ASSERT_TRUE(tail.ok());
  EXPECT_LT(*tail, 10u);
  auto baseline = meta.BaselineSize("t");
  ASSERT_TRUE(baseline.ok());
  EXPECT_GE(*baseline, 20u);
  // All 25 files visible regardless of compaction state.
  auto snap = meta.Snapshot("t");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 25u);
}

// Compaction moves the tail's file metadata into the baseline. Snapshots
// and simulated charges must be exactly those of a store that never
// compacts, plus one `micros_per_file * (baseline + 1)` charge per fold.
TEST_F(BigMetaTest, CompactionMovesTailWithoutChangingSnapshotsOrCharges) {
  BigMetadataOptions compacting;
  compacting.compaction_threshold = 4;
  compacting.compaction_micros_per_file = 10.0;
  BigMetadataOptions never = compacting;
  never.compaction_threshold = 1u << 30;
  SimEnv env_a;
  SimEnv env_b;
  BigMetadataStore a(&env_a, compacting);
  BigMetadataStore b(&env_b, never);
  a.EnsureTable("t");
  b.EnsureTable("t");
  auto paths = [](const std::vector<CachedFileMeta>& files) {
    std::vector<std::string> out;
    for (const auto& f : files) {
      out.push_back(f.file.path + "#" + std::to_string(f.file.row_count) +
                    "#" + f.file.column_stats.at("id").max.ToString());
    }
    return out;
  };
  SimMicros compactions_charged = 0;
  for (int i = 0; i < 14; ++i) {
    // Adds, removes of earlier files and a re-add of a removed path, so
    // the fold order of removes and adds matters.
    auto commit = [&](BigMetadataStore* m) {
      MetaTransaction txn = m->BeginTransaction();
      txn.AddFiles("t", {MakeFile("f" + std::to_string(i), 10 + i, 0, i),
                         MakeFile("g" + std::to_string(i), 1)});
      if (i >= 2) txn.RemoveFiles("t", {"g" + std::to_string(i - 2)});
      if (i == 9) txn.AddFiles("t", {MakeFile("g0", 99, 0, 99)});
      return txn.Commit();
    };
    const SimMicros a0 = env_a.clock().Now();
    const SimMicros b0 = env_b.clock().Now();
    ASSERT_TRUE(commit(&a).ok());
    ASSERT_TRUE(commit(&b).ok());
    SimMicros compaction = 0;
    if (*a.TailLength("t") == 0) {
      compaction = static_cast<SimMicros>(
          10.0 * static_cast<double>(*a.BaselineSize("t") + 1));
    }
    // A commit costs the same on both stores, plus the fold when it ran.
    EXPECT_EQ(env_a.clock().Now() - a0, env_b.clock().Now() - b0 + compaction)
        << "commit " << i;
    compactions_charged += compaction;
    auto snap_a = a.Snapshot("t");
    auto snap_b = b.Snapshot("t");
    ASSERT_TRUE(snap_a.ok());
    ASSERT_TRUE(snap_b.ok());
    EXPECT_EQ(paths(*snap_a), paths(*snap_b)) << "after commit " << i;
  }
  EXPECT_GT(compactions_charged, 0);
  EXPECT_EQ(env_a.counters().Get("bigmeta.compactions"), 3u);
  // An explicit Compact folds the rest and charges the same formula.
  const SimMicros before = env_a.clock().Now();
  ASSERT_TRUE(a.Compact("t").ok());
  EXPECT_EQ(*a.TailLength("t"), 0u);
  EXPECT_EQ(env_a.clock().Now() - before,
            static_cast<SimMicros>(
                10.0 * static_cast<double>(*a.BaselineSize("t") + 1)));
  EXPECT_EQ(paths(*a.Snapshot("t")), paths(*b.Snapshot("t")));
  EXPECT_EQ(env_a.counters().Get("bigmeta.compactions"), 4u);
}

TEST_F(BigMetaTest, SnapshotBeforeBaselineTxnIsRejected) {
  BigMetadataOptions opts;
  opts.compaction_threshold = 2;
  BigMetadataStore meta(&env_, opts);
  meta.EnsureTable("t");
  auto t1 = meta.AppendFiles("t", {MakeFile("a", 1)});
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        meta.AppendFiles("t", {MakeFile("f" + std::to_string(i), 1)}).ok());
  }
  ASSERT_TRUE(meta.Compact("t").ok());
  EXPECT_FALSE(meta.Snapshot("t", *t1).ok());
}

TEST_F(BigMetaTest, ExplicitCompact) {
  ASSERT_TRUE(meta_.AppendFiles("ds.t", {MakeFile("a", 1)}).ok());
  ASSERT_TRUE(meta_.Compact("ds.t").ok());
  EXPECT_EQ(*meta_.TailLength("ds.t"), 0u);
  EXPECT_EQ(*meta_.BaselineSize("ds.t"), 1u);
  EXPECT_EQ(meta_.Snapshot("ds.t")->size(), 1u);
}

TEST_F(BigMetaTest, PruneByColumnStats) {
  ASSERT_TRUE(meta_
                  .AppendFiles("ds.t", {MakeFile("lo", 10, 0, 99),
                                        MakeFile("hi", 10, 100, 199)})
                  .ok());
  auto pruned = meta_.PruneFiles(
      "ds.t", Expr::Gt(Expr::Col("id"), Expr::Lit(Value::Int64(150))));
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->candidates, 2u);
  EXPECT_EQ(pruned->pruned, 1u);
  ASSERT_EQ(pruned->files.size(), 1u);
  EXPECT_EQ(pruned->files[0].file.path, "hi");
}

TEST_F(BigMetaTest, PruneByPartitionValue) {
  ASSERT_TRUE(meta_
                  .AppendFiles("ds.t",
                               {MakeFile("d1", 10, 0, 9, 20240101),
                                MakeFile("d2", 10, 0, 9, 20240102),
                                MakeFile("d3", 10, 0, 9, 20240103)})
                  .ok());
  auto pruned = meta_.PruneFiles(
      "ds.t", Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(20240102))));
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->pruned, 2u);
  ASSERT_EQ(pruned->files.size(), 1u);
  EXPECT_EQ(pruned->files[0].file.path, "d2");
}

TEST_F(BigMetaTest, NullPredicateReturnsEverything) {
  ASSERT_TRUE(meta_.AppendFiles("ds.t", {MakeFile("a", 1)}).ok());
  auto pruned = meta_.PruneFiles("ds.t", nullptr);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->files.size(), 1u);
  EXPECT_EQ(pruned->pruned, 0u);
}

TEST_F(BigMetaTest, TableStatsMergeAcrossFiles) {
  ASSERT_TRUE(meta_
                  .AppendFiles("ds.t", {MakeFile("a", 10, 5, 50),
                                        MakeFile("b", 20, 40, 90)})
                  .ok());
  auto stats = meta_.TableStats("ds.t");
  ASSERT_TRUE(stats.ok());
  const ColumnStats& id = stats->at("id");
  EXPECT_EQ(id.min, Value::Int64(5));
  EXPECT_EQ(id.max, Value::Int64(90));
  EXPECT_EQ(id.row_count, 30u);
}

TEST_F(BigMetaTest, CommitLatencyIsMicrosNotObjectStoreRoundTrips) {
  SimMicros before = env_.clock().Now();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        meta_.AppendFiles("ds.t", {MakeFile("f" + std::to_string(i), 1)})
            .ok());
  }
  SimMicros elapsed = env_.clock().Now() - before;
  // 100 commits at 0.5 ms each: far beyond the ~5/sec object-store bound.
  EXPECT_LE(elapsed, 200'000u);
  EXPECT_EQ(env_.counters().Get("bigmeta.commits"), 100u);
}

// ---- Metadata cache refresh -------------------------------------------------

TEST(ParseHivePartitionTest, ExtractsSegments) {
  auto p = ParseHivePartition("date=20231101/region=east/part-0.plk");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].first, "date");
  EXPECT_EQ(p[0].second, Value::Int64(20231101));
  EXPECT_EQ(p[1].first, "region");
  EXPECT_EQ(p[1].second, Value::String("east"));
  EXPECT_TRUE(ParseHivePartition("no/partitions/here.plk").empty());
}

class CacheRefreshTest : public ::testing::Test {
 protected:
  CacheRefreshTest()
      : store_(&env_, StoreOptions()), meta_(&env_), cache_(&env_, &meta_) {
    EXPECT_TRUE(store_.CreateBucket("lake").ok());
  }
  static ObjectStoreOptions StoreOptions() {
    ObjectStoreOptions o;
    o.location = {CloudProvider::kGCP, "us-central1"};
    return o;
  }
  CallerContext Caller() const {
    return {.location = {CloudProvider::kGCP, "us-central1"}};
  }

  void PutParquet(const std::string& name, int64_t base_id, size_t rows) {
    auto schema = MakeSchema({{"id", DataType::kInt64, false}});
    std::vector<int64_t> ids;
    for (size_t i = 0; i < rows; ++i) {
      ids.push_back(base_id + static_cast<int64_t>(i));
    }
    std::vector<Column> cols{Column::MakeInt64(ids)};
    auto bytes = WriteParquetFile(RecordBatch(schema, std::move(cols)));
    ASSERT_TRUE(bytes.ok());
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    ASSERT_TRUE(store_.Put(Caller(), "lake", name, *bytes, po).ok());
  }

  SimEnv env_;
  ObjectStore store_;
  BigMetadataStore meta_;
  MetadataCacheManager cache_;
};

TEST_F(CacheRefreshTest, InitialRefreshHarvestsStats) {
  PutParquet("t/date=1/f0.plk", 0, 100);
  PutParquet("t/date=2/f1.plk", 100, 100);
  auto report = cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->listed_objects, 2u);
  EXPECT_EQ(report->added_files, 2u);
  EXPECT_EQ(report->footers_read, 2u);

  auto snap = meta_.Snapshot("ds.ext");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);
  const CachedFileMeta& f0 = (*snap)[0];
  EXPECT_EQ(f0.file.row_count, 100u);
  EXPECT_EQ(f0.file.column_stats.at("id").min, Value::Int64(0));
  EXPECT_EQ(f0.file.column_stats.at("id").max, Value::Int64(99));
  ASSERT_EQ(f0.file.partition.size(), 1u);
  EXPECT_EQ(f0.file.partition[0].second, Value::Int64(1));
}

TEST_F(CacheRefreshTest, IncrementalRefreshSkipsUnchanged) {
  PutParquet("t/f0.plk", 0, 10);
  ASSERT_TRUE(cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/").ok());
  // Second refresh: nothing changed, no footers re-read.
  auto report2 = cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/");
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->added_files, 0u);
  EXPECT_EQ(report2->footers_read, 0u);
}

TEST_F(CacheRefreshTest, DetectsNewChangedAndDeletedObjects) {
  PutParquet("t/f0.plk", 0, 10);
  PutParquet("t/f1.plk", 10, 10);
  ASSERT_TRUE(cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/").ok());
  // f0 rewritten (new generation), f1 deleted, f2 added.
  PutParquet("t/f0.plk", 1000, 20);
  ASSERT_TRUE(store_.Delete(Caller(), "lake", "t/f1.plk").ok());
  PutParquet("t/f2.plk", 50, 5);
  auto report = cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->added_files, 2u);   // f0 (re-read) + f2
  EXPECT_EQ(report->removed_files, 2u);  // old f0 + f1
  auto snap = meta_.Snapshot("ds.ext");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);
  // Updated stats visible.
  bool found_f0 = false;
  for (const auto& f : *snap) {
    if (f.file.path == "t/f0.plk") {
      found_f0 = true;
      EXPECT_EQ(f.file.row_count, 20u);
      EXPECT_EQ(f.file.column_stats.at("id").min, Value::Int64(1000));
    }
  }
  EXPECT_TRUE(found_f0);
}

TEST_F(CacheRefreshTest, ObjectTableModeSkipsFooters) {
  ASSERT_TRUE(store_.Put(Caller(), "lake", "imgs/cat.jpg", "JPEGJPEG").ok());
  ASSERT_TRUE(store_.Put(Caller(), "lake", "imgs/dog.jpg", "JPEGJPEGJP").ok());
  CacheRefreshOptions opts;
  opts.parse_footers = false;
  opts.parse_hive_partitions = false;
  auto report =
      cache_.Refresh("ds.objects", store_, Caller(), "lake", "imgs/", opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->footers_read, 0u);
  auto snap = meta_.Snapshot("ds.objects");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);
  EXPECT_EQ((*snap)[0].file.size_bytes, 8u);
  EXPECT_GT((*snap)[0].generation, 0u);
}

TEST_F(CacheRefreshTest, NonParquetFilesCachedWithoutStats) {
  ASSERT_TRUE(store_.Put(Caller(), "lake", "t/readme.txt", "hello").ok());
  auto report = cache_.Refresh("ds.ext", store_, Caller(), "lake", "t/");
  ASSERT_TRUE(report.ok());
  auto snap = meta_.Snapshot("ds.ext");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_TRUE((*snap)[0].file.column_stats.empty());
}

}  // namespace
}  // namespace biglake
