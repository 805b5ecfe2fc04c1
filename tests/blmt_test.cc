#include <gtest/gtest.h>

#include "core/blmt.h"
#include "core/read_api.h"
#include "core/write_api.h"
#include "format/iceberg_lite.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

class BlmtTest : public LakehouseFixture {
 protected:
  BlmtTest() : blmt_(&lake_), write_api_(&lake_), read_api_(&lake_) {}

  TableDef MakeBlmtDef(const std::string& name) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.schema = SalesSchema();
    def.connection = "us.lake-conn";
    def.location = gcp_;
    def.bucket = "lake";
    def.prefix = name + "/";
    def.iam.Grant("*", Role::kWriter);
    return def;
  }

  BlmtService blmt_;
  StorageWriteApi write_api_;
  StorageReadApi read_api_;
};

TEST_F(BlmtTest, CreateInsertRead) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("orders")).ok());
  auto txn = blmt_.Insert("user:w", "ds.orders", SalesBatch(100, 0, 1));
  ASSERT_TRUE(txn.ok());
  auto all = blmt_.ReadAll("ds.orders");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 100u);
}

TEST_F(BlmtTest, InsertSchemaMismatchRejected) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("orders")).ok());
  auto bad_schema = MakeSchema({{"x", DataType::kInt64, true}});
  std::vector<Column> cols{Column::MakeInt64({1})};
  EXPECT_FALSE(
      blmt_.Insert("u", "ds.orders", RecordBatch(bad_schema, std::move(cols)))
          .ok());
}

TEST_F(BlmtTest, IamEnforced) {
  TableDef def = MakeBlmtDef("locked");
  def.iam = IamPolicy();
  def.iam.Grant("user:w", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(def).ok());
  EXPECT_TRUE(blmt_.Insert("user:eve", "ds.locked", SalesBatch(1, 0, 1))
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(blmt_.Insert("user:w", "ds.locked", SalesBatch(1, 0, 1)).ok());
}

TEST_F(BlmtTest, DeleteRemovesMatchingRows) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("orders")).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.orders", SalesBatch(100, 0, 1)).ok());
  auto deleted = blmt_.Delete(
      "u", "ds.orders", Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(30))));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 30u);
  auto all = blmt_.ReadAll("ds.orders");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 70u);
  for (size_t r = 0; r < all->num_rows(); ++r) {
    EXPECT_GE((*all->ColumnByName("id"))->GetValue(r).int64_value(), 30);
  }
  EXPECT_FALSE(blmt_.Delete("u", "ds.orders", nullptr).ok());
}

TEST_F(BlmtTest, DeleteSkipsNonMatchingFilesViaStats) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("orders")).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.orders", SalesBatch(50, 0, 1)).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.orders", SalesBatch(50, 1000, 2)).ok());
  uint64_t gets_before = lake_.sim().counters().Get("objstore.get_calls");
  auto deleted = blmt_.Delete(
      "u", "ds.orders",
      Expr::Ge(Expr::Col("id"), Expr::Lit(Value::Int64(1000))));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 50u);
  // Only the second file is read+rewritten: footer (2 reads) + chunks.
  uint64_t gets = lake_.sim().counters().Get("objstore.get_calls") -
                  gets_before;
  EXPECT_LE(gets, 10u);
}

TEST_F(BlmtTest, UpdateRewritesMatchingRows) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("orders")).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.orders", SalesBatch(50, 0, 1)).ok());
  std::map<std::string, Value> set{{"qty", Value::Int64(-1)}};
  auto updated = blmt_.Update(
      "u", "ds.orders", Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(5))),
      set);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 5u);
  auto all = blmt_.ReadAll("ds.orders");
  ASSERT_TRUE(all.ok());
  size_t negatives = 0;
  for (size_t r = 0; r < all->num_rows(); ++r) {
    if ((*all->ColumnByName("qty"))->GetValue(r).int64_value() == -1) {
      ++negatives;
    }
  }
  EXPECT_EQ(negatives, 5u);
  // Unknown assignment column is rejected.
  std::map<std::string, Value> bad{{"nope", Value::Int64(0)}};
  EXPECT_FALSE(blmt_.Update("u", "ds.orders",
                            Expr::Lt(Expr::Col("id"),
                                     Expr::Lit(Value::Int64(5))),
                            bad)
                   .ok());
}

TEST_F(BlmtTest, MultiTableInsertIsAtomic) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("t1")).ok());
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("t2")).ok());
  auto txn = blmt_.MultiTableInsert(
      "u", {{"ds.t1", SalesBatch(10, 0, 1)}, {"ds.t2", SalesBatch(20, 0, 2)}});
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(blmt_.ReadAll("ds.t1", *txn)->num_rows(), 10u);
  EXPECT_EQ(blmt_.ReadAll("ds.t2", *txn)->num_rows(), 20u);
}

TEST_F(BlmtTest, TimeTravelSnapshotRead) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("tt")).ok());
  auto t1 = blmt_.Insert("u", "ds.tt", SalesBatch(10, 0, 1));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.tt", SalesBatch(10, 100, 2)).ok());
  EXPECT_EQ(blmt_.ReadAll("ds.tt", *t1)->num_rows(), 10u);
  EXPECT_EQ(blmt_.ReadAll("ds.tt")->num_rows(), 20u);
}

TEST_F(BlmtTest, OptimizeCoalescesSmallFiles) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("frag"), {"id"}).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(blmt_.Insert("u", "ds.frag", SalesBatch(8, i * 10, i)).ok());
  }
  auto report = blmt_.OptimizeStorage("ds.frag");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_before, 16u);
  EXPECT_LT(report->files_after, report->files_before);
  EXPECT_EQ(report->rows_rewritten, 128u);
  // Content preserved and clustered by id.
  auto all = blmt_.ReadAll("ds.frag");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 128u);
  auto snap = lake_.meta().Snapshot("ds.frag");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), report->files_after);
}

TEST_F(BlmtTest, OptimizeNoopOnWellSizedTable) {
  BlmtOptions opts;
  opts.small_file_bytes = 16;  // nothing is "small"
  BlmtService blmt(&lake_, opts);
  ASSERT_TRUE(blmt.CreateTable(MakeBlmtDef("ok")).ok());
  ASSERT_TRUE(blmt.Insert("u", "ds.ok", SalesBatch(100, 0, 1)).ok());
  auto report = blmt.OptimizeStorage("ds.ok");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_coalesced, 0u);
  EXPECT_EQ(report->files_after, report->files_before);
}

TEST_F(BlmtTest, GarbageCollectRemovesOrphans) {
  BlmtOptions opts;
  opts.gc_min_age = 1'000'000;  // 1 s
  BlmtService blmt(&lake_, opts);
  ASSERT_TRUE(blmt.CreateTable(MakeBlmtDef("gc")).ok());
  ASSERT_TRUE(blmt.Insert("u", "ds.gc", SalesBatch(50, 0, 1)).ok());
  // DELETE rewrites the file, orphaning the original object.
  ASSERT_TRUE(
      blmt.Delete("u", "ds.gc",
                  Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(10))))
          .ok());
  auto early = blmt.GarbageCollect("ds.gc");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->objects_deleted, 0u);  // too young
  lake_.sim().clock().Advance(2'000'000);
  auto later = blmt.GarbageCollect("ds.gc");
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->objects_deleted, 1u);
  // Table content unaffected.
  EXPECT_EQ(blmt.ReadAll("ds.gc")->num_rows(), 40u);
}

TEST_F(BlmtTest, IcebergExportReadableByExternalReaders) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("exp")).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.exp", SalesBatch(30, 0, 1)).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.exp", SalesBatch(30, 100, 2)).ok());
  auto info = blmt_.ExportIcebergSnapshot("ds.exp");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_files, 2u);
  // Any Iceberg-lite reader can open the exported metadata directly.
  auto iceberg =
      IcebergTable::Load(store_, GcpCaller(), info->bucket, info->prefix);
  ASSERT_TRUE(iceberg.ok());
  auto manifest = iceberg->ReadCurrentManifest(GcpCaller());
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->size(), 2u);
  uint64_t rows = 0;
  for (const auto& f : *manifest) rows += f.row_count;
  EXPECT_EQ(rows, 60u);
  // Re-export after more data: snapshot id advances.
  ASSERT_TRUE(blmt_.Insert("u", "ds.exp", SalesBatch(5, 200, 3)).ok());
  auto info2 = blmt_.ExportIcebergSnapshot("ds.exp");
  ASSERT_TRUE(info2.ok());
  EXPECT_GT(info2->snapshot_id, info->snapshot_id);
  EXPECT_EQ(info2->num_files, 3u);
}

TEST_F(BlmtTest, CommitThroughputExceedsIcebergOnSameStore) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("fast")).ok());
  // 20 BLMT commits.
  SimTimer blmt_timer(lake_.sim());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(blmt_.Insert("u", "ds.fast", SalesBatch(4, i * 10, i)).ok());
  }
  SimMicros blmt_cost = blmt_timer.ElapsedMicros();

  // 20 Iceberg-lite commits against the same object store.
  auto iceberg =
      IcebergTable::Create(store_, GcpCaller(), "lake", "ice/", SalesSchema());
  ASSERT_TRUE(iceberg.ok());
  SimTimer ice_timer(lake_.sim());
  for (int i = 0; i < 20; ++i) {
    DataFileEntry e;
    e.path = "ice/f" + std::to_string(i);
    e.row_count = 4;
    ASSERT_TRUE(iceberg->CommitAppend(GcpCaller(), {e}).ok());
  }
  SimMicros ice_cost = ice_timer.ElapsedMicros();
  // Sec 3.5: Big Metadata commits sustain a much higher rate than
  // object-store pointer CAS. (BLMT cost includes actually writing data.)
  EXPECT_LT(blmt_cost, ice_cost / 2);
}

// ---- Write API --------------------------------------------------------------

TEST_F(BlmtTest, WriteApiCommittedModeFlushes) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("stream")).ok());
  WriteApiOptions wopts;
  wopts.committed_flush_rows = 50;
  StorageWriteApi api(&lake_, wopts);
  auto stream = api.CreateWriteStream("u", "ds.stream", WriteMode::kCommitted);
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(api.AppendRows(*stream, SalesBatch(25, i * 100, i)).ok());
  }
  // 100 rows appended; at least one flush of 50+ happened.
  auto visible = blmt_.ReadAll("ds.stream");
  ASSERT_TRUE(visible.ok());
  EXPECT_GE(visible->num_rows(), 50u);
  ASSERT_TRUE(api.FinalizeStream(*stream).ok());
  EXPECT_EQ(blmt_.ReadAll("ds.stream")->num_rows(), 100u);
  // Finalized stream rejects appends.
  EXPECT_FALSE(api.AppendRows(*stream, SalesBatch(1, 0, 1)).ok());
}

TEST_F(BlmtTest, WriteApiExactlyOnceOffsets) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("eo")).ok());
  StorageWriteApi api(&lake_);
  auto stream = api.CreateWriteStream("u", "ds.eo", WriteMode::kPending);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(api.AppendRows(*stream, SalesBatch(10, 0, 1), 0).ok());
  // Retry of the same append (same offset) is deduplicated.
  auto retry = api.AppendRows(*stream, SalesBatch(10, 0, 1), 0);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 10u);
  EXPECT_EQ(lake_.sim().counters().Get("writeapi.duplicate_appends"), 1u);
  // Gap is rejected.
  EXPECT_FALSE(api.AppendRows(*stream, SalesBatch(10, 0, 1), 25).ok());
  // Correct next offset works.
  ASSERT_TRUE(api.AppendRows(*stream, SalesBatch(10, 10, 2), 10).ok());
  ASSERT_TRUE(api.FinalizeStream(*stream).ok());
  auto txn = api.BatchCommit({*stream});
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(blmt_.ReadAll("ds.eo")->num_rows(), 20u);
}

TEST_F(BlmtTest, WriteApiPendingInvisibleUntilCommit) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("pend")).ok());
  StorageWriteApi api(&lake_);
  auto stream = api.CreateWriteStream("u", "ds.pend", WriteMode::kPending);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(api.AppendRows(*stream, SalesBatch(40, 0, 1)).ok());
  EXPECT_EQ(blmt_.ReadAll("ds.pend")->num_rows(), 0u);  // invisible
  // Commit before finalize is rejected.
  EXPECT_FALSE(api.BatchCommit({*stream}).ok());
  ASSERT_TRUE(api.FinalizeStream(*stream).ok());
  ASSERT_TRUE(api.BatchCommit({*stream}).ok());
  EXPECT_EQ(blmt_.ReadAll("ds.pend")->num_rows(), 40u);
  // A committed stream is gone: a second commit fails without taking a new
  // metadata transaction or changing the table.
  const uint64_t latest = lake_.meta().LatestTxn();
  Result<uint64_t> again = api.BatchCommit({*stream});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(lake_.meta().LatestTxn(), latest);
  EXPECT_EQ(blmt_.ReadAll("ds.pend")->num_rows(), 40u);
  EXPECT_EQ(api.GetStream(*stream).status().code(), StatusCode::kNotFound);
}

TEST_F(BlmtTest, WriteApiCrossStreamTransaction) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("a")).ok());
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("b")).ok());
  StorageWriteApi api(&lake_);
  // Bump the global txn counter so `*txn - 1` below is a real (pre-commit)
  // snapshot id rather than the "latest" sentinel 0.
  lake_.meta().EnsureTable("ds.noop");
  ASSERT_TRUE(lake_.meta().AppendFiles("ds.noop", {}).ok());
  auto s1 = api.CreateWriteStream("u", "ds.a", WriteMode::kPending);
  auto s2 = api.CreateWriteStream("u", "ds.b", WriteMode::kPending);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(api.AppendRows(*s1, SalesBatch(5, 0, 1)).ok());
  ASSERT_TRUE(api.AppendRows(*s2, SalesBatch(7, 0, 2)).ok());
  ASSERT_TRUE(api.FinalizeStream(*s1).ok());
  ASSERT_TRUE(api.FinalizeStream(*s2).ok());
  auto txn = api.BatchCommit({*s1, *s2});
  ASSERT_TRUE(txn.ok());
  // Both visible at exactly the same transaction.
  EXPECT_EQ(blmt_.ReadAll("ds.a", *txn)->num_rows(), 5u);
  EXPECT_EQ(blmt_.ReadAll("ds.b", *txn)->num_rows(), 7u);
  EXPECT_EQ(blmt_.ReadAll("ds.a", *txn - 1)->num_rows(), 0u);
  EXPECT_EQ(blmt_.ReadAll("ds.b", *txn - 1)->num_rows(), 0u);
}

TEST_F(BlmtTest, WriteApiRejectsWrongTableKindAndPrincipal) {
  StorageWriteApi api(&lake_);
  // Not a managed/BLMT table.
  BuildLake("ext/", 1, 10);
  BigLakeTableService biglake(&lake_);
  ASSERT_TRUE(
      biglake.CreateBigLakeTable(MakeBigLakeDef("ext", "ext/")).ok());
  EXPECT_FALSE(api.CreateWriteStream("u", "ds.ext", WriteMode::kPending).ok());
  // Permission check.
  TableDef def = MakeBlmtDef("priv");
  def.iam = IamPolicy();
  def.iam.Grant("user:w", Role::kWriter);
  ASSERT_TRUE(blmt_.CreateTable(def).ok());
  EXPECT_TRUE(api.CreateWriteStream("user:r", "ds.priv", WriteMode::kPending)
                  .status()
                  .IsPermissionDenied());
}

TEST_F(BlmtTest, BlmtReadableThroughReadApi) {
  ASSERT_TRUE(blmt_.CreateTable(MakeBlmtDef("viarapi")).ok());
  ASSERT_TRUE(blmt_.Insert("u", "ds.viarapi", SalesBatch(80, 0, 1)).ok());
  ReadSessionOptions opts;
  opts.predicate = Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(20)));
  auto session = read_api_.CreateReadSession("u", "ds.viarapi", opts);
  ASSERT_TRUE(session.ok());
  size_t rows = 0;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    rows += read_api_.ReadStreamBatch(*session, s)->num_rows();
  }
  EXPECT_EQ(rows, 20u);
}

}  // namespace
}  // namespace biglake
