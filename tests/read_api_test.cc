#include <gtest/gtest.h>

#include <set>

#include "columnar/aggregate.h"
#include "columnar/ipc.h"
#include "core/read_api.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

class ReadApiTest : public LakehouseFixture {
 protected:
  ReadApiTest() : api_(&lake_), biglake_(&lake_) {}

  void CreateLakeTable(const std::string& name, int files, size_t rows,
                       bool cached = true) {
    std::string prefix = name + "/";
    BuildLake(prefix, files, rows);
    ASSERT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef(name, prefix, cached))
            .ok());
  }

  StorageReadApi api_;
  BigLakeTableService biglake_;
};

TEST_F(ReadApiTest, BasicScanReturnsAllRows) {
  CreateLakeTable("sales", 4, 100);
  auto session = api_.CreateReadSession("user:alice", "ds.sales", {});
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->streams.empty());
  size_t total = 0;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto batch = api_.ReadStreamBatch(*session, s);
    ASSERT_TRUE(batch.ok());
    total += batch->num_rows();
  }
  EXPECT_EQ(total, 400u);
}

TEST_F(ReadApiTest, IamDenyBlocksSession) {
  std::string prefix = "locked/";
  BuildLake(prefix, 1, 10);
  TableDef def = MakeBigLakeDef("locked", prefix);
  def.iam = IamPolicy();  // nobody granted
  def.iam.Grant("user:owner", Role::kOwner);
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());
  EXPECT_TRUE(api_.CreateReadSession("user:eve", "ds.locked", {})
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(api_.CreateReadSession("user:owner", "ds.locked", {}).ok());
}

TEST_F(ReadApiTest, UnknownTableAndColumns) {
  CreateLakeTable("sales", 1, 10);
  EXPECT_TRUE(
      api_.CreateReadSession("u", "ds.nope", {}).status().IsNotFound());
  ReadSessionOptions opts;
  opts.columns = {"no_such_col"};
  EXPECT_TRUE(api_.CreateReadSession("u", "ds.sales", opts)
                  .status()
                  .IsNotFound());
}

TEST_F(ReadApiTest, ProjectionReturnsOnlyRequestedColumns) {
  CreateLakeTable("sales", 2, 50);
  ReadSessionOptions opts;
  opts.columns = {"id", "price"};
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->output_schema->num_fields(), 2u);
  auto batch = api_.ReadStreamBatch(*session, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_columns(), 2u);
  EXPECT_EQ(batch->schema()->field(0).name, "id");
}

TEST_F(ReadApiTest, PredicatePushdownFiltersRows) {
  CreateLakeTable("sales", 2, 100);
  ReadSessionOptions opts;
  opts.predicate = Expr::Lt(Expr::Col("id"), Expr::Lit(Value::Int64(10)));
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  size_t total = 0;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto batch = api_.ReadStreamBatch(*session, s);
    ASSERT_TRUE(batch.ok());
    total += batch->num_rows();
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      auto col = batch->ColumnByName("id");
      ASSERT_TRUE(col.ok());
      EXPECT_LT((*col)->GetValue(r).int64_value(), 10);
    }
  }
  EXPECT_EQ(total, 10u);  // ids 0..9 exist only in file 0
}

TEST_F(ReadApiTest, PartitionPredicatePrunesFiles) {
  CreateLakeTable("sales", 8, 50);
  ReadSessionOptions opts;
  opts.predicate = Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(3)));
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->files_total, 8u);
  EXPECT_EQ(session->files_pruned, 7u);
}

TEST_F(ReadApiTest, StatsPruningAvoidsObjectStoreWhenCached) {
  CreateLakeTable("sales", 8, 50, /*cached=*/true);
  uint64_t lists_before = lake_.sim().counters().Get("objstore.list_calls");
  ReadSessionOptions opts;
  opts.predicate =
      Expr::Gt(Expr::Col("id"), Expr::Lit(Value::Int64(100000)));
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  // All files pruned from cache; zero LIST calls issued by the session.
  EXPECT_EQ(session->files_pruned, 8u);
  EXPECT_EQ(lake_.sim().counters().Get("objstore.list_calls"), lists_before);
}

TEST_F(ReadApiTest, UncachedTableListsAndPeeksFooters) {
  CreateLakeTable("legacy", 5, 20, /*cached=*/false);
  uint64_t lists_before = lake_.sim().counters().Get("objstore.list_calls");
  uint64_t gets_before = lake_.sim().counters().Get("objstore.get_calls");
  auto session = api_.CreateReadSession("u", "ds.legacy", {});
  ASSERT_TRUE(session.ok());
  EXPECT_GT(lake_.sim().counters().Get("objstore.list_calls"), lists_before);
  // Footer peeking: >= 2 range reads per file.
  EXPECT_GE(lake_.sim().counters().Get("objstore.get_calls"),
            gets_before + 10);
}

TEST_F(ReadApiTest, CachedSessionIsFasterThanUncached) {
  CreateLakeTable("cached", 20, 50, true);
  CreateLakeTable("uncached", 20, 50, false);
  SimTimer t1(lake_.sim());
  ASSERT_TRUE(api_.CreateReadSession("u", "ds.cached", {}).ok());
  SimMicros cached_cost = t1.ElapsedMicros();
  SimTimer t2(lake_.sim());
  ASSERT_TRUE(api_.CreateReadSession("u", "ds.uncached", {}).ok());
  SimMicros uncached_cost = t2.ElapsedMicros();
  EXPECT_LT(cached_cost * 2, uncached_cost);
}

TEST_F(ReadApiTest, SessionReturnsTableStats) {
  CreateLakeTable("sales", 4, 100);
  auto session = api_.CreateReadSession("u", "ds.sales", {});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->table_stats.count("id") > 0);
  const ColumnStats& id = session->table_stats.at("id");
  EXPECT_EQ(id.min, Value::Int64(0));
  EXPECT_EQ(id.max, Value::Int64(3099));
  EXPECT_EQ(id.row_count, 400u);
}

TEST_F(ReadApiTest, RowLevelSecurityEnforcedInReadRows) {
  std::string prefix = "gov/";
  BuildLake(prefix, 2, 100);
  TableDef def = MakeBigLakeDef("gov", prefix);
  RowAccessPolicy east;
  east.name = "east";
  east.grantees = {"user:alice"};
  east.filter = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  def.policy.row_policies = {east};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  auto session = api_.CreateReadSession("user:alice", "ds.gov", {});
  ASSERT_TRUE(session.ok());
  size_t rows = 0;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto batch = api_.ReadStreamBatch(*session, s);
    ASSERT_TRUE(batch.ok());
    rows += batch->num_rows();
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      auto col = batch->ColumnByName("region");
      ASSERT_TRUE(col.ok());
      EXPECT_EQ((*col)->GetValue(r), Value::String("east"));
    }
  }
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, 200u);

  // A principal granted no policy sees zero rows (but a valid schema).
  auto denied = api_.CreateReadSession("user:eve", "ds.gov", {});
  ASSERT_TRUE(denied.ok());
  auto batch = api_.ReadStreamBatch(*denied, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 0u);
}

TEST_F(ReadApiTest, RowFilterColumnNeedNotBeProjected) {
  std::string prefix = "gov2/";
  BuildLake(prefix, 1, 100);
  TableDef def = MakeBigLakeDef("gov2", prefix);
  RowAccessPolicy p;
  p.name = "east";
  p.grantees = {"*"};
  p.filter = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("east")));
  def.policy.row_policies = {p};
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());
  ReadSessionOptions opts;
  opts.columns = {"id"};  // region only used server-side
  auto session = api_.CreateReadSession("user:x", "ds.gov2", opts);
  ASSERT_TRUE(session.ok());
  auto batch = api_.ReadStreamBatch(*session, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_columns(), 1u);
  EXPECT_GT(batch->num_rows(), 0u);
  EXPECT_LT(batch->num_rows(), 100u);
}

TEST_F(ReadApiTest, ColumnMaskingAppliedServerSide) {
  std::string prefix = "mask/";
  BuildLake(prefix, 1, 50);
  TableDef def = MakeBigLakeDef("mask", prefix);
  ColumnRule rule;
  rule.clear_readers = {"user:admin"};
  rule.mask = MaskType::kHash;
  def.policy.column_rules["email"] = rule;
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  ReadSessionOptions opts;
  opts.columns = {"id", "email"};
  auto session = api_.CreateReadSession("user:analyst", "ds.mask", opts);
  ASSERT_TRUE(session.ok());
  // Masked column becomes a STRING hash token in the output schema.
  EXPECT_EQ(session->output_schema->field(1).type, DataType::kString);
  auto batch = api_.ReadStreamBatch(*session, 0);
  ASSERT_TRUE(batch.ok());
  auto email = batch->ColumnByName("email");
  ASSERT_TRUE(email.ok());
  std::string v = (*email)->GetValue(0).string_value();
  EXPECT_EQ(v[0], 'h');
  EXPECT_EQ(v.find('@'), std::string::npos);

  // The clear reader sees plaintext.
  auto admin_session = api_.CreateReadSession("user:admin", "ds.mask", opts);
  ASSERT_TRUE(admin_session.ok());
  auto admin_batch = api_.ReadStreamBatch(*admin_session, 0);
  ASSERT_TRUE(admin_batch.ok());
  auto admin_email = admin_batch->ColumnByName("email");
  EXPECT_NE((*admin_email)->GetValue(0).string_value().find('@'),
            std::string::npos);
}

TEST_F(ReadApiTest, DenyColumnRuleRejectsSession) {
  std::string prefix = "deny/";
  BuildLake(prefix, 1, 10);
  TableDef def = MakeBigLakeDef("deny", prefix);
  ColumnRule rule;
  rule.clear_readers = {"user:admin"};
  rule.deny_instead_of_mask = true;
  def.policy.column_rules["price"] = rule;
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());
  ReadSessionOptions opts;
  opts.columns = {"price"};
  EXPECT_TRUE(api_.CreateReadSession("user:analyst", "ds.deny", opts)
                  .status()
                  .IsPermissionDenied());
  // Not requesting the denied column is fine.
  opts.columns = {"id"};
  EXPECT_TRUE(api_.CreateReadSession("user:analyst", "ds.deny", opts).ok());
}

/// Every row of every stream of `session`.
RecordBatch ReadAll(StorageReadApi* api, const ReadSession& session) {
  std::vector<RecordBatch> parts;
  for (size_t s = 0; s < session.streams.size(); ++s) {
    auto batch = api->ReadStreamBatch(session, s);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch.ok()) parts.push_back(std::move(*batch));
  }
  if (parts.empty()) return RecordBatch::Empty(session.output_schema);
  return *RecordBatch::Concat(parts);
}

// A predicate on a hash-masked column filters the masked tokens, never the
// raw values the caller may not read.
TEST_F(ReadApiTest, PredicateOnHashMaskedColumnSeesMaskedValues) {
  CreatePeopleTable(&biglake_);
  ReadSessionOptions opts;
  opts.columns = {"emp_id", "email"};
  opts.predicate =
      Expr::Eq(Expr::Col("email"), Expr::Lit(Value::String("emp3@acme.com")));
  auto analyst = api_.CreateReadSession("user:hr-analyst", "ds.people", opts);
  ASSERT_TRUE(analyst.ok()) << analyst.status().ToString();
  EXPECT_EQ(ReadAll(&api_, *analyst).num_rows(), 0u);
  auto officer =
      api_.CreateReadSession("user:privacy-officer", "ds.people", opts);
  ASSERT_TRUE(officer.ok());
  EXPECT_EQ(ReadAll(&api_, *officer).num_rows(), 1u);

  // The token itself is what the analyst can filter on; raw min/max file
  // statistics must not prune it away (tokens are not ordered like emails).
  opts.predicate = nullptr;
  auto plain = api_.CreateReadSession("user:hr-analyst", "ds.people", opts);
  ASSERT_TRUE(plain.ok());
  RecordBatch all = ReadAll(&api_, *plain);
  ASSERT_EQ(all.num_rows(), 300u);
  const Value token = all.GetValue(0, 1);
  opts.predicate = Expr::Eq(Expr::Col("email"), Expr::Lit(token));
  auto by_token = api_.CreateReadSession("user:hr-analyst", "ds.people", opts);
  ASSERT_TRUE(by_token.ok());
  EXPECT_EQ(by_token->files_pruned, 0u);
  RecordBatch hit = ReadAll(&api_, *by_token);
  ASSERT_EQ(hit.num_rows(), 1u);
  EXPECT_EQ(hit.GetValue(0, 0), all.GetValue(0, 0));
  EXPECT_EQ(hit.GetValue(0, 1), token);
}

// Under a nullify mask every value the caller sees is NULL: `IS NULL`
// matches every row, so raw statistics (no NULLs) must not prune a file,
// while unmasked conjuncts of the same predicate still prune.
TEST_F(ReadApiTest, PredicateOnNullifiedColumnNeverPrunesOnRawStats) {
  std::string prefix = "nullify/";
  BuildLake(prefix, 3, 50);
  TableDef def = MakeBigLakeDef("nullify", prefix);
  ColumnRule rule;
  rule.clear_readers = {"user:admin"};
  rule.mask = MaskType::kNullify;
  def.policy.column_rules["email"] = rule;
  ASSERT_TRUE(biglake_.CreateBigLakeTable(def).ok());

  ReadSessionOptions opts;
  opts.columns = {"id"};
  opts.predicate = Expr::IsNull(Expr::Col("email"));
  auto analyst = api_.CreateReadSession("user:analyst", "ds.nullify", opts);
  ASSERT_TRUE(analyst.ok());
  EXPECT_EQ(analyst->files_pruned, 0u);
  EXPECT_EQ(ReadAll(&api_, *analyst).num_rows(), 150u);
  auto admin = api_.CreateReadSession("user:admin", "ds.nullify", opts);
  ASSERT_TRUE(admin.ok());
  EXPECT_EQ(ReadAll(&api_, *admin).num_rows(), 0u);

  opts.predicate =
      Expr::And(Expr::IsNull(Expr::Col("email")),
                Expr::Eq(Expr::Col("date"), Expr::Lit(Value::Int64(1))));
  auto both = api_.CreateReadSession("user:analyst", "ds.nullify", opts);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->files_pruned, 2u);
  EXPECT_EQ(ReadAll(&api_, *both).num_rows(), 50u);

  // A refined session governs its extra predicate the same way.
  opts.predicate = nullptr;
  auto base = api_.CreateReadSession("user:analyst", "ds.nullify", opts);
  ASSERT_TRUE(base.ok());
  auto refined =
      api_.RefineSession(*base, Expr::IsNull(Expr::Col("email")));
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->files_pruned, 0u);
  EXPECT_EQ(ReadAll(&api_, *refined).num_rows(), 150u);
  auto refined_eq = api_.RefineSession(
      *base,
      Expr::Eq(Expr::Col("email"), Expr::Lit(Value::String("user1@x.com"))));
  ASSERT_TRUE(refined_eq.ok());
  EXPECT_EQ(ReadAll(&api_, *refined_eq).num_rows(), 0u);
}

// A predicate reads its columns: one on a denied column fails the session
// even when the column is not projected.
TEST_F(ReadApiTest, PredicateOnDeniedColumnRejectsSession) {
  CreatePeopleTable(&biglake_);
  ReadSessionOptions opts;
  opts.columns = {"emp_id"};
  opts.predicate =
      Expr::Gt(Expr::Col("salary"), Expr::Lit(Value::Double(70000.0)));
  EXPECT_TRUE(api_.CreateReadSession("user:eng-manager", "ds.people", opts)
                  .status()
                  .IsPermissionDenied());
  auto hr = api_.CreateReadSession("user:hr-analyst", "ds.people", opts);
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(ReadAll(&api_, *hr).num_rows(), 99u);
}

// A pushed aggregate reads its inputs and group keys, so they are governed
// like requested columns even when the session does not project them: a
// denied one fails the session, a masked one is aggregated masked.
TEST_F(ReadApiTest, PushedAggregateColumnsAreGoverned) {
  CreatePeopleTable(&biglake_);
  ReadSessionOptions sum_salary;
  sum_salary.columns = {"dept"};
  sum_salary.partial_aggregates = {{AggOp::kSum, "salary", "total"}};
  EXPECT_TRUE(
      api_.CreateReadSession("user:eng-manager", "ds.people", sum_salary)
          .status()
          .IsPermissionDenied());
  ReadSessionOptions by_salary;
  by_salary.columns = {"dept"};
  by_salary.aggregate_group_by = {"salary"};
  by_salary.partial_aggregates = {{AggOp::kCount, "", "n"}};
  EXPECT_TRUE(
      api_.CreateReadSession("user:eng-manager", "ds.people", by_salary)
          .status()
          .IsPermissionDenied());
  EXPECT_TRUE(
      api_.CreateReadSession("user:hr-analyst", "ds.people", sum_salary).ok());

  // GROUP BY a hash-masked column: the analyst's groups are the tokens,
  // the privacy officer's the raw addresses.
  ReadSessionOptions by_email;
  by_email.columns = {"emp_id"};
  by_email.aggregate_group_by = {"email"};
  by_email.partial_aggregates = {{AggOp::kCount, "", "n"}};
  auto group_keys = [&](const Principal& who) {
    std::set<std::string> keys;
    auto session = api_.CreateReadSession(who, "ds.people", by_email);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return keys;
    auto merged = MergePartialAggregates({ReadAll(&api_, *session)},
                                         {"email"}, by_email.partial_aggregates);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    if (!merged.ok()) return keys;
    for (size_t r = 0; r < merged->num_rows(); ++r) {
      keys.insert(merged->GetValue(r, 0).string_value());
    }
    return keys;
  };
  ReadSessionOptions emails;
  emails.columns = {"email"};
  auto analyst_view =
      api_.CreateReadSession("user:hr-analyst", "ds.people", emails);
  ASSERT_TRUE(analyst_view.ok());
  RecordBatch tokens = ReadAll(&api_, *analyst_view);
  std::set<std::string> masked;
  for (size_t r = 0; r < tokens.num_rows(); ++r) {
    masked.insert(tokens.GetValue(r, 0).string_value());
  }
  const std::set<std::string> analyst = group_keys("user:hr-analyst");
  EXPECT_EQ(analyst.size(), 300u);
  EXPECT_EQ(analyst, masked);
  for (const std::string& k : analyst) {
    EXPECT_EQ(k.find('@'), std::string::npos) << k;
  }
  const std::set<std::string> officer = group_keys("user:privacy-officer");
  EXPECT_EQ(officer.size(), 300u);
  EXPECT_EQ(officer.count("emp3@acme.com"), 1u);
}

TEST_F(ReadApiTest, SnapshotReadsSeePointInTime) {
  CreateLakeTable("snap", 2, 10);
  uint64_t txn_before = lake_.sim().counters().Get("bigmeta.commits");
  (void)txn_before;
  uint64_t old_txn = lake_.meta().LatestTxn();
  // Add a third file and refresh the cache.
  BuildLake("snap/", 3, 10);  // rewrites files 0,1 with same generation? no: new puts bump generation
  ASSERT_TRUE(biglake_.RefreshCache("ds.snap").ok());
  ReadSessionOptions opts;
  opts.snapshot_txn = old_txn;
  auto old_session = api_.CreateReadSession("u", "ds.snap", opts);
  ASSERT_TRUE(old_session.ok());
  uint64_t old_files = 0;
  for (const auto& s : old_session->streams) old_files += s.files.size();
  auto new_session = api_.CreateReadSession("u", "ds.snap", {});
  ASSERT_TRUE(new_session.ok());
  uint64_t new_files = 0;
  for (const auto& s : new_session->streams) new_files += s.files.size();
  EXPECT_EQ(old_files, 2u);
  EXPECT_GE(new_files, 3u);
}

TEST_F(ReadApiTest, StreamsPartitionFilesDisjointly) {
  CreateLakeTable("sales", 10, 20);
  ReadSessionOptions opts;
  opts.max_streams = 4;
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  EXPECT_LE(session->streams.size(), 4u);
  std::set<std::string> paths;
  size_t total_files = 0;
  for (const auto& s : session->streams) {
    for (const auto& f : s.files) {
      paths.insert(f.file.path);
      ++total_files;
    }
  }
  EXPECT_EQ(paths.size(), total_files);  // disjoint
  EXPECT_EQ(total_files, 10u);
}

TEST_F(ReadApiTest, SplitStreamBalances) {
  CreateLakeTable("sales", 6, 10);
  ReadSessionOptions opts;
  opts.max_streams = 1;
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(session->streams.size(), 1u);
  auto split = StorageReadApi::SplitStream(session->streams[0]);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->first.files.size() + split->second.files.size(), 6u);
  EXPECT_EQ(split->first.files.size(), 3u);
  ReadStream tiny;
  tiny.files = {};
  EXPECT_FALSE(StorageReadApi::SplitStream(tiny).ok());
}

TEST_F(ReadApiTest, RowOrientedPathReturnsSameRowsAtHigherCpuCost) {
  CreateLakeTable("sales", 2, 200);
  ReadSessionOptions vec_opts;
  auto vec_session = api_.CreateReadSession("u", "ds.sales", vec_opts);
  ASSERT_TRUE(vec_session.ok());
  uint64_t cpu_before = lake_.sim().counters().Get("readapi.read_rows");
  SimTimer vec_timer(lake_.sim());
  size_t vec_rows = 0;
  for (size_t s = 0; s < vec_session->streams.size(); ++s) {
    vec_rows += api_.ReadStreamBatch(*vec_session, s)->num_rows();
  }
  SimMicros vec_cost = vec_timer.ElapsedMicros();
  (void)cpu_before;

  ReadSessionOptions row_opts;
  row_opts.use_row_oriented_reader = true;
  auto row_session = api_.CreateReadSession("u", "ds.sales", row_opts);
  ASSERT_TRUE(row_session.ok());
  SimTimer row_timer(lake_.sim());
  size_t row_rows = 0;
  for (size_t s = 0; s < row_session->streams.size(); ++s) {
    row_rows += api_.ReadStreamBatch(*row_session, s)->num_rows();
  }
  SimMicros row_cost = row_timer.ElapsedMicros();

  EXPECT_EQ(vec_rows, row_rows);
  EXPECT_GT(row_cost, vec_cost);  // the Sec 3.4 CPU-efficiency gap
}

TEST_F(ReadApiTest, WireFormatPreservesEncodedColumns) {
  CreateLakeTable("sales", 1, 500);
  ReadSessionOptions opts;
  opts.columns = {"region"};
  auto session = api_.CreateReadSession("u", "ds.sales", opts);
  ASSERT_TRUE(session.ok());
  auto wire = api_.ReadRows(*session, 0);
  ASSERT_TRUE(wire.ok());
  ASSERT_FALSE(wire->empty());
  auto batch = DeserializeBatch((*wire)[0]);
  ASSERT_TRUE(batch.ok());
  // Low-cardinality strings arrive dictionary-encoded end to end.
  EXPECT_EQ(batch->column(0).encoding(), Encoding::kDictionary);
}

// The Read API keeps no per-session state: what a session resolved (here,
// its predicate) lives exactly as long as the session and its copies.
TEST_F(ReadApiTest, SessionStateDiesWithTheSession) {
  CreateLakeTable("sales", 4, 50);
  ExprPtr p = Expr::Ge(Expr::Col("id"), Expr::Lit(Value::Int64(10)));
  {
    ReadSessionOptions opts;
    opts.predicate = p;
    auto session = api_.CreateReadSession("u", "ds.sales", opts);
    ASSERT_TRUE(session.ok());
    ReadSession copy = *session;
    ASSERT_TRUE(api_.ReadStreamBatch(copy, 0).ok());
    EXPECT_GT(p.use_count(), 1);
  }
  EXPECT_EQ(p.use_count(), 1);
  {
    auto base = api_.CreateReadSession("u", "ds.sales", {});
    ASSERT_TRUE(base.ok());
    auto refined = api_.RefineSession(*base, p);
    ASSERT_TRUE(refined.ok());
    ReadSession copy = *refined;
    ASSERT_TRUE(api_.ReadStreamBatch(copy, 0).ok());
    EXPECT_GT(p.use_count(), 1);
  }
  EXPECT_EQ(p.use_count(), 1);
}

TEST_F(ReadApiTest, ReadRowsOnBogusSessionOrStream) {
  CreateLakeTable("sales", 1, 10);
  auto session = api_.CreateReadSession("u", "ds.sales", {});
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(api_.ReadRows(*session, 99).ok());
  ReadSession fake = *session;
  fake.session_id = "rs-999";
  EXPECT_TRUE(api_.ReadRows(fake, 0).status().IsNotFound());
}

}  // namespace
}  // namespace biglake
