// Shared test fixture: a small lakehouse with one GCP object store, a
// connection, and helpers to create external Parquet-lite lakes and
// BigLake tables over them.

#ifndef BIGLAKE_TESTS_LAKEHOUSE_FIXTURE_H_
#define BIGLAKE_TESTS_LAKEHOUSE_FIXTURE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "core/read_api.h"
#include "format/parquet_lite.h"

namespace biglake {

class LakehouseFixture : public ::testing::Test {
 protected:
  LakehouseFixture() {
    gcp_ = {CloudProvider::kGCP, "us-central1"};
    store_ = lake_.AddStore(gcp_);
    EXPECT_TRUE(store_->CreateBucket("lake").ok());
    EXPECT_TRUE(lake_.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake_.catalog().CreateConnection(conn).ok());
  }

  CallerContext GcpCaller() const { return {.location = gcp_}; }

  static SchemaPtr SalesSchema() {
    return MakeSchema({{"id", DataType::kInt64, false},
                       {"region", DataType::kString, true},
                       {"qty", DataType::kInt64, true},
                       {"price", DataType::kDouble, true},
                       {"email", DataType::kString, true}});
  }

  RecordBatch SalesBatch(size_t rows, int64_t id_base, uint64_t seed) {
    static const char* kRegions[] = {"east", "west", "north", "south"};
    Random rng(seed);
    BatchBuilder b(SalesSchema());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          b.AppendRow({Value::Int64(id_base + static_cast<int64_t>(i)),
                       Value::String(kRegions[rng.Uniform(4)]),
                       Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
                       Value::Double(rng.NextDouble() * 100.0),
                       Value::String("user" + std::to_string(i) + "@x.com")})
              .ok());
    }
    return b.Finish();
  }

  /// Writes `num_files` Parquet-lite files under `prefix`, partitioned as
  /// date=<i>/, each with `rows_per_file` rows and disjoint id ranges.
  void BuildLake(const std::string& prefix, int num_files,
                 size_t rows_per_file) {
    for (int f = 0; f < num_files; ++f) {
      RecordBatch batch = SalesBatch(
          rows_per_file, static_cast<int64_t>(f) * 1000, 100 + f);
      auto bytes = WriteParquetFile(batch);
      ASSERT_TRUE(bytes.ok());
      PutOptions po;
      po.content_type = "application/x-parquet-lite";
      ASSERT_TRUE(store_
                      ->Put(GcpCaller(), "lake",
                            prefix + "date=" + std::to_string(f) + "/part-0.plk",
                            *bytes, po)
                      .ok());
    }
  }

  /// Creates a BigLake table named ds.<name> over `prefix`.
  TableDef MakeBigLakeDef(const std::string& name, const std::string& prefix,
                          bool cached = true) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.kind = TableKind::kBigLake;
    def.schema = SalesSchema();
    def.connection = "us.lake-conn";
    def.location = gcp_;
    def.bucket = "lake";
    def.prefix = prefix;
    def.partition_columns = {"date"};
    def.metadata_cache_enabled = cached;
    def.iam.Grant("*", Role::kReader);
    return def;
  }

  /// The governed employee table of examples/governed_lakehouse.cpp as
  /// `ds.people` (emp_id, dept, email, salary; 300 rows in 3 files):
  ///   * user:eng-manager sees only dept = 'eng' rows, user:hr-analyst and
  ///     user:privacy-officer see every row, anyone else sees none;
  ///   * email is hash-masked for everyone but user:privacy-officer;
  ///   * salary is denied to everyone but user:hr-analyst and
  ///     user:privacy-officer.
  void CreatePeopleTable(BigLakeTableService* biglake) {
    static const char* kDepts[] = {"eng", "sales", "hr"};
    SchemaPtr schema = MakeSchema({{"emp_id", DataType::kInt64, false},
                                   {"dept", DataType::kString, false},
                                   {"email", DataType::kString, false},
                                   {"salary", DataType::kDouble, false}});
    for (int f = 0; f < 3; ++f) {
      BatchBuilder b(schema);
      for (int i = f * 100; i < (f + 1) * 100; ++i) {
        const std::string email = "emp" + std::to_string(i) + "@acme.com";
        ASSERT_TRUE(b.AppendRow({Value::Int64(i), Value::String(kDepts[i % 3]),
                                 Value::String(email),
                                 Value::Double(50000.0 + i * 100)})
                        .ok());
      }
      auto bytes = WriteParquetFile(b.Finish());
      ASSERT_TRUE(bytes.ok());
      PutOptions po;
      po.content_type = "application/x-parquet-lite";
      ASSERT_TRUE(store_
                      ->Put(GcpCaller(), "lake",
                            "people/part-" + std::to_string(f) + ".plk",
                            *bytes, po)
                      .ok());
    }
    TableDef def = MakeBigLakeDef("people", "people/");
    def.schema = schema;
    def.partition_columns.clear();
    RowAccessPolicy eng_only;
    eng_only.name = "eng_only";
    eng_only.grantees = {"user:eng-manager"};
    eng_only.filter =
        Expr::Eq(Expr::Col("dept"), Expr::Lit(Value::String("eng")));
    RowAccessPolicy all_rows;
    all_rows.name = "all_rows";
    all_rows.grantees = {"user:privacy-officer", "user:hr-analyst"};
    all_rows.filter = Expr::Not(Expr::IsNull(Expr::Col("emp_id")));
    def.policy.row_policies = {eng_only, all_rows};
    ColumnRule email_rule;
    email_rule.clear_readers = {"user:privacy-officer"};
    email_rule.mask = MaskType::kHash;
    def.policy.column_rules["email"] = email_rule;
    ColumnRule salary_rule;
    salary_rule.clear_readers = {"user:hr-analyst", "user:privacy-officer"};
    salary_rule.deny_instead_of_mask = true;
    def.policy.column_rules["salary"] = salary_rule;
    ASSERT_TRUE(biglake->CreateBigLakeTable(def).ok());
  }

  LakehouseEnv lake_;
  CloudLocation gcp_;
  ObjectStore* store_ = nullptr;
};

/// A two-BLMT world with the multi-table transaction coordinator enabled:
/// `ds.orders` and `ds.order_items` share an {id, tag} schema so a
/// transaction that inserts the same `tag` into both tables gives tests a
/// direct atomicity oracle — at any snapshot, a tag present in one table
/// must be present in the other. Shared by the txn unit, property, chaos
/// and result-cache suites.
struct TxnLakeWorld {
  static constexpr char kOrders[] = "ds.orders";
  static constexpr char kItems[] = "ds.order_items";

  LakehouseEnv lake;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  ObjectStore* store = nullptr;
  StorageReadApi api;
  BlmtService blmt;
  meta::TxnCoordinator* coord = nullptr;

  explicit TxnLakeWorld(meta::TxnCoordinatorOptions options = {})
      : api(&lake), blmt(&lake) {
    store = lake.AddStore(gcp);
    EXPECT_TRUE(store->CreateBucket("lake").ok());
    EXPECT_TRUE(lake.catalog().CreateDataset("ds").ok());
    Connection conn;
    conn.name = "us.lake-conn";
    conn.service_account.principal = "sa:lake-conn";
    EXPECT_TRUE(lake.catalog().CreateConnection(conn).ok());
    coord = lake.EnableTransactions(store, "lake", std::move(options));
    CreateBlmt("orders", "orders/");
    CreateBlmt("order_items", "items/");
  }

  static SchemaPtr TxnSchema() {
    return MakeSchema(
        {{"id", DataType::kInt64, false}, {"tag", DataType::kInt64, true}});
  }

  /// `rows` rows with ids [id_base, id_base + rows) all carrying `tag`.
  static RecordBatch TxnRows(int64_t id_base, size_t rows, int64_t tag) {
    BatchBuilder b(TxnSchema());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(b.AppendRow({Value::Int64(id_base + static_cast<int64_t>(i)),
                               Value::Int64(tag)})
                      .ok());
    }
    return b.Finish();
  }

  void CreateBlmt(const std::string& name, const std::string& prefix) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.schema = TxnSchema();
    def.connection = "us.lake-conn";
    def.location = gcp;
    def.bucket = "lake";
    def.prefix = prefix;
    def.iam.Grant("*", Role::kWriter);
    EXPECT_TRUE(blmt.CreateTable(def).ok());
  }

  /// Sorted ids of `table_id` as of `snapshot_txn` (default latest).
  std::vector<int64_t> Ids(const std::string& table_id,
                           uint64_t snapshot_txn = kLatestTxn) {
    auto batch = blmt.ReadAll(table_id, snapshot_txn);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) return {};
    auto col = batch->ColumnByName("id");
    EXPECT_TRUE(col.ok());
    std::vector<int64_t> ids = (*col)->Decode().int64_data().ToVector();
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Distinct tags in `table_id` as of `snapshot_txn` (default latest).
  std::set<int64_t> Tags(const std::string& table_id,
                         uint64_t snapshot_txn = kLatestTxn) {
    auto batch = blmt.ReadAll(table_id, snapshot_txn);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) return {};
    auto col = batch->ColumnByName("tag");
    EXPECT_TRUE(col.ok());
    std::vector<int64_t> tags = (*col)->Decode().int64_data().ToVector();
    return {tags.begin(), tags.end()};
  }

  /// Number of intent objects currently under the coordinator's prefix.
  size_t IntentCount() {
    auto objs = store->ListAll(CallerContext{.location = gcp}, "lake",
                               coord->options().prefix + "intents/");
    EXPECT_TRUE(objs.ok());
    return objs.ok() ? objs->size() : 0;
  }
};

}  // namespace biglake

#endif  // BIGLAKE_TESTS_LAKEHOUSE_FIXTURE_H_
