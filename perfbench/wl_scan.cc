// scan_warm: a wide hive-partitioned table (int, double, dictionary and
// string columns) warmed into a block cache that holds all of it, result
// cache off, no joins. Object-store I/O and decode drop out, so time sits in
// kernels, gather, stream fan-out, Concat, the folds and the pool.
//
// One pass runs the six-query mix three times as an unrestricted principal
// and once as a principal under a row-access policy and a column mask (a
// quarter of the queries are governed).
//
// Oracle: expected results are computed from the generated rows themselves
// (checksums from the seed); governed results must equal the ungoverned rows
// filtered by the row policy with the column mask applied.

#include <array>

#include "common/random.h"
#include "harness.h"
#include "security/security.h"

namespace perfbench {
namespace {

constexpr int kFiles = 32;
constexpr size_t kRowsPerFile = 8000;
constexpr const char* kAdmin = "user:admin";
constexpr const char* kAnalyst = "user:analyst";
const std::array<const char*, 10> kRegions = {
    "east", "west", "north", "south", "central",
    "coast", "plains", "mountain", "lakes", "desert"};

SchemaPtr WideSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"k", DataType::kInt64, false},
                     {"amount", DataType::kDouble, false},
                     {"score", DataType::kDouble, false},
                     {"region", DataType::kString, false},
                     {"email", DataType::kString, false}});
}

struct ScanQuery {
  std::string name;
  std::string sql;
};

const std::vector<ScanQuery>& Mix() {
  static const std::vector<ScanQuery> q = {
      {"full_scan", "SELECT * FROM ds.wide"},
      {"int_1pct", "SELECT * FROM ds.wide WHERE k < 100"},
      {"int_10pct", "SELECT * FROM ds.wide WHERE k < 1000"},
      {"string_10pct", "SELECT * FROM ds.wide WHERE region = 'east'"},
      {"project_2of6", "SELECT id, amount FROM ds.wide"},
      {"group_region",
       "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM ds.wide "
       "GROUP BY region"},
  };
  return q;
}

class ScanWarm : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    Random rng(seed);
    for (int f = 0; f < kFiles; ++f) {
      BatchBuilder b(WideSchema());
      for (size_t r = 0; r < kRowsPerFile; ++r) {
        int64_t id = static_cast<int64_t>(f * kRowsPerFile + r);
        BL_RETURN_NOT_OK(b.AppendRow(
            {Value::Int64(id),
             Value::Int64(static_cast<int64_t>(rng.Uniform(10000))),
             Value::Double(rng.NextDouble() * 1000.0),
             Value::Double(rng.NextDouble()),
             Value::String(kRegions[rng.Uniform(kRegions.size())]),
             Value::String("user" + std::to_string(id) + "@example.com")}));
      }
      model_.push_back(b.Finish());
      BL_RETURN_NOT_OK(lake_.PutParquet(
          "wide/date=" + std::to_string(f) + "/p.plk", model_.back()));
    }
    TableDef def;
    def.dataset = "ds";
    def.name = "wide";
    def.kind = TableKind::kBigLake;
    def.schema = WideSchema();
    def.connection = "us.lake-conn";
    def.location = lake_.gcp;
    def.bucket = "lake";
    def.prefix = "wide/";
    def.partition_columns = {"date"};
    def.metadata_cache_enabled = true;
    def.iam.Grant("*", Role::kReader);
    RowAccessPolicy analyst_rows;
    analyst_rows.name = "east_west";
    analyst_rows.grantees = {kAnalyst};
    analyst_rows.filter =
        Expr::InList(Expr::Col("region"),
                     {Value::String("east"), Value::String("west")});
    RowAccessPolicy admin_rows;
    admin_rows.name = "all_rows";
    admin_rows.grantees = {kAdmin};
    admin_rows.filter = Expr::Ge(Expr::Col("k"), Expr::Lit(Value::Int64(0)));
    def.policy.row_policies = {analyst_rows, admin_rows};
    ColumnRule email;
    email.clear_readers = {kAdmin};
    email.mask = MaskType::kHash;
    def.policy.column_rules["email"] = email;
    BL_RETURN_NOT_OK(lake_.biglake->CreateBigLakeTable(def));
    table_id_ = def.id();
    BL_RETURN_NOT_OK(job_log_.Create(&lake_));

    EngineOptions opts = BaseEngineOptions();
    opts.enable_block_cache = true;
    engine_ = std::make_unique<QueryEngine>(&lake_.env, lake_.read_api.get(),
                                            opts);
    // Warm the block cache with every projection the mix reads.
    for (const ScanQuery& q : Mix()) {
      for (const char* who : {kAdmin, kAnalyst}) {
        auto plan = ParseSql(q.sql);
        if (!plan.ok()) return plan.status();
        BL_RETURN_NOT_OK(engine_->Execute(who, *plan).status());
      }
    }
    return Status::OK();
  }

  void FirstPass(RunStats* stats) override {
    expect_admin_.clear();
    expect_analyst_.clear();
    for (const ScanQuery& q : Mix()) {
      for (bool governed : {false, true}) {
        const char* who = governed ? kAnalyst : kAdmin;
        std::string kind = (governed ? "gov_" : "") + q.name;
        QueryResult got =
            RunQuery(engine_.get(), who, kind, q.sql, nullptr, stats, false);
        std::string diff = CheckAgainstModel(q.name, governed, got.batch);
        if (!diff.empty()) stats->Fail(kind + " vs model: " + diff);
        (governed ? expect_analyst_ : expect_admin_)
            .push_back(FingerprintOf(got.batch));
        stats->sim_read_us += static_cast<double>(got.stats.wall_micros);
        ++stats->sim_read_ops;
        stats->layer_counts["engine.files_scanned"] += got.stats.files_scanned;
        stats->layer_counts["engine.files_pruned"] += got.stats.files_pruned;
        job_log_.Append(kind, got.batch.num_rows(), stats);
      }
    }
  }

  void Pass(RunStats* stats, bool traced) override {
    const auto& mix = Mix();
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t i = 0; i < mix.size(); ++i) Run(i, false, stats, traced);
    }
    for (size_t i = 0; i < mix.size(); ++i) Run(i, true, stats, traced);
  }

  void Probes(LayerReport* out) override {
    out->Set("core.blmt.live_files", LiveFiles(&lake_, job_log_.table_id()),
             "count", "sim", "live files of the job log");
    TableProbes(&lake_, table_id_, "wide/", true, out);
  }

  LakehouseEnv* env() override { return &lake_.env; }

 private:
  void Run(size_t i, bool governed, RunStats* stats, bool traced) {
    const ScanQuery& q = Mix()[i];
    std::string kind = (governed ? "gov_" : "") + q.name;
    const Fingerprint& want = governed ? expect_analyst_[i] : expect_admin_[i];
    QueryResult r = RunQuery(engine_.get(), governed ? kAnalyst : kAdmin, kind,
                             q.sql, &want, stats, traced);
    job_log_.Append(kind, r.batch.num_rows(), stats);
  }

  // The expected rows of one mix query, computed from the generated files.
  std::string CheckAgainstModel(const std::string& name, bool governed,
                                const RecordBatch& got) {
    if (name == "group_region") {
      std::map<std::string, std::pair<int64_t, double>> groups;
      for (const RecordBatch& file : model_) {
        const Column& amount = file.column(2);
        const Column& region = file.column(4);
        for (size_t r = 0; r < file.num_rows(); ++r) {
          std::string reg = region.GetValue(r).string_value();
          if (governed && reg != "east" && reg != "west") continue;
          auto& g = groups[reg];
          ++g.first;
          g.second += amount.GetValue(r).double_value();
        }
      }
      BatchBuilder b(MakeSchema({{"region", DataType::kString, false},
                                 {"n", DataType::kInt64, false},
                                 {"total", DataType::kDouble, false}}));
      for (const auto& [reg, g] : groups) {
        (void)b.AppendRow({Value::String(reg), Value::Int64(g.first),
                           Value::Double(g.second)});
      }
      return CompareRows(got, b.Finish());
    }
    Fingerprint want;
    for (const RecordBatch& file : model_) {
      const Column& k = file.column(1);
      const Column& region = file.column(4);
      std::vector<uint8_t> mask(file.num_rows(), 1);
      for (size_t r = 0; r < file.num_rows(); ++r) {
        int64_t kv = k.GetValue(r).int64_value();
        std::string reg = region.GetValue(r).string_value();
        bool keep = true;
        if (name == "int_1pct") keep = kv < 100;
        if (name == "int_10pct") keep = kv < 1000;
        if (name == "string_10pct") keep = reg == "east";
        if (governed && reg != "east" && reg != "west") keep = false;
        mask[r] = keep ? 1 : 0;
      }
      RecordBatch rows = file.Filter(mask);
      std::vector<Column> cols;
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        const Column& col = rows.column(c);
        cols.push_back(governed && c == 5 ? ApplyMask(col, MaskType::kHash)
                                          : col);
      }
      rows = RecordBatch(rows.schema(), std::move(cols));
      if (name == "project_2of6") {
        auto projected = rows.Project({"id", "amount"});
        if (!projected.ok()) return projected.status().ToString();
        rows = std::move(*projected);
      }
      Fingerprint fp = FingerprintOf(rows);
      want.rows += fp.rows;
      want.hash += fp.hash;
    }
    Fingerprint fp = FingerprintOf(got);
    if (fp.rows != want.rows) {
      return "row count " + std::to_string(fp.rows) + " != expected " +
             std::to_string(want.rows);
    }
    return fp == want ? "" : "row checksum differs from the generated rows";
  }

  Lake lake_;
  std::string table_id_;
  JobLog job_log_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<RecordBatch> model_;
  std::vector<Fingerprint> expect_admin_, expect_analyst_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanWarm() {
  return std::make_unique<ScanWarm>();
}

}  // namespace perfbench
