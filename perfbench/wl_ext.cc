// external_engines: the paths that still byte-serialize and the external
// engine's own planner. One pass runs
//   * Spark-lite DataFrames over scaled TPC-H-lite through the Read API
//     connector (governed) and through direct Parquet-lite reads (the
//     ungoverned baseline), the TPC-H q3-like three-way join, and the
//     TPC-DS-lite snowflake join (statistics, DPP via RefineSession);
//   * a scan through the ReadRows wire shim + DeserializeBatch;
//   * an Omni cross-cloud query against a table resident on S3.
//
// Oracle: every Spark-lite result must equal the engine's result for the
// same query, the wire scan must reproduce the in-process scan's rows, and
// the Omni query must equal the naive federated read of the same table;
// later passes must reproduce the first pass's fingerprints exactly.

#include <functional>

#include "columnar/ipc.h"
#include "common/random.h"
#include "extengine/spark_lite.h"
#include "harness.h"
#include "omni/omni.h"
#include "workload/tpcds_lite.h"

namespace perfbench {
namespace {

constexpr const char* kUser = "user:client";

struct Op {
  std::string name;
  // Runs the op; returns its result and sim-clock wall micros.
  std::function<Result<std::pair<RecordBatch, SimMicros>>(RunStats*, bool)> run;
  // The engine's (or naive read's) result for the same query: the
  // first-pass oracle.
  std::function<Result<RecordBatch>()> reference;
};

class ExternalEngines : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    aws_store_ = lake_.env.AddStore(aws_);
    BL_RETURN_NOT_OK(aws_store_->CreateBucket("s3-lake"));
    BL_RETURN_NOT_OK(lake_.env.catalog().CreateDataset("aws_ds"));
    Connection conn;
    conn.name = "aws.s3-conn";
    conn.service_account.principal = "sa:s3-conn";
    BL_RETURN_NOT_OK(lake_.env.catalog().CreateConnection(conn));

    TpchScale tpch;
    tpch.lineitem_rows = 120000;
    tpch.num_orders = 20000;
    tpch.num_customers = 1000;
    tpch.num_files = 24;
    tpch.seed = seed;
    BL_ASSIGN_OR_RETURN(tpch_, SetupTpch(&lake_.env, lake_.biglake.get(),
                                         lake_.blmt.get(), lake_.store, "lake",
                                         "tpch/", "ds", tpch, "us.lake-conn"));
    TpcdsScale ds;
    ds.days = 30;
    ds.rows_per_day = 4000;
    ds.num_items = 500;
    ds.num_customers = 1000;
    ds.seed = seed + 1;
    BL_ASSIGN_OR_RETURN(tpcds_, SetupTpcds(&lake_.env, lake_.biglake.get(),
                                           lake_.blmt.get(), lake_.store,
                                           "lake", "tpcds/", "ds", ds,
                                           /*cached=*/true, "us.lake-conn"));
    BL_RETURN_NOT_OK(SetupS3Orders(seed + 2));
    BL_RETURN_NOT_OK(job_log_.Create(&lake_));

    engine_ = std::make_unique<QueryEngine>(&lake_.env, lake_.read_api.get(),
                                            BaseEngineOptions());
    SparkOptions spark_opts;
    spark_opts.executors = Workers();
    spark_ = std::make_unique<SparkLiteEngine>(
        &lake_.env, lake_.read_api.get(), spark_opts);
    omni_ = std::make_unique<OmniJobServer>(&lake_.env, lake_.read_api.get(),
                                            "gcp-us");
    omni_->AddRegion({"gcp-us", lake_.gcp, BaseEngineOptions()});
    EngineOptions aws_opts = BaseEngineOptions();
    aws_opts.engine_location = aws_;
    omni_->AddRegion({"aws-us-east-1", aws_, aws_opts});
    BuildOps();
    return Status::OK();
  }

  void FirstPass(RunStats* stats) override {
    expect_.clear();
    for (Op& op : ops_) {
      RecordBatch got = RunOp(op, nullptr, stats, false);
      auto want = op.reference();
      if (!want.ok()) {
        stats->Fail(op.name + " (reference): " + want.status().ToString());
      } else {
        std::string diff = CompareRows(got, *want);
        if (!diff.empty()) stats->Fail(op.name + " vs engine: " + diff);
      }
      expect_.push_back(FingerprintOf(got));
    }
  }

  void Pass(RunStats* stats, bool traced) override {
    for (size_t i = 0; i < ops_.size(); ++i) {
      RunOp(ops_[i], &expect_[i], stats, traced);
    }
  }

  void Probes(LayerReport* out) override {
    out->Set("core.blmt.live_files", LiveFiles(&lake_, job_log_.table_id()),
             "count", "sim", "live files of the job log");
    TableProbes(&lake_, tpch_.lineitem, "tpch/lineitem/", false, out);
  }

  LakehouseEnv* env() override { return &lake_.env; }

 private:
  Status SetupS3Orders(uint64_t seed) {
    Random rng(seed);
    auto schema = MakeSchema({{"order_id", DataType::kInt64, false},
                              {"order_total", DataType::kDouble, false}});
    CallerContext aws_ctx{.location = aws_};
    for (int d = 0; d < 10; ++d) {
      BatchBuilder b(schema);
      for (int r = 0; r < 2000; ++r) {
        BL_RETURN_NOT_OK(b.AppendRow(
            {Value::Int64(d * 10000 + r),
             Value::Double(10.0 + rng.NextDouble() * 990.0)}));
      }
      BL_ASSIGN_OR_RETURN(std::string bytes, WriteParquetFile(b.Finish()));
      PutOptions po;
      po.content_type = "application/x-parquet-lite";
      BL_RETURN_NOT_OK(aws_store_
                           ->Put(aws_ctx, "s3-lake",
                                 "orders/day=" + std::to_string(d) + "/p.plk",
                                 std::move(bytes), po)
                           .status());
    }
    TableDef def;
    def.dataset = "aws_ds";
    def.name = "customer_orders";
    def.kind = TableKind::kBigLake;
    def.schema = schema;
    def.connection = "aws.s3-conn";
    def.location = aws_;
    def.bucket = "s3-lake";
    def.prefix = "orders/";
    def.partition_columns = {"day"};
    def.metadata_cache_enabled = true;
    def.iam.Grant("*", Role::kReader);
    return lake_.biglake->CreateBigLakeTable(def);
  }

  // Runs one op timed; records it, checks `expect` and feeds the layers.
  RecordBatch RunOp(Op& op, const Fingerprint* expect, RunStats* stats,
                    bool traced) {
    ++stats->attempted;
    double ms = 0, cpu = 0;
    auto r = TimeOp(&ms, &cpu, [&] { return op.run(stats, traced); });
    stats->RecordQuery(op.name, ms, cpu);
    if (op.name == "spark_governed_q1") {
      stats->layer_ms["extengine.collect_ms.governed"].push_back(ms);
    } else if (op.name == "spark_direct_q1") {
      stats->layer_ms["extengine.collect_ms.direct"].push_back(ms);
    } else if (op.name == "omni_cross_cloud") {
      stats->layer_ms["omni.query_ms"].push_back(ms);
    }
    RecordBatch batch;
    if (!r.ok()) {
      stats->Fail(op.name + ": " + r.status().ToString());
    } else {
      batch = std::move(r->first);
      if (expect != nullptr && FingerprintOf(batch) != *expect) {
        stats->Fail(op.name + ": result differs from the checked first pass");
      }
      if (expect == nullptr) {
        stats->sim_read_us += static_cast<double>(r->second);
        ++stats->sim_read_ops;
      }
      if (traced) stats->result_rows += batch.num_rows();
    }
    job_log_.Append(op.name, batch.num_rows(), stats);
    return batch;
  }

  static Result<std::pair<RecordBatch, SimMicros>> FromSpark(
      Result<SparkResult> r) {
    if (!r.ok()) return r.status();
    return std::make_pair(std::move(r->batch), r->stats.wall_micros);
  }

  Result<RecordBatch> EngineRows(const PlanPtr& plan) {
    BL_ASSIGN_OR_RETURN(QueryResult r, engine_->Execute(kUser, plan));
    return std::move(r.batch);
  }

  void BuildOps() {
    ExprPtr ship = Expr::Le(Expr::Col("l_shipdate"),
                            Expr::Lit(Value::Int64(300)));
    std::vector<AggSpec> q1_aggs = {
        {AggOp::kSum, "l_quantity", "sum_qty"},
        {AggOp::kSum, "l_extendedprice", "sum_price"},
        {AggOp::kCount, "", "count_order"}};
    PlanPtr q1_plan = Plan::Aggregate(Plan::Scan(tpch_.lineitem, {}, ship),
                                      {"l_returnflag"}, q1_aggs);
    ops_.push_back(
        {"spark_governed_q1",
         [=, this](RunStats*, bool) {
           return FromSpark(spark_->ReadBigLake(tpch_.lineitem)
                                .Filter(ship)
                                .Aggregate({"l_returnflag"}, q1_aggs)
                                .Collect(kUser));
         },
         [=, this] { return EngineRows(q1_plan); }});
    ops_.push_back(
        {"spark_direct_q1",
         [=, this](RunStats*, bool) {
           return FromSpark(spark_->ReadParquetDirect(lake_.gcp, "lake",
                                                      "tpch/lineitem/")
                                .Filter(ship)
                                .Aggregate({"l_returnflag"}, q1_aggs)
                                .Collect(kUser));
         },
         [=, this] { return EngineRows(q1_plan); }});

    std::vector<NamedQuery> tpch_queries = TpchQueries(tpch_);
    PlanPtr q3_plan = tpch_queries[1].plan;
    ops_.push_back(
        {"spark_tpch_q3",
         [this](RunStats*, bool) {
           auto customers = spark_->ReadBigLake(tpch_.customer)
                                .Filter(Expr::Eq(Expr::Col("cu_mktsegment"),
                                                 Expr::Lit(Value::String(
                                                     "BUILDING"))));
           return FromSpark(
               customers.Join(spark_->ReadBigLake(tpch_.orders),
                              {"cu_custkey"}, {"o_custkey"})
                   .Join(spark_->ReadBigLake(tpch_.lineitem), {"o_orderkey"},
                         {"l_orderkey"})
                   .Aggregate({"o_orderkey"},
                              {{AggOp::kSum, "l_extendedprice", "revenue"}})
                   .OrderBy({{"revenue", true}})
                   .Limit(10)
                   .Collect(kUser));
         },
         [=, this] { return EngineRows(q3_plan); }});

    ExprPtr holiday = Expr::Eq(Expr::Col("d_is_holiday"),
                               Expr::Lit(Value::Bool(true)));
    PlanPtr snow_plan = Plan::Aggregate(
        Plan::HashJoin(Plan::Filter(Plan::Scan(tpcds_.date_dim), holiday),
                       Plan::Scan(tpcds_.store_sales), {"d_date_key"},
                       {"ss_sold_date"}),
        {}, {{AggOp::kSum, "ss_net_profit", "profit"}});
    ops_.push_back(
        {"spark_snowflake_dpp",
         [=, this](RunStats*, bool) {
           return FromSpark(spark_->ReadBigLake(tpcds_.date_dim)
                                .Filter(holiday)
                                .Join(spark_->ReadBigLake(tpcds_.store_sales),
                                      {"d_date_key"}, {"ss_sold_date"})
                                .Aggregate({}, {{AggOp::kSum, "ss_net_profit",
                                                 "profit"}})
                                .Collect(kUser));
         },
         [=, this] { return EngineRows(snow_plan); }});

    std::vector<std::string> wire_cols = {"l_orderkey", "l_extendedprice",
                                          "l_returnflag"};
    ops_.push_back(
        {"wire_scan",
         [=, this](RunStats* stats,
                   bool traced) -> Result<std::pair<RecordBatch, SimMicros>> {
           SimTimer timer(lake_.env.sim());
           ReadSessionOptions opts;
           opts.columns = wire_cols;
           opts.max_streams = Workers();
           BL_ASSIGN_OR_RETURN(ReadSession session,
                               lake_.read_api->CreateReadSession(
                                   kUser, tpch_.lineitem, opts));
           std::vector<RecordBatch> batches;
           for (size_t s = 0; s < session.streams.size(); ++s) {
             auto t0 = Clock::now();
             BL_ASSIGN_OR_RETURN(std::vector<std::string> wire,
                                 lake_.read_api->ReadRows(session, s));
             for (const std::string& msg : wire) {
               BL_ASSIGN_OR_RETURN(RecordBatch b, DeserializeBatch(msg));
               batches.push_back(std::move(b));
             }
             if (traced) {
               stats->layer_ms["columnar.ipc_wire_ms"].push_back(MsSince(t0));
             }
           }
           BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(batches));
           return std::make_pair(std::move(all), timer.ElapsedMicros());
         },
         [=, this] {
           return EngineRows(Plan::Scan(tpch_.lineitem, wire_cols));
         }});

    PlanPtr omni_plan = Plan::Aggregate(
        Plan::Scan("aws_ds.customer_orders", {},
                   Expr::Lt(Expr::Col("day"), Expr::Lit(Value::Int64(3)))),
        {}, {{AggOp::kSum, "order_total", "revenue"},
             {AggOp::kCount, "", "orders"}});
    ops_.push_back(
        {"omni_cross_cloud",
         [=, this](RunStats* stats,
                   bool traced) -> Result<std::pair<RecordBatch, SimMicros>> {
           obs::QueryProfile profile;
           BL_ASSIGN_OR_RETURN(
               CrossCloudResult r,
               omni_->ExecuteQuery(kUser, omni_plan,
                                   traced ? &profile : nullptr));
           if (traced) {
             stats->layers.Add(profile);
             ++stats->profiled_queries;
             stats->layer_counts["omni.queries"] += 1;
             stats->layer_counts["omni.cross_cloud_bytes"] +=
                 static_cast<double>(r.stats.cross_cloud_bytes);
           }
           return std::make_pair(std::move(r.batch), r.stats.wall_micros);
         },
         // The naive federated read: a GCP engine scanning S3 directly.
         [=, this] { return EngineRows(omni_plan); }});
  }

  Lake lake_;
  CloudLocation aws_{CloudProvider::kAWS, "us-east-1"};
  ObjectStore* aws_store_ = nullptr;
  TpchTables tpch_;
  TpcdsTables tpcds_;
  JobLog job_log_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SparkLiteEngine> spark_;
  std::unique_ptr<OmniJobServer> omni_;
  std::vector<Op> ops_;
  std::vector<Fingerprint> expect_;
};

}  // namespace

std::unique_ptr<Workload> MakeExternalEngines() {
  return std::make_unique<ExternalEngines>();
}

}  // namespace perfbench
