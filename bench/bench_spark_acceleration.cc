// Experiment T-SPARK (Sec 3.4 prose): accelerating external-engine (Spark)
// performance through the Storage API.
//
// Paper claims:
//   1. Statistics returned by CreateReadSession unlock dynamic partition
//      pruning, better join ordering and exchange reuse: ~5x TPC-DS
//      improvement for Spark.
//   2. With the vectorized server-side pipeline, Spark over the Read API
//      matches or exceeds Spark reading Parquet directly from GCS on TPC-H
//      — customers no longer trade price-performance for governance.
//
// Exits 1 unless both hold: statistics lower the TOTAL virtual wall time of
// part 1, and every part-2 Read API query is at most as slow as its direct
// read (API/direct <= 1.0x).

#include "bench/bench_util.h"
#include "extengine/spark_lite.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace bench {
namespace {

int Run() {
  // ---- Part 1: TPC-DS-lite, session statistics on vs off ------------------
  BenchLakehouse env;
  StorageReadApi api(&env.lake);
  BigLakeTableService biglake(&env.lake);
  BlmtService blmt(&env.lake);
  TpcdsScale scale;
  scale.days = 40;
  scale.rows_per_day = 400;
  auto tables = SetupTpcds(&env.lake, &biglake, &blmt, env.store, "lake",
                           "tpcds/", "ds", scale, /*cached=*/true,
                           "us.lake-conn");
  if (!tables.ok()) {
    std::printf("setup failed: %s\n", tables.status().ToString().c_str());
    return 1;
  }

  SparkOptions with_stats;
  SparkOptions no_stats;
  no_stats.use_session_stats = false;
  SparkLiteEngine smart(&env.lake, &api, with_stats);
  SparkLiteEngine dumb(&env.lake, &api, no_stats);

  PrintHeader(
      "Spark-lite TPC-DS-lite: CreateReadSession statistics off vs on "
      "(virtual wall time)");
  PrintRow({"query", "no stats", "with stats", "speedup"}, {26, 14, 14, 10});

  struct SparkQuery {
    std::string name;
    std::function<DataFrame(SparkLiteEngine&)> build;
  };
  int64_t mid = scale.days / 2;
  std::vector<SparkQuery> queries = {
      {"holiday_snowflake_join",
       [&](SparkLiteEngine& e) {
         return e.ReadBigLake(tables->date_dim)
             .Filter(Expr::Eq(Expr::Col("d_is_holiday"),
                              Expr::Lit(Value::Bool(true))))
             .Join(e.ReadBigLake(tables->store_sales), {"d_date_key"},
                   {"ss_sold_date"})
             .Aggregate({}, {{AggOp::kSum, "ss_net_profit", "profit"}});
       }},
      {"fact_on_build_side",
       [&](SparkLiteEngine& e) {
         return e.ReadBigLake(tables->store_sales)
             .Join(e.ReadBigLake(tables->customer), {"ss_customer_id"},
                   {"c_customer_id"})
             .Aggregate({"c_region"},
                        {{AggOp::kSum, "ss_sales_price", "revenue"}});
       }},
      {"one_day_star_join",
       [&](SparkLiteEngine& e) {
         return e.ReadBigLake(tables->date_dim)
             .Filter(Expr::Eq(Expr::Col("d_date_key"),
                              Expr::Lit(Value::Int64(mid))))
             .Join(e.ReadBigLake(tables->store_sales), {"d_date_key"},
                   {"ss_sold_date"})
             .Aggregate({"ss_store_id"},
                        {{AggOp::kCount, "", "sales"}});
       }},
  };

  SimMicros total_no_stats = 0, total_stats = 0;
  for (const auto& q : queries) {
    auto slow = q.build(dumb).Collect("user:bench");
    auto fast = q.build(smart).Collect("user:bench");
    if (!slow.ok() || !fast.ok()) {
      std::printf("%s failed: %s %s\n", q.name.c_str(),
                  slow.status().ToString().c_str(),
                  fast.status().ToString().c_str());
      return 1;
    }
    total_no_stats += slow->stats.wall_micros;
    total_stats += fast->stats.wall_micros;
    PrintRow({q.name, Ms(slow->stats.wall_micros),
              Ms(fast->stats.wall_micros),
              Factor(static_cast<double>(slow->stats.wall_micros) /
                     static_cast<double>(std::max<SimMicros>(
                         1, fast->stats.wall_micros)))},
             {26, 14, 14, 10});
  }
  PrintRow({"TOTAL", Ms(total_no_stats), Ms(total_stats),
            Factor(static_cast<double>(total_no_stats) /
                   static_cast<double>(std::max<SimMicros>(1, total_stats)))},
           {26, 14, 14, 10});
  std::printf(
      "paper: combined stats-driven optimizations gave a 5x Spark TPC-DS "
      "improvement.\n");
  bool ok = true;
  if (total_stats >= total_no_stats) {
    std::printf("FAIL: statistics did not lower the TOTAL wall time\n");
    ok = false;
  }

  // ---- Part 2: TPC-H-lite, Read API vs direct object-store reads ----------
  auto tpch = SetupTpch(&env.lake, &biglake, &blmt, env.store, "lake",
                        "tpch/", "ds", {}, "us.lake-conn");
  if (!tpch.ok()) {
    std::printf("tpch setup failed: %s\n", tpch.status().ToString().c_str());
    return 1;
  }
  PrintHeader(
      "Spark-lite TPC-H-lite scans: direct object-store reads vs the "
      "governed Read API");
  PrintRow({"query", "direct read", "read API", "API/direct"},
           {26, 14, 14, 12});
  struct TpchCase {
    std::string name;
    ExprPtr predicate;
  };
  std::vector<TpchCase> cases = {
      {"full_scan_agg", nullptr},
      {"shipdate_filter",
       Expr::Lt(Expr::Col("l_shipdate"), Expr::Lit(Value::Int64(90)))},
  };
  for (const auto& c : cases) {
    auto direct_df =
        smart.ReadParquetDirect(env.gcp, "lake", "tpch/lineitem/");
    auto api_df = smart.ReadBigLake(tpch->lineitem);
    if (c.predicate != nullptr) {
      direct_df = direct_df.Filter(c.predicate);
      api_df = api_df.Filter(c.predicate);
    }
    auto direct = direct_df
                      .Aggregate({"l_returnflag"},
                                 {{AggOp::kSum, "l_extendedprice", "s"}})
                      .Collect("user:bench");
    auto api_result = api_df
                          .Aggregate({"l_returnflag"},
                                     {{AggOp::kSum, "l_extendedprice", "s"}})
                          .Collect("user:bench");
    if (!direct.ok() || !api_result.ok()) {
      std::printf("%s failed\n", c.name.c_str());
      return 1;
    }
    const double ratio =
        static_cast<double>(api_result->stats.wall_micros) /
        static_cast<double>(std::max<SimMicros>(1, direct->stats.wall_micros));
    PrintRow({c.name, Ms(direct->stats.wall_micros),
              Ms(api_result->stats.wall_micros), Factor(ratio)},
             {26, 14, 14, 12});
    if (ratio > 1.0) {
      std::printf("FAIL: %s is slower through the Read API than direct\n",
                  c.name.c_str());
      ok = false;
    }
  }
  std::printf(
      "paper: Spark against BigLake tables now matches or exceeds direct "
      "GCS reads on TPC-H (values <= ~1x above), while adding uniform "
      "governance.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace biglake

int main() { return biglake::bench::Run(); }
