// The engine's chunked data flow end to end (columnar/chunked_batch.h).
//
// Scans hand their Read API response batches on as chunks; filters and
// projections run per chunk, the join probes chunk by chunk, the group-by
// cuts its 4096-row partials across chunk boundaries, and rows are copied
// into one batch only at the root, Sort, Map and a join's build side. The
// tables here are multi-file with several row groups per file (a 6,000-row
// group reaches the engine as two slices of one dictionary block) and carry
// dictionary, run-length and nullable columns. Every query runs at 1, 2 and
// 8 workers (one read stream per worker) and is checked against the boxed
// reference evaluator and group-by (tests/reference_eval.h) over the
// engine's own contiguous scan output at the same worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "columnar/buffer.h"
#include "columnar/ipc.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/operators.h"
#include "engine/sql_parser.h"
#include "lakehouse_fixture.h"
#include "obs/profile.h"
#include "reference_eval.h"
#include "workload/tpcds_lite.h"

namespace biglake {
namespace {

constexpr char kFacts[] = "ds.facts";
constexpr char kDims[] = "ds.dims";
constexpr int kFactFiles = 4;
constexpr size_t kFactRowsPerFile = 10000;
const uint32_t kWorkerCounts[] = {1, 2, 8};

SchemaPtr FactSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"region", DataType::kString, false},
                     {"qty", DataType::kInt64, true},
                     {"bucket", DataType::kInt64, false},
                     {"price", DataType::kDouble, true},
                     {"note", DataType::kString, true}});
}

SchemaPtr DimSchema() {
  return MakeSchema({{"d_key", DataType::kInt64, false},
                     {"d_name", DataType::kString, false},
                     {"d_flag", DataType::kBool, false}});
}

std::string RowString(const RecordBatch& b, size_t r) {
  std::string out;
  for (size_t c = 0; c < b.num_columns(); ++c) {
    out += b.GetValue(r, c).ToString();
    out += '|';
  }
  return out;
}

std::vector<std::string> Rows(const RecordBatch& b) {
  std::vector<std::string> out;
  for (size_t r = 0; r < b.num_rows(); ++r) out.push_back(RowString(b, r));
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Rows with their cells in column-name order, sorted.
std::vector<std::string> ByName(const RecordBatch& b) {
  std::map<std::string, size_t> cols;
  for (size_t c = 0; c < b.num_columns(); ++c) {
    cols[b.schema()->field(c).name] = c;
  }
  std::vector<std::string> out;
  for (size_t r = 0; r < b.num_rows(); ++r) {
    std::string row;
    for (const auto& [name, c] : cols) {
      row += name + "=" + b.GetValue(r, c).ToString() + "|";
    }
    out.push_back(std::move(row));
  }
  return Sorted(std::move(out));
}

void CollectSpans(const obs::Span* span, const std::string& name,
                  std::vector<const obs::Span*>* out) {
  if (span->name() == name) out->push_back(span);
  for (const auto& child : span->children()) {
    CollectSpans(child.get(), name, out);
  }
}

uint64_t Num(const obs::Span* span, const std::string& key) {
  auto it = span->nums().find(key);
  return it == span->nums().end() ? 0 : it->second;
}

class ChunkedFlowTest : public LakehouseFixture {
 protected:
  void SetUp() override {
    // Facts: 4 files of 10,000 rows in row groups of 6,000 + 4,000, so
    // each file reaches the engine as three chunks (4,096 + 1,904 slices
    // of the first group's block, then the second group).
    ParquetWriteOptions opts;
    opts.row_group_size = 6000;
    static const char* kRegions[] = {"east", "west", "north", "south",
                                     "center"};
    Random rng(91);
    for (int f = 0; f < kFactFiles; ++f) {
      BatchBuilder b(FactSchema());
      for (size_t i = 0; i < kFactRowsPerFile; ++i) {
        const int64_t id = f * 100000 + static_cast<int64_t>(i);
        const int64_t row = f * static_cast<int64_t>(kFactRowsPerFile) +
                            static_cast<int64_t>(i);
        ASSERT_TRUE(
            b.AppendRow(
                 {Value::Int64(id), Value::String(kRegions[rng.Uniform(5)]),
                  rng.Uniform(10) == 0
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
                  Value::Int64(row / 200),  // long runs: RLE
                  rng.Uniform(8) == 0 ? Value::Null()
                                      : Value::Double(rng.NextDouble() * 100),
                  rng.Uniform(6) == 0
                      ? Value::Null()
                      : Value::String("n" + std::to_string(id))})
                .ok());
      }
      RecordBatch batch = b.Finish();
      auto bytes = WriteParquetFile(batch, opts);
      ASSERT_TRUE(bytes.ok());
      PutOptions po;
      po.content_type = "application/x-parquet-lite";
      ASSERT_TRUE(store_
                      ->Put(GcpCaller(), "lake",
                            "facts/date=" + std::to_string(f) + "/part.plk",
                            *bytes, po)
                      .ok());
      source_rows_ += batch.num_rows();
    }
    TableDef facts = MakeBigLakeDef("facts", "facts/");
    facts.schema = FactSchema();
    ASSERT_TRUE(biglake_.CreateBigLakeTable(facts).ok());

    // Dims: one file, one 8,192-row group of 5,000 rows: two slices of one
    // dictionary block, like the TPC-DS customer table.
    BatchBuilder d(DimSchema());
    for (int64_t k = 0; k < 5000; ++k) {
      ASSERT_TRUE(d.AppendRow({Value::Int64(k),
                               Value::String("name" + std::to_string(k % 12)),
                               Value::Bool(k % 3 == 0)})
                      .ok());
    }
    auto dim_bytes = WriteParquetFile(d.Finish());
    ASSERT_TRUE(dim_bytes.ok());
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    ASSERT_TRUE(
        store_->Put(GcpCaller(), "lake", "dims/part.plk", *dim_bytes, po)
            .ok());
    TableDef dims = MakeBigLakeDef("dims", "dims/");
    dims.schema = DimSchema();
    dims.partition_columns.clear();
    ASSERT_TRUE(biglake_.CreateBigLakeTable(dims).ok());
  }

  EngineOptions Options(uint32_t workers) const {
    EngineOptions o;
    o.num_workers = workers;
    return o;
  }

  RecordBatch Run(const PlanPtr& plan, const EngineOptions& options,
                  obs::QueryProfile* profile = nullptr) {
    QueryEngine engine(&lake_, &api_, options);
    auto r = engine.Execute("u", plan, profile);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->batch : RecordBatch();
  }

  RecordBatch Run(const PlanPtr& plan, uint32_t workers) {
    return Run(plan, Options(workers));
  }

  /// The reference rows of `plan`'s filter `pred` over `in`.
  static RecordBatch ReferenceFilter(const RecordBatch& in, const Expr& pred,
                                     std::vector<uint32_t>* sel = nullptr) {
    auto col = ReferencePredicate(pred, in);
    EXPECT_TRUE(col.ok()) << col.status().ToString();
    std::vector<uint8_t> mask = ReferenceMask(*col);
    if (sel != nullptr) {
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] != 0) sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return in.Filter(mask);
  }

  /// Boxed inner join in probe-row order, each probe row's matches in
  /// build-row order, build columns first (names never collide here).
  static std::vector<std::string> ReferenceJoin(const RecordBatch& build,
                                                const RecordBatch& probe,
                                                const std::string& build_key,
                                                const std::string& probe_key) {
    const size_t bk = static_cast<size_t>(build.schema()->FieldIndex(build_key));
    const size_t pk = static_cast<size_t>(probe.schema()->FieldIndex(probe_key));
    std::multimap<Value, size_t> table;
    for (size_t r = 0; r < build.num_rows(); ++r) {
      Value v = build.GetValue(r, bk);
      if (!v.is_null()) table.emplace(std::move(v), r);
    }
    std::vector<std::string> out;
    for (size_t r = 0; r < probe.num_rows(); ++r) {
      const Value v = probe.GetValue(r, pk);
      if (v.is_null()) continue;
      auto [lo, hi] = table.equal_range(v);
      for (auto it = lo; it != hi; ++it) {
        out.push_back(RowString(build, it->second) + RowString(probe, r));
      }
    }
    return out;
  }

  BigLakeTableService biglake_{&lake_};
  StorageReadApi api_{&lake_};
  size_t source_rows_ = 0;
};

ExprPtr EastAndBigQty() {
  return Expr::And(Expr::Gt(Expr::Col("qty"), Expr::Lit(Value::Int64(50))),
                   Expr::Eq(Expr::Col("region"),
                            Expr::Lit(Value::String("east"))));
}

std::vector<AggSpec> AllSpecs() {
  return {{AggOp::kSum, "price", "sum_price"},
          {AggOp::kAvg, "price", "avg_price"},
          {AggOp::kMin, "note", "min_note"},
          {AggOp::kMax, "qty", "max_qty"},
          {AggOp::kCount, "qty", "n_qty"},
          {AggOp::kCount, "", "n"}};
}

TEST_F(ChunkedFlowTest, ScanHandsOnOneChunkPerResponseBatch) {
  std::vector<std::string> want;
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    obs::QueryProfile profile;
    RecordBatch got = Run(Plan::Scan(kFacts), Options(w), &profile);
    ASSERT_EQ(got.num_rows(), source_rows_);
    // Every row once, whatever the stream count.
    if (want.empty()) want = Sorted(Rows(got));
    EXPECT_EQ(Sorted(Rows(got)), want);
    std::vector<const obs::Span*> scans, mats;
    CollectSpans(profile.root(), "op:scan", &scans);
    CollectSpans(profile.root(), "materialize", &mats);
    ASSERT_EQ(scans.size(), 1u);
    EXPECT_EQ(Num(scans[0], "chunks"), 3u * kFactFiles);
    ASSERT_EQ(mats.size(), 1u);  // the root, and nothing else
    EXPECT_EQ(Num(mats[0], "pieces"), 3u * kFactFiles);
    EXPECT_EQ(Num(mats[0], "rows"), source_rows_);
  }
}

TEST_F(ChunkedFlowTest, FilterProjectAndLimitMatchTheReference) {
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    const RecordBatch all = Run(Plan::Scan(kFacts), w);
    const RecordBatch kept = ReferenceFilter(all, *EastAndBigQty());
    ASSERT_GT(kept.num_rows(), 0u);
    PlanPtr filtered = Plan::Filter(Plan::Scan(kFacts), EastAndBigQty());
    EXPECT_EQ(Rows(Run(filtered, w)), Rows(kept));

    const std::vector<ExprPtr> exprs = {
        Expr::Col("id"),
        Expr::Arith(ArithOp::kMul, Expr::Col("price"),
                    Expr::Lit(Value::Double(2.0))),
        Expr::Col("note"), Expr::Col("bucket")};
    std::vector<Column> cols;
    std::vector<Field> fields;
    const std::vector<std::string> names = {"id", "p2", "note", "bucket"};
    for (size_t i = 0; i < exprs.size(); ++i) {
      auto c = ReferenceEvaluate(*exprs[i], kept);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      fields.push_back({names[i], c->type(), true});
      cols.push_back(*c);
    }
    RecordBatch want(MakeSchema(fields), cols);
    EXPECT_EQ(Rows(Run(Plan::Project(filtered, names, exprs), w)),
              Rows(want));

    // Limits that end inside a chunk, over a selection and over plain
    // chunks (the first 5,000 rows span a 4,096-row slice boundary).
    EXPECT_EQ(Rows(Run(Plan::Limit(filtered, 123), w)),
              Rows(kept.Slice(0, 123)));
    EXPECT_EQ(Rows(Run(Plan::Limit(Plan::Scan(kFacts), 5000), w)),
              Rows(all.Slice(0, 5000)));
  }
}

TEST_F(ChunkedFlowTest, JoinOnEitherBuildSideAndAFilterAboveMatchTheReference) {
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    const RecordBatch facts = Run(Plan::Scan(kFacts), w);
    const RecordBatch dims = Run(Plan::Scan(kDims), w);

    // Dims build (the smaller side by statistics), facts probe.
    PlanPtr dim_build = Plan::HashJoin(Plan::Scan(kDims), Plan::Scan(kFacts),
                                       {"d_key"}, {"bucket"});
    const std::vector<std::string> want =
        ReferenceJoin(dims, facts, "d_key", "bucket");
    ASSERT_GT(want.size(), 0u);
    EXPECT_EQ(Rows(Run(dim_build, w)), want);

    // Facts build: the multi-chunk side is materialized once.
    EngineOptions as_written = Options(w);
    as_written.use_table_stats = false;
    PlanPtr fact_build = Plan::HashJoin(Plan::Scan(kFacts), Plan::Scan(kDims),
                                        {"bucket"}, {"d_key"});
    obs::QueryProfile profile;
    EXPECT_EQ(Rows(Run(fact_build, as_written, &profile)),
              ReferenceJoin(facts, dims, "bucket", "d_key"));
    std::vector<const obs::Span*> mats;
    CollectSpans(profile.root(), "materialize", &mats);
    ASSERT_EQ(mats.size(), 2u);  // the build side, then the root
    EXPECT_EQ(Num(mats[0], "pieces"), 3u * kFactFiles);
    EXPECT_EQ(Num(mats[0], "rows"), source_rows_);

    // A filter above the join. The optimizer sinks it into the facts scan,
    // which statistics then make the build side, so compare rows by
    // column name, in any order.
    ExprPtr west =
        Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west")));
    RecordBatch joined = Run(dim_build, w);
    EXPECT_EQ(ByName(Run(Plan::Filter(dim_build, west), w)),
              ByName(ReferenceFilter(joined, *west)));
  }
}

TEST_F(ChunkedFlowTest, AggregatesEqualAContiguousInputBitForBit) {
  const std::vector<std::vector<std::string>> groupings = {
      {}, {"region"}, {"bucket"}, {"region", "qty"}};
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    const RecordBatch all = Run(Plan::Scan(kFacts), w);
    std::vector<uint32_t> sel;
    ReferenceFilter(all, *EastAndBigQty(), &sel);
    PlanPtr dim_build = Plan::HashJoin(Plan::Scan(kDims), Plan::Scan(kFacts),
                                       {"d_key"}, {"bucket"});
    const RecordBatch joined = Run(dim_build, w);
    for (const auto& keys : groupings) {
      SCOPED_TRACE(keys.empty() ? std::string("global") : keys[0]);
      // Over the scan's chunks: cuts of 4,096 logical rows span the
      // 4,096 + 1,904 + 4,000 chunks of every file.
      auto contiguous = ops::ParallelAggregate(nullptr, all, keys, AllSpecs());
      ASSERT_TRUE(contiguous.ok()) << contiguous.status().ToString();
      auto reference = ReferenceChunkedAggregate(all, keys, AllSpecs());
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(SerializeBatch(*contiguous), SerializeBatch(*reference));
      obs::QueryProfile profile;
      RecordBatch got =
          Run(Plan::Aggregate(Plan::Scan(kFacts), keys, AllSpecs()), Options(w),
              &profile);
      EXPECT_EQ(SerializeBatch(got), SerializeBatch(*contiguous));
      std::vector<const obs::Span*> aggs;
      CollectSpans(profile.root(), "op:aggregate", &aggs);
      ASSERT_EQ(aggs.size(), 1u);
      EXPECT_EQ(Num(aggs[0], "partials"), (source_rows_ + 4095) / 4096);

      // Over chunks carrying selections.
      auto filtered =
          ops::ParallelAggregate(nullptr, all, keys, AllSpecs(), &sel);
      ASSERT_TRUE(filtered.ok());
      EXPECT_EQ(SerializeBatch(Run(
                    Plan::Aggregate(
                        Plan::Filter(Plan::Scan(kFacts), EastAndBigQty()), keys,
                        AllSpecs()),
                    w)),
                SerializeBatch(*filtered));

      // Over the join's output chunks.
      auto over_join =
          ops::ParallelAggregate(nullptr, joined, keys, AllSpecs());
      ASSERT_TRUE(over_join.ok());
      EXPECT_EQ(SerializeBatch(Run(Plan::Aggregate(dim_build, keys, AllSpecs()),
                                   w)),
                SerializeBatch(*over_join));
    }
  }
}

TEST_F(ChunkedFlowTest, SortAndMapSeeContiguousRows) {
  const std::vector<SortKey> keys = {{"region", false},
                                     {"price", true},
                                     {"id", false}};
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    const RecordBatch all = Run(Plan::Scan(kFacts), w);
    RecordBatch kept = ReferenceFilter(
        all, *Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(30))));
    std::vector<size_t> order(kept.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<int> key_cols;
    for (const SortKey& k : keys) {
      key_cols.push_back(kept.schema()->FieldIndex(k.column));
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < keys.size(); ++i) {
        const Value va = kept.GetValue(a, static_cast<size_t>(key_cols[i]));
        const Value vb = kept.GetValue(b, static_cast<size_t>(key_cols[i]));
        if (va == vb) continue;
        return keys[i].descending ? vb < va : va < vb;
      }
      return false;
    });
    std::vector<std::string> want;
    for (size_t i : order) want.push_back(RowString(kept, i));
    PlanPtr filtered = Plan::Filter(
        Plan::Scan(kFacts),
        Expr::Lt(Expr::Col("qty"), Expr::Lit(Value::Int64(30))));
    EXPECT_EQ(Rows(Run(Plan::OrderBy(filtered, keys), w)), want);

    // A map function receives the filtered rows as one batch, in order.
    std::vector<std::string> seen;
    PlanPtr mapped = Plan::Map(filtered, "capture",
                               [&](RecordBatch in) -> Result<RecordBatch> {
                                 seen = Rows(in);
                                 return in.Slice(0, 7);
                               });
    RecordBatch out = Run(mapped, w);
    EXPECT_EQ(seen, Rows(kept));
    EXPECT_EQ(Rows(out), Rows(kept.Slice(0, 7)));
  }
}

TEST_F(ChunkedFlowTest, GlobalAggregateOverAMultiStreamScanCopiesNoScanColumn) {
  // The scan's chunks are views of decoded blocks; a global aggregate
  // folds them where they are and its one-row result needs no concat.
  const BufferPool::Stats before = BufferPool::Default().snapshot();
  obs::QueryProfile profile;
  RecordBatch got = Run(Plan::Aggregate(Plan::Scan(kFacts), {},
                                        {{AggOp::kSum, "price", "s"},
                                         {AggOp::kCount, "", "n"}}),
                        Options(8), &profile);
  const BufferPool::Stats after = BufferPool::Default().snapshot();
  ASSERT_EQ(got.num_rows(), 1u);
  EXPECT_EQ(got.GetValue(0, 1), Value::Int64(static_cast<int64_t>(source_rows_)));
  EXPECT_GT(Num(profile.root(), "read_streams"), 1u);
  EXPECT_EQ(after.bytes_copied - before.bytes_copied, 0u);
  std::vector<const obs::Span*> mats;
  CollectSpans(profile.root(), "materialize", &mats);
  ASSERT_EQ(mats.size(), 1u);
  EXPECT_EQ(Num(mats[0], "pieces"), 1u);
  EXPECT_EQ(Num(mats[0], "bytes_copied"), 0u);
}

TEST_F(ChunkedFlowTest, FullScanCopiesEachValueOnce) {
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    const BufferPool::Stats before = BufferPool::Default().snapshot();
    RecordBatch got = Run(Plan::Scan(kFacts), w);
    const BufferPool::Stats after = BufferPool::Default().snapshot();
    ASSERT_EQ(got.num_rows(), source_rows_);
    // One copy into the result: at most its footprint (a shared
    // dictionary is referenced, not copied), and more than half of it.
    const uint64_t copied = after.bytes_copied - before.bytes_copied;
    EXPECT_LE(copied, got.MemoryBytes());
    EXPECT_GT(copied, got.MemoryBytes() / 2);
  }
}

TEST_F(ChunkedFlowTest, TpcdsSqlMatchesThePlansAtEveryWorkerCount) {
  TpcdsScale scale;
  scale.days = 6;
  scale.rows_per_day = 3000;
  scale.num_customers = 5000;  // one 8,192-row group: two slices
  BlmtService blmt(&lake_);
  ASSERT_TRUE(store_->CreateBucket("tpcds").ok());
  auto tables = SetupTpcds(&lake_, &biglake_, &blmt, store_, "tpcds", "ss/",
                           "ds", scale, /*cached=*/true, "us.lake-conn");
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  // The SQL texts of the TPC-DS-lite power run, in TpcdsQueries order.
  const std::string mid = std::to_string(scale.days / 2);
  const std::vector<std::string> sql = {
      "SELECT SUM(ss_sales_price) AS revenue, COUNT(*) AS sales "
      "FROM ds.store_sales WHERE ss_sold_date = " + mid,
      "SELECT ss_store_id, SUM(ss_net_profit) AS profit FROM ds.store_sales "
      "WHERE ss_sold_date >= " + std::to_string(scale.days / 2 - 3) +
          " AND ss_sold_date <= " + std::to_string(scale.days / 2 + 3) +
          " GROUP BY ss_store_id",
      "SELECT i_brand, SUM(ss_sales_price) AS revenue FROM ds.item "
      "JOIN ds.store_sales ON i_item_id = ss_item_id "
      "WHERE i_category = 'electronics' GROUP BY i_brand",
      "SELECT SUM(ss_net_profit) AS profit, COUNT(*) AS sales "
      "FROM ds.date_dim JOIN ds.store_sales ON d_date_key = ss_sold_date "
      "WHERE d_is_holiday = TRUE",
      "SELECT c_region, SUM(ss_sales_price) AS revenue FROM ds.store_sales "
      "JOIN ds.customer ON ss_customer_id = c_customer_id GROUP BY c_region",
      "SELECT s_state, SUM(ss_sales_price) AS revenue FROM ds.date_dim "
      "JOIN ds.store_sales ON d_date_key = ss_sold_date "
      "JOIN ds.store ON ss_store_id = s_store_id "
      "WHERE d_is_holiday = TRUE GROUP BY s_state",
      "SELECT ss_item_id, SUM(ss_quantity) AS units FROM ds.store_sales "
      "WHERE ss_sold_date >= " + std::to_string(scale.days - 2) +
          " GROUP BY ss_item_id ORDER BY units DESC LIMIT 10",
      "SELECT SUM(ss_net_profit) AS profit FROM ds.store_sales"};
  const std::vector<NamedQuery> plans = TpcdsQueries(*tables, scale);
  ASSERT_EQ(plans.size(), sql.size());
  // Sorted rows, doubles to 9 significant digits: the plan-built query may
  // sum in another order.
  auto rounded = [](const RecordBatch& b) {
    std::vector<std::string> rows;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < b.num_columns(); ++c) {
        const Value v = b.GetValue(r, c);
        char buf[64];
        if (v.is_double()) {
          std::snprintf(buf, sizeof(buf), "%.9g|", v.double_value());
          row += buf;
        } else {
          row += v.ToString() + "|";
        }
      }
      rows.push_back(std::move(row));
    }
    return Sorted(std::move(rows));
  };
  for (size_t q = 0; q < sql.size(); ++q) {
    SCOPED_TRACE(plans[q].name);
    auto plan = ParseSql(sql[q]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const RecordBatch want = Run(plans[q].plan, 1);
    ASSERT_GT(want.num_rows(), 0u);
    // A fixed stream count makes every summation order, and with it every
    // result byte, independent of the worker count.
    std::string first;
    for (uint32_t w : kWorkerCounts) {
      EngineOptions o = Options(w);
      o.max_read_streams = 4;
      const RecordBatch got = Run(*plan, o);
      EXPECT_EQ(rounded(got), rounded(want)) << w << " workers";
      if (first.empty()) first = SerializeBatch(got);
      EXPECT_EQ(SerializeBatch(got), first) << w << " workers";
    }
  }

  // The customer scan keeps c_region's dictionary: its two slices share
  // one dictionary block, and the values are those of the table.
  ReadSessionOptions one_slice;
  one_slice.columns = {"c_region"};
  one_slice.response_batch_rows = 1u << 20;
  auto session = api_.CreateReadSession("u", tables->customer, one_slice);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<Value> want;
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto b = api_.ReadStreamBatch(*session, s);
    ASSERT_TRUE(b.ok());
    for (size_t r = 0; r < b->num_rows(); ++r) want.push_back(b->GetValue(r, 0));
  }
  ASSERT_EQ(want.size(), 5000u);
  auto plan = ParseSql("SELECT c_region FROM ds.customer");
  ASSERT_TRUE(plan.ok());
  for (uint32_t w : kWorkerCounts) {
    SCOPED_TRACE(w);
    RecordBatch got = Run(*plan, w);
    ASSERT_EQ(got.num_rows(), want.size());
    EXPECT_EQ(got.column(0).encoding(), Encoding::kDictionary);
    for (size_t r = 0; r < got.num_rows(); ++r) {
      ASSERT_EQ(got.GetValue(r, 0), want[r]) << r;
    }
  }
}

}  // namespace
}  // namespace biglake
