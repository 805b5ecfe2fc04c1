// Experiment T-VEC (Sec 3.4 prose): the row-oriented Parquet reader
// prototype vs the vectorized reader that emits encoded columnar batches.
//
// Paper claims: the vectorized path doubled read throughput and improved
// server-side CPU efficiency by an order of magnitude. This is the one
// genuinely CPU-bound experiment, so it uses google-benchmark wall time
// over in-memory Parquet-lite files (no simulated I/O in the loop).

#include <benchmark/benchmark.h>

#include "columnar/expr.h"
#include "columnar/kernels.h"
#include "common/random.h"
#include "format/parquet_lite.h"

namespace biglake {
namespace {

std::string BuildFile(size_t rows) {
  static const char* kRegions[] = {"east", "west", "north", "south",
                                   "centre", "apac", "emea", "latam"};
  Random rng(7);
  auto schema = MakeSchema({{"id", DataType::kInt64, false},
                            {"part", DataType::kInt64, false},
                            {"region", DataType::kString, false},
                            {"amount", DataType::kDouble, false}});
  BatchBuilder b(schema);
  for (size_t r = 0; r < rows; ++r) {
    (void)b.AppendRow({Value::Int64(static_cast<int64_t>(r)),
                       Value::Int64(static_cast<int64_t>(r / 512)),
                       Value::String(kRegions[rng.Uniform(8)]),
                       Value::Double(rng.NextDouble() * 100)});
  }
  return WriteParquetFile(b.Finish()).value();
}

const std::string& TestFile() {
  static const std::string file = BuildFile(64 * 1024);
  return file;
}

void BM_RowOrientedRead(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  size_t rows = 0;
  for (auto _ : state) {
    RowOrientedReader reader(&source, meta);
    auto batch = reader.ReadAllTranscoded();
    rows = batch->num_rows();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}
BENCHMARK(BM_RowOrientedRead)->Unit(benchmark::kMillisecond);

void BM_VectorizedRead(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  size_t rows = 0;
  for (auto _ : state) {
    VectorizedReader reader(&source, meta);
    rows = 0;
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      auto batch = reader.ReadRowGroup(g);
      rows += batch->num_rows();
      benchmark::DoNotOptimize(batch);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}
BENCHMARK(BM_VectorizedRead)->Unit(benchmark::kMillisecond);

void BM_VectorizedReadProjected(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  for (auto _ : state) {
    VectorizedReader reader(&source, meta);
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      auto batch = reader.ReadRowGroup(g, {"id", "amount"});
      benchmark::DoNotOptimize(batch);
    }
  }
}
BENCHMARK(BM_VectorizedReadProjected)->Unit(benchmark::kMillisecond);

/// Predicate evaluation on decoded (plain) strings vs directly on the
/// dictionary-encoded column (the Superluminal trick).
void BM_FilterDecodedStrings(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  VectorizedReader reader(&source, meta);
  auto batch = reader.ReadRowGroup(0, {"region"}).value();
  // Force plain encoding.
  RecordBatch plain(batch.schema(), {batch.column(0).Decode()});
  auto pred = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west")));
  for (auto _ : state) {
    auto mask = kernels::EvaluatePredicate(*pred, plain);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_FilterDecodedStrings)->Unit(benchmark::kMicrosecond);

void BM_FilterDictionaryDirect(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  VectorizedReader reader(&source, meta);
  auto batch = reader.ReadRowGroup(0, {"region"}).value();  // dict-encoded
  auto pred = Expr::Eq(Expr::Col("region"), Expr::Lit(Value::String("west")));
  for (auto _ : state) {
    auto mask = kernels::EvaluatePredicate(*pred, batch);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_FilterDictionaryDirect)->Unit(benchmark::kMicrosecond);

/// RLE comparison kernel vs decoded ints.
void BM_FilterDecodedInts(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  VectorizedReader reader(&source, meta);
  auto batch = reader.ReadRowGroup(0, {"part"}).value();
  RecordBatch plain(batch.schema(), {batch.column(0).Decode()});
  auto pred = Expr::Eq(Expr::Col("part"), Expr::Lit(Value::Int64(3)));
  for (auto _ : state) {
    auto mask = kernels::EvaluatePredicate(*pred, plain);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_FilterDecodedInts)->Unit(benchmark::kMicrosecond);

void BM_FilterRleDirect(benchmark::State& state) {
  StringSource source(TestFile());
  auto meta = ReadParquetFooter(source).value();
  VectorizedReader reader(&source, meta);
  auto batch = reader.ReadRowGroup(0, {"part"}).value();  // RLE-encoded
  auto pred = Expr::Eq(Expr::Col("part"), Expr::Lit(Value::Int64(3)));
  for (auto _ : state) {
    auto mask = kernels::EvaluatePredicate(*pred, batch);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_FilterRleDirect)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace biglake

BENCHMARK_MAIN();
