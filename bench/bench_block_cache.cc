// Columnar block cache + prefetching read pipeline (simulated latency).
//
// Three experiments over the same multi-file BigLake table:
//
//   1. Cold vs warm: the first scan decodes every block from object storage;
//      the second is served from the cache. Warm must be at least 3x
//      cheaper in simulated scan latency (I/O charges vanish; only the
//      post-decode processing remains).
//   2. Readahead sweep on *cold* scans: with several files per stream, a
//      readahead window overlaps fetch+decode of the next files with
//      processing of the current one; depth >= 2 must strictly beat the
//      synchronous depth-0 pipeline on the analytic wall estimate while
//      burning identical resource time.
//   3. Zero-copy warm selective scan: a ~1.6% selectivity filter over the
//      warm cache. Before shared buffers, every warm hit deep-copied the
//      whole decoded block out of the cache (bytes copied per scan >= the
//      decoded bytes pinned); now operators consume cached blocks by
//      reference and copy only surviving rows, so the BufferPool
//      bytes-copied delta must be >= 10x smaller than that eager model,
//      with rows identical to the same scan with the block cache off.
//
// One JSON line per configuration (aggregated into BENCH_PR9.json by
// scripts/run_benches.sh).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/block_cache.h"
#include "columnar/buffer.h"
#include "core/read_api.h"
#include "engine/engine.h"
#include "obs/profile.h"

namespace biglake {
namespace bench {
namespace {

constexpr int kFiles = 24;
constexpr size_t kRowsPerFile = 4000;
constexpr uint32_t kStreams = 4;  // 6 files per stream: readahead has room

SchemaPtr ScanSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"grp", DataType::kInt64, false},
                     {"a", DataType::kDouble, false},
                     {"b", DataType::kDouble, false},
                     {"tag", DataType::kString, true}});
}

void BuildLake(BenchLakehouse* env) {
  Random rng(42);
  for (int f = 0; f < kFiles; ++f) {
    BatchBuilder b(ScanSchema());
    for (size_t r = 0; r < kRowsPerFile; ++r) {
      (void)b.AppendRow(
          {Value::Int64(f * 100000 + static_cast<int64_t>(r)),
           Value::Int64(static_cast<int64_t>(rng.Uniform(64))),
           Value::Double(rng.NextDouble() * 1000.0),
           Value::Double(rng.NextDouble()),
           Value::String("tag" + std::to_string(rng.Uniform(1000)))});
    }
    auto bytes = WriteParquetFile(b.Finish());
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    (void)env->store->Put(env->Caller(), "lake",
                          "cache/date=" + std::to_string(f) + "/p.plk",
                          std::move(bytes).value(), po);
  }
}

struct World {
  BenchLakehouse env;
  BigLakeTableService biglake{&env.lake};
  StorageReadApi api{&env.lake};

  World() {
    BuildLake(&env);
    TableDef def;
    def.dataset = "ds";
    def.name = "cache";
    def.kind = TableKind::kBigLake;
    def.schema = ScanSchema();
    def.connection = "us.lake-conn";
    def.location = env.gcp;
    def.bucket = "lake";
    def.prefix = "cache/";
    def.partition_columns = {"date"};
    def.metadata_cache_enabled = true;
    def.iam.Grant("*", Role::kReader);
    if (!biglake.CreateBigLakeTable(def).ok()) {
      std::printf("table creation failed\n");
      std::exit(1);
    }
  }
};

EngineOptions Cached(uint32_t depth) {
  EngineOptions opts;
  opts.num_workers = 4;
  opts.max_read_streams = kStreams;
  opts.enable_block_cache = true;
  opts.block_cache_capacity_bytes = 256ull << 20;
  opts.readahead_depth = depth;
  return opts;
}

SimMicros ScanWall(World* w, QueryEngine* engine) {
  auto result = engine->Execute("u", Plan::Scan("ds.cache"));
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  if (result->batch.num_rows() != kFiles * kRowsPerFile) {
    std::printf("wrong row count: %llu\n",
                static_cast<unsigned long long>(result->batch.num_rows()));
    std::exit(1);
  }
  return result->stats.wall_micros;
}

void EmitJson(const char* phase, const char* config, SimMicros wall,
              double factor, const char* factor_name) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("block_cache");
  w.Key("phase");
  w.String(phase);
  w.Key("config");
  w.String(config);
  w.Key("wall_micros");
  w.Uint(wall);
  w.Key(factor_name);
  w.Double(factor);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

int Run() {
  PrintHeader("Columnar block cache: cold vs warm + readahead sweep");
  std::printf("table: %d files x %zu rows, %u read streams\n\n", kFiles,
              kRowsPerFile, kStreams);

  // ---- 1. Cold vs warm (depth 0, pure caching effect) ----
  World cw;
  QueryEngine engine(&cw.env.lake, &cw.api, Cached(/*depth=*/0));
  SimMicros cold = ScanWall(&cw, &engine);
  SimMicros warm = ScanWall(&cw, &engine);
  cache::BlockCacheStats stats = cw.env.lake.block_cache().Stats();
  double speedup = warm > 0 ? static_cast<double>(cold) / warm : 0.0;

  PrintRow({"scan", "sim latency", "speedup"}, {12, 14, 10});
  PrintRow({"cold", Ms(cold), Factor(1.0)}, {12, 14, 10});
  PrintRow({"warm", Ms(warm), Factor(speedup)}, {12, 14, 10});
  std::printf("cache: %llu entries, %s pinned, %llu hits / %llu misses\n\n",
              static_cast<unsigned long long>(stats.entries),
              Mb(stats.bytes_pinned).c_str(),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  EmitJson("cold_warm", "cold", cold, 1.0, "speedup_vs_cold");
  EmitJson("cold_warm", "warm", warm, speedup, "speedup_vs_cold");

  // ---- 2. Readahead depth sweep on cold scans ----
  PrintRow({"depth", "sim latency", "vs depth 0"}, {12, 14, 10});
  SimMicros depth0 = 0;
  SimMicros depth2 = 0;
  for (uint32_t depth : {0u, 2u, 8u}) {
    World w;  // fresh world: every sweep point scans cold
    QueryEngine e(&w.env.lake, &w.api, Cached(depth));
    SimMicros wall = ScanWall(&w, &e);
    if (depth == 0) depth0 = wall;
    if (depth == 2) depth2 = wall;
    double vs0 = wall > 0 ? static_cast<double>(depth0) / wall : 0.0;
    PrintRow({std::to_string(depth), Ms(wall), Factor(vs0)}, {12, 14, 10});
    EmitJson("readahead", ("depth" + std::to_string(depth)).c_str(), wall,
             vs0, "speedup_vs_depth0");
  }
  std::printf("\n");

  // ---- 3. Zero-copy warm selective scan: bytes copied is O(output) ----
  // The cache in `cw` is still warm from experiment 1. `grp` is uniform in
  // [0, 64), so `grp == 0` keeps ~1/64 of the rows. The eager baseline is
  // what the pre-shared-buffer scan paid on every warm pass: a deep copy of
  // each decoded block at the cache boundary, i.e. at least the decoded
  // bytes resident in the cache.
  PlanPtr selective = Plan::Scan(
      "ds.cache", {"id", "a"},
      Expr::Eq(Expr::Col("grp"), Expr::Lit(Value::Int64(0))));
  // First pass decodes + pins the {id, grp, a}-projection blocks; the pinned
  // delta is exactly the decoded bytes this scan touches — what the eager
  // pre-PR path deep-copied on every warm pass.
  const uint64_t pinned_before = cw.env.lake.block_cache().Stats().bytes_pinned;
  if (auto warmup = engine.Execute("u", selective); !warmup.ok()) {
    std::printf("selective warmup failed: %s\n",
                warmup.status().ToString().c_str());
    return 1;
  }
  const uint64_t eager =
      cw.env.lake.block_cache().Stats().bytes_pinned - pinned_before;
  const BufferPool::Stats buf_before = BufferPool::Default().snapshot();
  auto zc = engine.Execute("u", selective);
  const BufferPool::Stats buf_after = BufferPool::Default().snapshot();
  if (!zc.ok()) {
    std::printf("selective query failed: %s\n",
                zc.status().ToString().c_str());
    return 1;
  }
  // Row parity: the same scan with the block cache off (every block
  // decoded fresh from the object store) must produce the same rows in the
  // same order.
  EngineOptions uncached_opts = Cached(/*depth=*/0);
  uncached_opts.enable_block_cache = false;
  QueryEngine uncached_engine(&cw.env.lake, &cw.api, uncached_opts);
  auto ref = uncached_engine.Execute("u", selective);
  if (!ref.ok()) {
    std::printf("uncached selective query failed: %s\n",
                ref.status().ToString().c_str());
    return 1;
  }
  if (zc->batch.num_rows() != ref->batch.num_rows() ||
      zc->batch.num_columns() != ref->batch.num_columns()) {
    std::printf("FAIL: zero-copy scan shape mismatch: %llux%zu vs %llux%zu\n",
                static_cast<unsigned long long>(zc->batch.num_rows()),
                zc->batch.num_columns(),
                static_cast<unsigned long long>(ref->batch.num_rows()),
                ref->batch.num_columns());
    return 1;
  }
  for (uint64_t r = 0; r < zc->batch.num_rows(); ++r) {
    for (size_t c = 0; c < zc->batch.num_columns(); ++c) {
      if (!(zc->batch.GetValue(r, c) == ref->batch.GetValue(r, c))) {
        std::printf("FAIL: row %llu col %zu differs between the cached and "
                    "uncached scans\n",
                    static_cast<unsigned long long>(r), c);
        return 1;
      }
    }
  }
  uint64_t copied = buf_after.bytes_copied - buf_before.bytes_copied;
  double reduction =
      copied > 0 ? static_cast<double>(eager) / static_cast<double>(copied)
                 : 0.0;
  std::printf("selective warm scan (grp == 0, ~1.6%%): %llu rows\n",
              static_cast<unsigned long long>(zc->batch.num_rows()));
  PrintRow({"model", "bytes copied", "reduction"}, {16, 14, 10});
  PrintRow({"eager (pre-PR)", Mb(eager), Factor(1.0)}, {16, 14, 10});
  PrintRow({"shared buffers", Mb(copied), Factor(reduction)}, {16, 14, 10});
  std::printf("\n");
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String("block_cache");
    w.Key("phase");
    w.String("zero_copy");
    w.Key("config");
    w.String("warm_selective_grp0");
    w.Key("rows");
    w.Uint(zc->batch.num_rows());
    w.Key("bytes_copied");
    w.Uint(copied);
    w.Key("bytes_copied_eager_model");
    w.Uint(eager);
    w.Key("copy_reduction_vs_eager");
    w.Double(reduction);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }

  if (warm * 3 > cold) {
    std::printf("FAIL: warm scan must be >= 3x cheaper than cold (%.2fx)\n",
                speedup);
    return 1;
  }
  if (depth2 >= depth0) {
    std::printf("FAIL: readahead depth 2 must strictly beat depth 0 "
                "(%llu >= %llu)\n",
                static_cast<unsigned long long>(depth2),
                static_cast<unsigned long long>(depth0));
    return 1;
  }
  if (copied * 10 > eager) {
    std::printf("FAIL: warm selective scan must copy >= 10x fewer bytes than "
                "the eager model (%llu copied vs %llu eager, %.1fx)\n",
                static_cast<unsigned long long>(copied),
                static_cast<unsigned long long>(eager), reduction);
    return 1;
  }
  std::printf("OK: warm %.2fx cheaper than cold; depth 2 beats depth 0 "
              "(%.2fx); warm selective scan copies %.1fx fewer bytes than "
              "the eager model\n",
              speedup, static_cast<double>(depth0) / depth2, reduction);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace biglake

int main() { return biglake::bench::Run(); }
