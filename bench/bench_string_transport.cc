// Varbinary string columns + BatchHandle transport vs the legacy layout
// (real CPU).
//
// A string-heavy table (one ~160-byte payload string per row plus a
// dictionary-friendly tag) is scanned warm through two experiments:
//
// 1. Warm selective scan (engine level). A 1%-selective filter+project
//    through the kernels. Acceptance: on the warm scan the
//    kernel/varbinary path must copy >= 10x fewer bytes than the eager
//    legacy-layout model (which materialized every decoded block's string
//    payload it touched — measured as the pinned-bytes delta when the cache
//    warms, the same model bench_expr_kernels uses).
//
// 2. In-process transport (Read API level). The same streams consumed as
//    local BatchHandles (Open = refcount bump) vs the legacy wire model:
//    ReadRows -> DeserializeBatch -> eager per-cell std::string
//    materialization of every string column (what the pre-varbinary
//    transport did on every batch handoff). The handle path must perform
//    ZERO SerializeBatch/DeserializeBatch calls (checked via the
//    biglake_ipc_* counters) and deliver byte-identical rows (the opened
//    handle re-serializes to exactly the wire bytes).
//
// One JSON line per (experiment, mode) for scripts/run_benches.sh.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "columnar/buffer.h"
#include "columnar/ipc.h"
#include "engine/engine.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace biglake {
namespace bench {
namespace {

constexpr int kFiles = 16;
constexpr size_t kRowsPerFile = 8000;
constexpr int kReps = 5;

SchemaPtr StrSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"pct", DataType::kInt64, false},
                     {"payload", DataType::kString, false},
                     {"tag", DataType::kString, false}});
}

void BuildLake(BenchLakehouse* env) {
  Random rng(11);
  for (int f = 0; f < kFiles; ++f) {
    BatchBuilder b(StrSchema());
    for (size_t r = 0; r < kRowsPerFile; ++r) {
      std::string payload(130 + rng.Uniform(64), '\0');
      for (auto& ch : payload) {
        ch = static_cast<char>('a' + rng.Uniform(26));
      }
      (void)b.AppendRow(
          {Value::Int64(f * 100000 + static_cast<int64_t>(r)),
           Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
           Value::String(std::move(payload)),
           Value::String("cat" + std::to_string(rng.Uniform(8)))});
    }
    auto bytes = WriteParquetFile(b.Finish());
    PutOptions po;
    po.content_type = "application/x-parquet-lite";
    (void)env->store->Put(env->Caller(), "lake",
                          "strs/date=" + std::to_string(f) + "/p.plk",
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
    def.name = "strs";
    def.kind = TableKind::kBigLake;
    def.schema = StrSchema();
    def.connection = "us.lake-conn";
    def.location = env.gcp;
    def.bucket = "lake";
    def.prefix = "strs/";
    def.partition_columns = {"date"};
    def.metadata_cache_enabled = true;
    def.iam.Grant("*", Role::kReader);
    if (!biglake.CreateBigLakeTable(def).ok()) {
      std::printf("table creation failed\n");
      std::exit(1);
    }
  }
};

EngineOptions Opts() {
  EngineOptions opts;
  opts.num_workers = 1;  // isolate per-row cost, not parallelism
  opts.max_read_streams = 1;
  opts.enable_block_cache = true;
  opts.block_cache_capacity_bytes = 512ull << 20;
  return opts;
}

// `pct * 2 < 2K` selects exactly K% of rows; projecting `payload` makes the
// output (and the legacy model's eager materialization) string-dominated.
PlanPtr SweepQuery(int64_t pct) {
  auto pred =
      Expr::Lt(Expr::Arith(ArithOp::kMul, Expr::Col("pct"),
                           Expr::Lit(Value::Int64(2))),
               Expr::Lit(Value::Int64(2 * pct)));
  return Plan::Scan("ds.strs", {"id", "payload"}, pred);
}

uint64_t TimedRun(QueryEngine* engine, const PlanPtr& plan, uint64_t* rows,
                  uint64_t* bytes_copied) {
  uint64_t best = ~0ull;
  for (int rep = 0; rep < kReps; ++rep) {
    const BufferPool::Stats before = BufferPool::Default().snapshot();
    auto t0 = std::chrono::steady_clock::now();
    auto result = engine->Execute("u", plan);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::printf("query failed: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    *bytes_copied =
        BufferPool::Default().snapshot().bytes_copied - before.bytes_copied;
    *rows = result->batch.num_rows();
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
    if (us < best) best = us;
  }
  return best;
}

void EmitJson(const char* experiment, const char* mode, uint64_t wall_us,
              uint64_t rows, std::optional<double> speedup,
              uint64_t bytes_copied) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("string_transport");
  w.Key("experiment");
  w.String(experiment);
  w.Key("mode");
  w.String(mode);
  w.Key("wall_us");
  w.Uint(wall_us);
  w.Key("rows");
  w.Uint(rows);
  if (speedup.has_value()) {
    w.Key("speedup_vs_legacy");
    w.Double(*speedup);
  }
  w.Key("bytes_copied");
  w.Uint(bytes_copied);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

// ---- Experiment 1: warm selective scan ------------------------------------

bool RunSelectiveScan(World* w) {
  std::printf("\n-- warm 1%% selective scan: varbinary kernels --\n");
  QueryEngine engine(&w->env.lake, &w->api, Opts());

  // Warm the cache; the pinned delta is the decoded footprint every sweep
  // query touches — what the legacy vector<string> layout materialized (one
  // heap string per cell) out of the cache on every warm scan.
  uint64_t eager_bytes = 0;
  {
    uint64_t rows = 0, copied = 0;
    uint64_t pinned0 = w->env.lake.block_cache().Stats().bytes_pinned;
    (void)TimedRun(&engine, SweepQuery(50), &rows, &copied);
    eager_bytes = w->env.lake.block_cache().Stats().bytes_pinned - pinned0;
  }

  uint64_t rows = 0, copied = 0;
  uint64_t us = TimedRun(&engine, SweepQuery(1), &rows, &copied);
  double reduction = copied > 0 ? static_cast<double>(eager_bytes) /
                                      static_cast<double>(copied)
                                : 0.0;
  std::printf("kernels %llu us, %llu rows; copied %s vs %s eager model "
              "(%.1fx fewer)\n",
              static_cast<unsigned long long>(us),
              static_cast<unsigned long long>(rows), Mb(copied).c_str(),
              Mb(eager_bytes).c_str(), reduction);
  EmitJson("warm_selective_scan", "kernels", us, rows, std::nullopt, copied);

  if (copied * 10 > eager_bytes) {
    std::printf("FAIL: warm selective string scan must copy >= 10x fewer "
                "bytes than the eager legacy-layout model (got %.1fx)\n",
                reduction);
    return false;
  }
  return true;
}

// ---- Experiment 2: in-process transport -----------------------------------

struct IpcCounters {
  uint64_t serialize, deserialize, bypass;
};

IpcCounters ReadIpcCounters() {
  auto& reg = obs::MetricsRegistry::Default();
  return {reg.GetCounter(METRIC_IPC_SERIALIZE)->Value(),
          reg.GetCounter(METRIC_IPC_DESERIALIZE)->Value(),
          reg.GetCounter(METRIC_IPC_LOCAL_BYPASS)->Value()};
}

// What the pre-varbinary transport did with every decoded batch: expand
// encodings and land each string cell in its own heap std::string.
RecordBatch EagerMaterialize(const RecordBatch& batch) {
  std::vector<Column> cols;
  cols.reserve(batch.num_columns());
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    const Column& col = batch.column(i);
    if (col.type() == DataType::kString || col.type() == DataType::kBytes) {
      Column plain = col.Decode();
      std::vector<std::string> values = plain.string_data().ToVector();
      cols.push_back(col.type() == DataType::kBytes
                         ? Column::MakeBytes(std::move(values))
                         : Column::MakeString(std::move(values)));
    } else {
      cols.push_back(col);
    }
  }
  return RecordBatch(batch.schema(), std::move(cols));
}

bool RunTransport(World* w) {
  std::printf("\n-- in-process transport: BatchHandle vs wire+materialize "
              "--\n");
  ReadSessionOptions opts;
  opts.columns = {"id", "payload", "tag"};
  opts.predicate =
      Expr::Lt(Expr::Arith(ArithOp::kMul, Expr::Col("pct"),
                           Expr::Lit(Value::Int64(2))),
               Expr::Lit(Value::Int64(80)));  // 40% of rows
  opts.max_streams = 2;
  opts.use_block_cache = true;
  auto session = w->api.CreateReadSession("u", "ds.strs", opts);
  if (!session.ok()) {
    std::printf("session failed: %s\n", session.status().ToString().c_str());
    return false;
  }

  // Row-identity check (and cache warm-up): every opened local handle
  // re-serializes to exactly the wire-shim bytes.
  for (size_t s = 0; s < session->streams.size(); ++s) {
    auto handles = w->api.ReadStreamHandles(*session, s);
    auto wire = w->api.ReadRows(*session, s);
    if (!handles.ok() || !wire.ok() || handles->size() != wire->size()) {
      std::printf("FAIL: stream %zu read mismatch\n", s);
      return false;
    }
    for (size_t i = 0; i < handles->size(); ++i) {
      auto opened = (*handles)[i].Open();
      if (!opened.ok() || SerializeBatch(*opened) != (*wire)[i]) {
        std::printf("FAIL: handle/wire rows differ (stream %zu batch %zu)\n",
                    s, i);
        return false;
      }
    }
  }

  uint64_t handle_us = ~0ull, legacy_us = ~0ull;
  uint64_t handle_rows = 0, legacy_rows = 0;
  uint64_t handle_copied = 0, legacy_copied = 0;
  IpcCounters ipc_before{}, ipc_after{};

  for (int rep = 0; rep < kReps; ++rep) {
    // Handle path: Open() is a refcount bump; no codec anywhere.
    {
      const BufferPool::Stats before = BufferPool::Default().snapshot();
      ipc_before = ReadIpcCounters();
      auto t0 = std::chrono::steady_clock::now();
      std::vector<RecordBatch> parts;
      for (size_t s = 0; s < session->streams.size(); ++s) {
        auto handles = w->api.ReadStreamHandles(*session, s);
        if (!handles.ok()) return false;
        for (BatchHandle& h : *handles) {
          auto opened = h.Open();
          if (!opened.ok()) return false;
          parts.push_back(*std::move(opened));
        }
      }
      auto out = RecordBatch::Concat(parts);
      auto t1 = std::chrono::steady_clock::now();
      ipc_after = ReadIpcCounters();
      if (!out.ok()) return false;
      handle_rows = out->num_rows();
      handle_copied =
          BufferPool::Default().snapshot().bytes_copied - before.bytes_copied;
      uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count());
      if (us < handle_us) handle_us = us;
    }
    // Legacy wire model: serialize -> checksum+decode -> one heap string per
    // cell, per batch, before the consumer sees any rows.
    {
      const BufferPool::Stats before = BufferPool::Default().snapshot();
      auto t0 = std::chrono::steady_clock::now();
      std::vector<RecordBatch> parts;
      for (size_t s = 0; s < session->streams.size(); ++s) {
        auto wire = w->api.ReadRows(*session, s);
        if (!wire.ok()) return false;
        for (const std::string& bytes : *wire) {
          auto b = DeserializeBatch(bytes);
          if (!b.ok()) return false;
          parts.push_back(EagerMaterialize(*b));
        }
      }
      auto out = RecordBatch::Concat(parts);
      auto t1 = std::chrono::steady_clock::now();
      if (!out.ok()) return false;
      legacy_rows = out->num_rows();
      legacy_copied =
          BufferPool::Default().snapshot().bytes_copied - before.bytes_copied;
      uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count());
      if (us < legacy_us) legacy_us = us;
    }
  }

  double speedup =
      handle_us == 0 ? 0.0 : static_cast<double>(legacy_us) / handle_us;
  std::printf("wire+materialize %llu us, handles %llu us (%s); rows %llu; "
              "copied %s vs %s\n",
              static_cast<unsigned long long>(legacy_us),
              static_cast<unsigned long long>(handle_us),
              Factor(speedup).c_str(),
              static_cast<unsigned long long>(handle_rows),
              Mb(handle_copied).c_str(), Mb(legacy_copied).c_str());
  EmitJson("transport", "wire_materialize", legacy_us, legacy_rows, 1.0,
           legacy_copied);
  EmitJson("transport", "handles", handle_us, handle_rows, speedup,
           handle_copied);

  bool ok = true;
  if (handle_rows == 0 || handle_rows != legacy_rows) {
    std::printf("FAIL: row mismatch: handles=%llu wire=%llu\n",
                static_cast<unsigned long long>(handle_rows),
                static_cast<unsigned long long>(legacy_rows));
    ok = false;
  }
  // The acceptance invariant: a full in-process pass never touches the
  // codec — every response batch crossed as a local reference.
  if (ipc_after.serialize != ipc_before.serialize ||
      ipc_after.deserialize != ipc_before.deserialize) {
    std::printf("FAIL: handle path touched the codec (%llu serialize, %llu "
                "deserialize calls)\n",
                static_cast<unsigned long long>(ipc_after.serialize -
                                                ipc_before.serialize),
                static_cast<unsigned long long>(ipc_after.deserialize -
                                                ipc_before.deserialize));
    ok = false;
  }
  if (ipc_after.bypass <= ipc_before.bypass) {
    std::printf("FAIL: handle path recorded no local bypasses\n");
    ok = false;
  }
  return ok;
}

int Run() {
  PrintHeader("Varbinary strings + zero-copy batch transport");
  std::printf("table: %d files x %zu rows, ~160 B payload string per row\n",
              kFiles, kRowsPerFile);

  World w;
  bool ok = RunSelectiveScan(&w);
  ok = RunTransport(&w) && ok;
  if (!ok) return 1;
  std::printf("\nOK: warm selective scan copies >= 10x fewer bytes than the "
              "legacy layout; in-process handles bypass the codec with "
              "byte-identical rows\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace biglake

int main() { return biglake::bench::Run(); }
