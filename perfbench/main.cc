// perfbench: the repository benchmark.
//
//   perfbench --workload <tpcds_sql|scan_warm|lakehouse_rw|external_engines>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One client thread runs the workload in a closed loop (the next op is sent
// when the previous one returned) against engines with one worker per
// hardware thread and no readahead. Every op's result is checked; the run
// exits non-zero if any op failed or returned a wrong result.
//
// --trace 0 measures the end-to-end metrics over the whole timed phase.
// --trace 1 alternates untraced and traced passes (a traced pass collects a
// QueryProfile for every query), reports the per-layer metrics from the
// traced passes plus direct probes, and the tracing overhead between the two
// kinds of pass. Both print one human-readable line per metric (name, value, unit,
// clock) and end with one JSON line: {correct, attempted, failed, metrics}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && args->seconds > 0 && argc % 2 == 1;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "tpcds_sql") return MakeTpcdsSql();
  if (name == "scan_warm") return MakeScanWarm();
  if (name == "lakehouse_rw") return MakeLakehouseRw();
  if (name == "external_engines") return MakeExternalEngines();
  return nullptr;
}

// Set-up runs kSetups times, each from scratch with the previous instance
// destroyed first; the last instance is kept. setup_s is the median over
// these and over the rebuilds of a workload that rebuilds before each pass.
constexpr int kSetups = 5;

// Runs whole passes until their wall time reaches `seconds`. With `trace`
// set, the passes alternate untraced and traced, so a change of host speed
// during the run reaches both kinds alike; the traced passes' samples go to
// `traced` and their counter growth to `delta`. The host's speed is measured
// before every pass, outside the pass's timings, and the pass's times are
// scaled by it.
void TimedPhase(Workload* wl, double seconds, bool trace, RunStats* plain,
                RunStats* traced, CounterDelta* delta,
                std::vector<double>* setup_s,
                std::vector<double>* calibration_ms) {
  double wall_ms = 0;
  for (int pass = 0; wall_ms < seconds * 1e3; ++pass) {
    const bool traced_pass = trace && pass % 2 == 1;
    RunStats* stats = traced_pass ? traced : plain;
    const HostSpeed host = HostSpeed::Measure();
    calibration_ms->push_back(host.MeanMs());
    auto t0 = Clock::now();
    Status st = wl->Reset();
    const double reset_s = MsSince(t0) / 1e3;
    if (!st.ok()) {
      ++stats->attempted;
      stats->Fail("reset: " + st.ToString());
      return;
    }
    CounterSnapshot before;
    if (traced_pass) before = CounterSnapshot::Take(wl->env());
    const RunStats::Mark mark = stats->Here();
    auto tp = Clock::now();
    wl->Pass(stats, traced_pass);
    const double measured_wall_ms = MsSince(tp);
    const double speed = host.Speed();
    stats->ScaleSince(mark, speed);
    if (wl->RebuildsEachPass()) setup_s->push_back(reset_s * speed);
    wall_ms += measured_wall_ms;
    stats->wall_ms += measured_wall_ms * speed;
    stats->pass_wall_ms.push_back(measured_wall_ms * speed);
    stats->pass_ms.push_back(stats->op_ms_total - mark.op_ms);
    stats->pass_query_p50_ms.push_back(Median(std::vector<double>(
        stats->query_ms.begin() + static_cast<std::ptrdiff_t>(mark.queries),
        stats->query_ms.end())));
    if (traced_pass) delta->Add(before, CounterSnapshot::Take(wl->env()));
    if (plain->failures.size() + traced->failures.size() >= 8) return;
  }
}

struct JsonMetric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<JsonMetric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetric(std::vector<JsonMetric>* out, const std::string& name,
                 double value, const std::string& unit,
                 const std::string& clock, const std::string& note = "") {
  std::printf("metric %-18s %16.6f %-6s clock=%s%s%s\n", name.c_str(), value,
              unit.c_str(), clock.c_str(), note.empty() ? "" : "  ",
              note.c_str());
  out->push_back({name, value, unit});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string TailNote(const Tail& t, const std::string& what) {
  return "p" + Num(t.percentile) + " of " + std::to_string(t.samples) + " " +
         what;
}

// Every real-clock time here is at the reference host speed: each set-up
// and each pass was scaled by the host speed measured just before it.
std::vector<JsonMetric> EndToEnd(const RunStats& s,
                                 const std::vector<double>& setup_s,
                                 const std::vector<double>& calibration_ms) {
  for (const auto& [kind, ms] : s.query_ms_by_kind) {
    std::printf("query %-24s median %10.3f ms (as measured) over %zu runs\n",
                kind.c_str(), Median(ms), ms.size());
  }
  std::printf("calibration median %.4f ms (mean over CPUs) before %zu "
              "set-ups and passes; times below are scaled to %.2f ms\n",
              Median(calibration_ms), calibration_ms.size(),
              kReferenceCalibrationMs);
  std::vector<JsonMetric> m;
  PrintMetric(&m, "setup_s", Median(setup_s), "s", "real",
              "median of " + std::to_string(setup_s.size()) + " set-ups");
  // Every pass runs one fixed mix with an even number of queries, so the
  // median of a whole run falls between the slowest run of one query kind
  // and the fastest of the next: two extremes. The median over passes of
  // each pass's median weighs kinds as the mix does and uses typical runs.
  PrintMetric(&m, "query_p50_ms", Median(s.pass_query_p50_ms), "ms", "real",
              "median over " + std::to_string(s.pass_query_p50_ms.size()) +
                  " passes of the pass's median query, " +
                  std::to_string(s.query_ms.size()) + " queries");
  Tail qt = TailOf(s.query_ms);
  PrintMetric(&m, "query_tail_ms", qt.value, "ms", "real",
              TailNote(qt, "queries"));
  PrintMetric(&m, "ops_per_s", Ratio(s.ops, s.wall_ms / 1e3), "1/s", "real",
              std::to_string(s.ops) + " ops in " + Num(s.wall_ms / 1e3) +
                  " scaled s of timed passes");
  PrintMetric(&m, "power_run_ms", Median(s.pass_ms), "ms", "real",
              "median of " + std::to_string(s.pass_ms.size()) + " passes");
  PrintMetric(&m, "commit_p50_ms", Median(s.commit_ms), "ms", "real",
              std::to_string(s.commit_ms.size()) + " commits");
  Tail ct = TailOf(s.commit_ms);
  PrintMetric(&m, "commit_tail_ms", ct.value, "ms", "real",
              TailNote(ct, "commits"));
  PrintMetric(&m, "cpu_ms_per_op", Ratio(s.cpu_ms_total, s.ops), "ms", "real",
              "getrusage user+sys inside ops, over the timed passes");
  PrintMetric(&m, "peak_rss_mb", PeakRssMb(), "MiB", "real");
  PrintMetric(&m, "sim_query_ms",
              s.sim_read_ops > 0 ? s.sim_read_us / s.sim_read_ops / 1e3 : 0.0,
              "ms", "sim",
              "mean over the " + std::to_string(s.sim_read_ops) +
                  " read ops of the first pass");
  return m;
}

double MedianOf(const RunStats& s, const std::string& key) {
  auto it = s.layer_ms.find(key);
  return it == s.layer_ms.end() ? 0.0 : Median(it->second);
}

double CountOf(const RunStats& s, const std::string& key) {
  auto it = s.layer_counts.find(key);
  return it == s.layer_counts.end() ? 0.0 : it->second;
}

// Every per-layer metric a traced run reports, in BENCHMARK.json order. A
// layer a workload does not exercise reads 0.
const char* const kLayerMetrics[][2] = {
    {"engine.sql.parse_us", "us"},
    {"engine.sql.filters_above_join", "count"},
    {"engine.scan_ms", "ms"},
    {"engine.join_ms", "ms"},
    {"engine.aggregate_ms", "ms"},
    {"engine.sort_limit_ms", "ms"},
    {"engine.unattributed_ms", "ms"},
    {"engine.profiled_queries", "count"},
    {"engine.files_scanned", "count"},
    {"engine.files_pruned", "count"},
    {"engine.dpp_scans", "count"},
    {"engine.build_side_swaps", "count"},
    {"engine.scan_speedup_4v1", "x"},
    {"core.read_api.session_us", "us"},
    {"core.read_api.stream_ms_p50", "ms"},
    {"core.read_api.stream_ms_max", "ms"},
    {"core.read_api.rows_returned", "count"},
    {"columnar.bytes_copied_per_row", "B/row"},
    {"columnar.result_rows", "count"},
    {"columnar.concat_ms", "ms"},
    {"columnar.selvec_materializations", "count"},
    {"columnar.expr_rows_evaluated", "count"},
    {"columnar.ipc_serialize", "count"},
    {"columnar.ipc_deserialize", "count"},
    {"columnar.ipc_wire_ms", "ms"},
    {"format.decode_ms", "ms"},
    {"cache.block.hit_ratio", "ratio"},
    {"cache.block.lookups", "count"},
    {"cache.block.evictions", "count"},
    {"cache.block.bytes_pinned", "B"},
    {"cache.result.hit_ratio", "ratio"},
    {"cache.result.lookups", "count"},
    {"cache.result.invalidations", "count"},
    {"meta.txn.commit_ms", "ms"},
    {"meta.txn.log_bytes", "B"},
    {"meta.metacache.hit_ratio", "ratio"},
    {"meta.metacache.lookups", "count"},
    {"objstore.requests.get", "count"},
    {"objstore.requests.put", "count"},
    {"objstore.requests.list", "count"},
    {"objstore.requests.stat", "count"},
    {"objstore.requests.delete", "count"},
    {"objstore.read_bytes", "B"},
    {"objstore.write_bytes_per_user_byte", "ratio"},
    {"objstore.user_bytes", "B"},
    {"core.blmt.insert_ms", "ms"},
    {"core.blmt.dml_ms", "ms"},
    {"core.blmt.live_files", "count"},
    {"common.pool.tasks", "count"},
    {"common.pool.steals", "count"},
    {"common.pool.inline_runs", "count"},
    {"common.pool.queue_depth_peak", "count"},
    {"extengine.collect_ms.governed", "ms"},
    {"extengine.collect_ms.direct", "ms"},
    {"extengine.sessions.create", "count"},
    {"extengine.sessions.refine", "count"},
    {"omni.query_ms", "ms"},
    {"omni.vpn_bytes", "B"},
    {"omni.vpn_transfers", "count"},
    {"omni.egress_bytes_per_query", "B"},
    {"trace.overhead_pct", "%"},
    {"host.calibration_ms", "ms"},
};

// The per-layer metrics of a traced run: the traced half's samples and
// counter growth, the first pass's deterministic counts, and the
// workload's direct probes.
std::vector<JsonMetric> PerLayer(Workload* wl, const RunStats& first,
                                 const RunStats& plain, const RunStats& traced,
                                 const CounterDelta& d,
                                 const std::vector<double>& calibration_ms) {
  LayerReport r;
  const double passes = std::max<double>(1, traced.pass_ms.size());
  const double queries = std::max<double>(1, traced.profiled_queries);

  // engine.sql
  r.Set("engine.sql.parse_us", Median(traced.parse_us), "us", "real",
        "ParseSql per SQL query");
  r.Set("engine.sql.filters_above_join",
        CountOf(first, "engine.sql.filters_above_join"), "count", "sim",
        "WHERE conjuncts left above a join, summed over the pass's SQL");
  // engine (wall side of the profiles)
  const LayerTimes& t = traced.layers;
  r.Set("engine.scan_ms", t.scan_ms / queries, "ms", "real",
        "per profiled query");
  r.Set("engine.join_ms", t.join_ms / queries, "ms", "real",
        "self, per profiled query");
  r.Set("engine.aggregate_ms", t.aggregate_ms / queries, "ms", "real",
        "self, per profiled query");
  r.Set("engine.sort_limit_ms", t.sort_limit_ms / queries, "ms", "real",
        "self, per profiled query");
  r.Set("engine.unattributed_ms", t.Unattributed() / queries, "ms", "real",
        "profile root minus operator time, per profiled query");
  r.Set("engine.profiled_queries", traced.profiled_queries, "count", "real",
        "base of the engine.* per-query times");
  for (const char* key : {"engine.files_scanned", "engine.files_pruned",
                          "engine.dpp_scans", "engine.build_side_swaps"}) {
    r.Set(key, CountOf(first, key), "count", "sim", "per pass");
  }
  // columnar
  double rows = static_cast<double>(traced.result_rows);
  r.Set("columnar.bytes_copied_per_row", Ratio(d.bytes_copied, rows), "B/row",
        "real", "BufferPool bytes copied / result rows");
  r.Set("columnar.result_rows", rows / queries, "count", "sim",
        "result rows per profiled query (base)");
  const char* const kPerPassCounters[][2] = {
      {"columnar.selvec_materializations",
       "biglake_selvec_materializations_total"},
      {"columnar.expr_rows_evaluated", "biglake_expr_rows_evaluated_total"},
      {"columnar.ipc_serialize", "biglake_ipc_serialize_total"},
      {"columnar.ipc_deserialize", "biglake_ipc_deserialize_total"},
  };
  for (const auto& [name, family] : kPerPassCounters) {
    r.Set(name, d.Registry(family) / passes, "count", "sim", "per pass");
  }
  r.Set("columnar.ipc_wire_ms", MedianOf(traced, "columnar.ipc_wire_ms"), "ms",
        "real", "ReadRows wire shim + DeserializeBatch per stream");
  // cache
  double bh = d.block_hits, bm = d.block_misses;
  r.Set("cache.block.hit_ratio", Ratio(bh, bh + bm), "ratio", "sim");
  r.Set("cache.block.lookups", (bh + bm) / passes, "count", "sim",
        "per pass (base)");
  r.Set("cache.block.evictions", d.block_evictions / passes, "count", "sim",
        "per pass");
  r.Set("cache.block.bytes_pinned",
        static_cast<double>(d.last.block.bytes_pinned), "B", "sim",
        "at the end of the run");
  double rh = d.result_hits, rm = d.result_misses;
  r.Set("cache.result.hit_ratio", Ratio(rh, rh + rm), "ratio", "sim");
  r.Set("cache.result.lookups", (rh + rm) / passes, "count", "sim",
        "per pass (base)");
  r.Set("cache.result.invalidations", d.result_invalidations / passes, "count",
        "sim", "per pass");
  // meta
  r.Set("meta.txn.commit_ms", MedianOf(traced, "meta.txn.commit_ms"), "ms",
        "real", "ops committed through the transaction log");
  double mh = d.Registry("biglake_metacache_lookups_total", "\"hit\"");
  double mm = d.Registry("biglake_metacache_lookups_total", "\"miss\"");
  r.Set("meta.metacache.hit_ratio", Ratio(mh, mh + mm), "ratio", "sim");
  r.Set("meta.metacache.lookups", (mh + mm) / passes, "count", "sim",
        "per pass (base)");
  // objstore
  for (const char* op : {"get", "put", "list", "stat", "delete"}) {
    r.Set(std::string("objstore.requests.") + op,
          d.Sim(std::string("objstore.") + op + "_calls") / passes, "count",
          "sim", "per pass");
  }
  r.Set("objstore.read_bytes", d.Sim("objstore.", ".read_bytes") / passes, "B",
        "sim", "per pass");
  double user_bytes = CountOf(traced, "objstore.user_bytes");
  r.Set("objstore.write_bytes_per_user_byte",
        Ratio(d.Sim("objstore.", ".write_bytes"), user_bytes), "ratio", "sim");
  r.Set("objstore.user_bytes", user_bytes / passes, "B", "sim",
        "bytes of rows the client inserted, per pass (base)");
  // core.blmt
  r.Set("core.blmt.insert_ms", MedianOf(traced, "core.blmt.insert_ms"), "ms",
        "real", "single-table INSERT");
  r.Set("core.blmt.dml_ms", MedianOf(traced, "core.blmt.dml_ms"), "ms", "real",
        "UPDATE / DELETE");
  // common.pool
  const char* const kPerQueryPool[][2] = {
      {"common.pool.tasks", "biglake_threadpool_tasks_total"},
      {"common.pool.steals", "biglake_threadpool_steals_total"},
      {"common.pool.inline_runs", "biglake_threadpool_inline_runs_total"},
  };
  for (const auto& [name, family] : kPerQueryPool) {
    r.Set(name, d.Registry(family) / queries, "count", "real",
          "per profiled query");
  }
  auto peak = d.last.registry.find("biglake_threadpool_queue_depth_peak");
  r.Set("common.pool.queue_depth_peak",
        peak == d.last.registry.end() ? 0.0 : peak->second, "count", "real",
        "high-water mark");
  // extengine / omni
  r.Set("extengine.collect_ms.governed",
        MedianOf(traced, "extengine.collect_ms.governed"), "ms", "real",
        "Spark-lite Collect through the Read API connector");
  r.Set("extengine.collect_ms.direct",
        MedianOf(traced, "extengine.collect_ms.direct"), "ms", "real",
        "Spark-lite Collect reading Parquet-lite directly");
  for (const char* kind : {"create", "refine"}) {
    r.Set(std::string("extengine.sessions.") + kind,
          d.Registry("biglake_readapi_sessions_total",
                     std::string("\"") + kind + "\"") /
              passes,
          "count", "sim", "per pass");
  }
  double omni_queries = CountOf(traced, "omni.queries");
  r.Set("omni.query_ms", MedianOf(traced, "omni.query_ms"), "ms", "real");
  r.Set("omni.vpn_bytes", Ratio(d.Sim("vpn.bytes."), omni_queries), "B", "sim",
        "per Omni query");
  r.Set("omni.vpn_transfers",
        Ratio(d.Registry("biglake_vpn_transfers_total"), omni_queries), "count",
        "sim", "per Omni query");
  r.Set("omni.egress_bytes_per_query",
        Ratio(CountOf(traced, "omni.cross_cloud_bytes"), omni_queries), "B",
        "sim", "cross-cloud bytes per Omni query");
  // Tracing overhead: the ops_per_s lost by the traced passes against the
  // untraced ones interleaved with them. Every pass runs the same ops, so
  // the ratio of median pass wall times is the ratio of throughputs.
  double plain_ms = Median(plain.pass_wall_ms);
  double traced_ms = Median(traced.pass_wall_ms);
  r.Set("trace.overhead_pct",
        traced_ms > 0 ? (1.0 - plain_ms / traced_ms) * 100.0 : 0.0, "%",
        "real",
        "untraced vs traced ops_per_s, medians over " +
            std::to_string(plain.pass_wall_ms.size()) + " + " +
            std::to_string(traced.pass_wall_ms.size()) +
            " interleaved passes");

  r.Set("host.calibration_ms", Median(calibration_ms), "ms", "real",
        "median calibration kernel time; the per-layer times are as measured");

  wl->Probes(&r);

  std::vector<JsonMetric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = r.values().find(name);
    if (it == r.values().end()) {
      r.Set(name, 0.0, unit, "-", "not exercised by this workload");
      it = r.values().find(name);
    }
    out.push_back({name, it->second.first, it->second.second});
  }
  return out;
}

int Run(const Args& args) {
  std::vector<double> setup_s, calibration_ms;
  std::unique_ptr<Workload> wl;
  for (int i = 0; i < kSetups; ++i) {
    wl.reset();
    wl = Make(args.workload);
    const HostSpeed host = HostSpeed::Measure();
    calibration_ms.push_back(host.MeanMs());
    auto t0 = Clock::now();
    Status st = wl->Setup(args.seed);
    setup_s.push_back(MsSince(t0) / 1e3 * host.Speed());
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("workload %s seed %llu workers %u\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), Workers());

  RunStats first;
  wl->FirstPass(&first);

  RunStats plain, traced;
  CounterDelta delta;
  TimedPhase(wl.get(), args.seconds, args.trace, &plain, &traced, &delta,
             &setup_s, &calibration_ms);
  std::vector<JsonMetric> metrics;

  uint64_t attempted = first.attempted + plain.attempted + traced.attempted;
  uint64_t failed = first.failed + plain.failed + traced.failed;
  for (const RunStats* s : {&first, &plain, &traced}) {
    for (const std::string& f : s->failures) {
      std::printf("FAILED: %s\n", f.c_str());
    }
  }
  std::printf("metric %-18s %16.6f %-6s clock=real  %llu of %llu ops\n",
              "failed_op_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!args.trace) {
    plain.sim_read_us = first.sim_read_us;
    plain.sim_read_ops = first.sim_read_ops;
    metrics = EndToEnd(plain, setup_s, calibration_ms);
  } else {
    metrics = PerLayer(wl.get(), first, plain, traced, delta, calibration_ms);
  }
  bool correct = failed == 0;
  PrintJson(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (perfbench::Make(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args);
}
