// Shared machinery of the perfbench program: the lakehouse fixture, timing
// and process probes, result fingerprints and oracles, counter snapshots,
// profile attribution, and the per-run sample store every workload fills.
//
// Nothing here adds instrumentation to the library: per-layer numbers come
// from timing public calls from this side, from counters the library already
// keeps (SimEnv counters, the metrics registry, BufferPool and cache
// Stats()), and from the wall side of the QueryProfile that
// QueryEngine::Execute fills.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "core/biglake.h"
#include "core/blmt.h"
#include "core/environment.h"
#include "core/read_api.h"
#include "engine/engine.h"
#include "engine/sql_parser.h"
#include "obs/profile.h"

namespace perfbench {

using namespace biglake;  // NOLINT: the benchmark uses the whole library

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in milliseconds.
double ProcessCpuMs();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// CPU time of the calling thread in milliseconds.
double ThreadCpuMs();

/// Host-speed calibration: real ms of one run of a fixed kernel that uses
/// nothing from the library (hash-table updates over 1 MiB, a sort of 16 Ki
/// doubles, number formatting), timed after one untimed warm-up run.
double CalibrationMs();
/// The kernel's time on the reference host when no neighbour slows it.
constexpr double kReferenceCalibrationMs = 2.5;

/// The speed of the host's CPUs before a stretch of work. On a shared host
/// each virtual CPU is slowed by up to ~40% for seconds at a time, one CPU
/// independently of the others, and memory-heavy code slows most; the
/// calibration kernel slows with it. Timed work is reported scaled by
/// Speed(), as if it had run on the reference host (see README.md).
class HostSpeed {
 public:
  /// Runs CalibrationMs() on every CPU the calling thread may use, moving
  /// the thread to each in turn and then restoring its affinity mask, and
  /// starts the CPU-time clocks Speed() reads.
  static HostSpeed Measure();
  /// Mean calibration time over the CPUs.
  double MeanMs() const;
  /// kReferenceCalibrationMs over the calibration time of the work done
  /// since Measure(): the calling thread's CPU weighted by its share of the
  /// process CPU time since then, the mean over all CPUs for the rest (the
  /// engine's pool threads run on every CPU).
  double Speed() const;

 private:
  std::vector<std::pair<int, double>> cpu_ms_;  // (cpu, calibration ms)
  int cpu_ = -1;  // the calling thread's CPU after the calibration
  double thread_cpu_ms_ = 0;
  double process_cpu_ms_ = 0;
};

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// The highest of {50, 75, 90, 95, 99, 99.9} that leaves at least ten samples
/// above it, with its value.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& v);

/// Order-insensitive fingerprint of a batch's rows: the row count plus a
/// wrapping sum of per-row hashes. Encoding-aware (dictionary and run-length
/// columns hash like their decoded values) and copy-free, so checking a
/// result never moves the buffer-pool counters the benchmark reports.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};
Fingerprint FingerprintOf(const RecordBatch& batch);

/// Row-set equality ignoring row order and column names; doubles compare
/// with a relative tolerance (aggregates summed in a different order).
/// Returns an empty string when equal, else a description of the first
/// difference.
std::string CompareRows(const RecordBatch& got, const RecordBatch& want,
                        double rel_tol = 1e-9);

/// A single-process lakehouse: one LakehouseEnv with a GCP store and bucket
/// "lake", dataset "ds" and connection "us.lake-conn".
struct Lake {
  LakehouseEnv env;
  CloudLocation gcp{CloudProvider::kGCP, "us-central1"};
  ObjectStore* store = nullptr;
  std::unique_ptr<BigLakeTableService> biglake;
  std::unique_ptr<BlmtService> blmt;
  std::unique_ptr<StorageReadApi> read_api;

  Lake();
  CallerContext Caller() const { return {.location = gcp}; }
  /// Writes `batch` as one Parquet-lite object.
  Status PutParquet(const std::string& name, const RecordBatch& batch);
};

/// Engine options every workload shares: one worker per hardware thread and
/// no readahead, so no thread beyond the cores is spawned.
EngineOptions BaseEngineOptions();
uint32_t Workers();

/// Copies of the library's counters at one point in time.
struct CounterSnapshot {
  std::map<std::string, uint64_t> sim;       // SimEnv cost counters
  std::map<std::string, double> registry;    // process metrics registry
  BufferPool::Stats buffers;
  cache::BlockCacheStats block;
  cache::ResultCacheStats result;

  static CounterSnapshot Take(LakehouseEnv* env);
};

/// Counter growth summed over several (before, after) snapshot pairs, so a
/// workload that rebuilds its lake between passes still accumulates.
struct CounterDelta {
  std::map<std::string, double> sim;
  std::map<std::string, double> registry;
  double bytes_copied = 0;
  double block_hits = 0, block_misses = 0, block_evictions = 0;
  double result_hits = 0, result_misses = 0, result_invalidations = 0;
  CounterSnapshot last;  // the latest `after`, for gauges

  void Add(const CounterSnapshot& before, const CounterSnapshot& after);
  /// Sum over SimEnv counters whose key starts with `prefix` and ends with
  /// `suffix`.
  double Sim(const std::string& prefix, const std::string& suffix = "") const;
  /// Sum over registry series of family `name` whose label text contains
  /// `label` (empty = every series).
  double Registry(const std::string& name, const std::string& label = "") const;
};

/// Real (wall) self time of the engine's operator layers in one profile.
struct LayerTimes {
  double scan_ms = 0;       // op:scan spans (stream fan-out, concat, folds)
  double join_ms = 0;       // op:hash_join minus its child operators
  double aggregate_ms = 0;  // op:aggregate minus its child operators
  double sort_limit_ms = 0; // op:order_by / op:limit self time
  double other_ms = 0;      // filter / project / values / map self time
  double root_ms = 0;       // the whole profile root
  void Add(const obs::QueryProfile& profile);
  double Unattributed() const {
    double attributed = scan_ms + join_ms + aggregate_ms + sort_limit_ms +
                        other_ms;
    return root_ms > attributed ? root_ms - attributed : 0.0;
  }
};

/// Counts WHERE conjuncts a plan keeps in a Filter directly or indirectly
/// above a HashJoin (conjuncts that never reach a scan).
uint64_t FiltersAboveJoin(const PlanPtr& plan);

/// Everything one run records. Workloads append; main.cc reports.
struct RunStats {
  // Timed ops (real clock, ms).
  std::map<std::string, std::vector<double>> query_ms_by_kind;
  std::vector<double> query_ms;
  std::vector<double> commit_ms;
  // Per timed pass: op service time, wall time including the client's
  // result checks, and the median query latency (every pass of a workload
  // runs the same ops).
  std::vector<double> pass_ms;
  std::vector<double> pass_wall_ms;
  std::vector<double> pass_query_p50_ms;
  double wall_ms = 0;       // wall time of the timed passes
  double op_ms_total = 0;   // sum of op service times
  double cpu_ms_total = 0;  // process CPU spent inside ops
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  // Deterministic first pass (sim clock).
  double sim_read_us = 0;
  uint64_t sim_read_ops = 0;

  // Traced phase extras.
  LayerTimes layers;
  uint64_t profiled_queries = 0;
  uint64_t result_rows = 0;
  std::vector<double> parse_us;
  std::map<std::string, std::vector<double>> layer_ms;  // named client timings
  std::map<std::string, double> layer_counts;            // named client counts

  void Fail(const std::string& what);
  void RecordQuery(const std::string& kind, double ms, double cpu_ms);
  void RecordCommit(double ms, double cpu_ms);
  void RecordOther(double ms, double cpu_ms);

  /// Where the op samples stood at one point, so that one pass's can be
  /// scaled to the reference host speed afterwards.
  struct Mark {
    size_t queries = 0;
    size_t commits = 0;
    double op_ms = 0;
    double cpu_ms = 0;
  };
  Mark Here() const;
  /// Multiplies the op times and CPU recorded since `m` by `speed`
  /// (query_ms_by_kind, printed for reading only, stays as measured).
  void ScaleSince(const Mark& m, double speed);
};

/// Times one op: real ms and process CPU ms around `fn`.
template <typename Fn>
auto TimeOp(double* ms, double* cpu_ms, Fn&& fn) {
  double cpu0 = ProcessCpuMs();
  auto t0 = Clock::now();
  auto out = fn();
  *ms = MsSince(t0);
  *cpu_ms = ProcessCpuMs() - cpu0;
  return out;
}

/// Per-layer metric sink for --trace 1.
class LayerReport {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& clock, const std::string& note = "");
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// A benchmark workload. Setup builds the lake and warm state; FirstPass runs
/// one deterministic pass that checks every result against the workload's
/// oracle and records the sim-clock numbers; Pass runs one timed pass.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Setup(uint64_t seed) = 0;
  /// Restores the state a pass starts from; called before every timed pass,
  /// outside the op timings and counter snapshots.
  virtual Status Reset() { return Status::OK(); }
  /// True when Reset rebuilds the lake; its time then counts as set-up.
  virtual bool RebuildsEachPass() const { return false; }
  virtual void FirstPass(RunStats* stats) = 0;
  virtual void Pass(RunStats* stats, bool traced) = 0;
  /// Direct per-layer probes, run after the timed phases of a traced run.
  virtual void Probes(LayerReport* out) = 0;
  /// The lake behind the workload (counter snapshots).
  virtual LakehouseEnv* env() = 0;
};

std::unique_ptr<Workload> MakeTpcdsSql();
std::unique_ptr<Workload> MakeScanWarm();
std::unique_ptr<Workload> MakeLakehouseRw();
std::unique_ptr<Workload> MakeExternalEngines();

// ---- Helpers shared by the workloads --------------------------------------

/// Parses and runs `sql` on `engine`, timed from SQL text to result rows;
/// records the query, checks the fingerprint against `expect` (when set)
/// and, when traced, folds its profile into `stats->layers`. Returns the
/// result (an empty result on failure, which is recorded).
QueryResult RunQuery(QueryEngine* engine, const Principal& principal,
                     const std::string& kind, const std::string& sql,
                     const Fingerprint* expect, RunStats* stats, bool traced);

/// The job log: the read-only workloads append one row per query to a BLMT
/// (the way BigQuery keeps job history in a table), so they exercise the
/// commit path too. Failures are recorded in the RunStats.
class JobLog {
 public:
  Status Create(Lake* lake);
  void Append(const std::string& kind, uint64_t rows, RunStats* stats);
  const std::string& table_id() const { return table_id_; }

 private:
  Lake* lake_ = nullptr;
  std::string table_id_;
  int64_t next_job_ = 0;
};

/// Live data files of a table in Big Metadata (0 when unknown).
double LiveFiles(Lake* lake, const std::string& table_id);

/// Standard probes every workload shares, over one table: Read API session
/// and stream timings, concat of opened handles, Parquet-lite decode of the
/// table's objects, and full-scan 1-vs-N-worker scaling.
void TableProbes(Lake* lake, const std::string& table_id,
                 const std::string& data_prefix, bool use_block_cache,
                 LayerReport* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
