// Dremel-lite: a vectorized, statistics-driven query engine.
//
// Executes Plan trees over the lakehouse. Properties mirrored from the
// paper:
//   * In-situ scans: every scan goes through the Storage Read API, so the
//     engine is subject to the same delegated access + fine-grained
//     governance as any external engine (Sec 3.2).
//   * A logical rewrite first (engine/optimizer.h): WHERE conjuncts sink
//     below joins into scan predicates and every scan requests only the
//     columns the query uses, so the Read API prunes files and decodes only
//     what is needed (Sec 3.2). It runs on SQL and plan-built queries alike.
//   * Statistics-driven optimization (Sec 3.3/3.4): table statistics from
//     CreateReadSession drive hash-join build-side selection, and *dynamic
//     partition pruning* pushes the distinct join keys of a small (filtered)
//     dimension into the fact scan as an IN-list, letting Big Metadata prune
//     fact files before any data is read. Both can be disabled to reproduce
//     the paper's before/after comparisons.
//   * Chunked data flow (columnar/chunked_batch.h): an operator's output
//     is an ordered list of chunks. A scan hands on the Read API's response
//     batches as zero-copy chunks, in stream order and then response order,
//     without concatenating them; filters and projections run per chunk on
//     the pool; a join probes chunk by chunk and emits chunks in probe
//     order. Rows are copied into one batch only at the contiguity points:
//     the query root, Sort, Map and a join's build side, each by one
//     dictionary-keeping Concat per column on the pool.
//   * Real parallelism with deterministic merges: `num_workers` sizes an
//     actual work-stealing thread pool. Scans fan one pool task out per
//     read stream (the paper's unit of scan parallelism); joins probe fixed
//     pieces of the probe chunks across the pool; aggregations build typed
//     partial states per fixed 4096-row cut of the logical rows and fold
//     them in cut order (at one worker too, so SUM/AVG match to the last
//     bit).
//     Every parallel region charges simulated costs into per-task shards
//     that are folded back serial-equivalently (see common/sim_env.h), so
//     query results, cost counters and the virtual clock are bit-identical
//     run-to-run and match the pool-size-1 compatibility mode
//     (num_workers = 1, which executes inline with no threads). Reported
//     `wall_micros` is the max-over-workers of charged virtual time per
//     wave of streams, not a naive division.

#ifndef BIGLAKE_ENGINE_ENGINE_H_
#define BIGLAKE_ENGINE_ENGINE_H_

#include <memory>
#include <string>

#include "cache/result_cache.h"
#include "columnar/chunked_batch.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/read_api.h"
#include "engine/plan.h"
#include "meta/txn.h"
#include "obs/profile.h"

namespace biglake {

struct EngineOptions {
  uint32_t num_workers = 8;
  /// Use table statistics from the Read API session for build-side
  /// selection (join reordering). Off = execute the plan as written.
  bool use_table_stats = true;
  /// Push distinct build-side join keys into the probe-side scan.
  bool dynamic_partition_pruning = true;
  /// DPP only fires when the build side has at most this many distinct keys.
  uint64_t dpp_max_keys = 4096;
  /// CPU cost per value flowing through a vectorized operator.
  double cpu_micros_per_value = 0.002;
  /// Read-stream fan-out requested per scan session. 0 = one stream per
  /// worker. A fixed value decouples the query shape (stream partitioning,
  /// and with it row order and fault/retry schedules) from the pool size,
  /// so the same query is reproducible at any worker count.
  uint32_t max_read_streams = 0;
  /// Where this engine's workers run; scans of data in other clouds cross
  /// the WAN (used by Omni data planes).
  CloudLocation engine_location{CloudProvider::kGCP, "us-central1"};
  /// Route this engine's scans through the environment's columnar block
  /// cache (src/cache/), granting it `block_cache_capacity_bytes` when it is
  /// not yet configured. Hits skip object-store I/O but never change rows.
  bool enable_block_cache = false;
  uint64_t block_cache_capacity_bytes = 256ull << 20;  // 256 MiB
  /// Per-stream readahead window for the Read API's prefetching pipeline
  /// (ReadSessionOptions::readahead_depth). 0 or 1 = a window of one, each
  /// file fetched inline on its stream's thread.
  uint32_t readahead_depth = 0;
  /// Serve repeated identical queries from the environment's result cache
  /// (src/cache/result_cache.h), granting it 64 MiB under LRU admission
  /// when it is not yet configured (LakehouseEnv::ConfigureResultCache
  /// sets another capacity or policy). Keys bind principal, plan
  /// fingerprint, per-table commit generations and the row-shaping engine
  /// knobs (see engine/plan_fingerprint.h), so a hit is always
  /// row-identical to a fresh execution; the hit path charges
  /// deterministic, worker-count-independent virtual time.
  bool enable_result_cache = false;
};

struct QueryStats {
  /// Analytic wall time: parallelizable work divided across workers.
  SimMicros wall_micros = 0;
  /// Total resource (CPU + I/O) virtual time consumed.
  SimMicros total_micros = 0;
  uint64_t rows_returned = 0;
  uint64_t files_scanned = 0;
  uint64_t files_pruned = 0;
  uint64_t read_streams = 0;
  uint64_t build_side_swaps = 0;  // stats-driven join reorderings
  uint64_t dpp_scans = 0;         // scans that received a DPP IN-list
};

struct QueryResult {
  RecordBatch batch;
  QueryStats stats;
};

class QueryEngine {
 public:
  QueryEngine(LakehouseEnv* env, StorageReadApi* read_api,
              EngineOptions options = {})
      : env_(env), read_api_(read_api), options_(options) {
    if (options_.enable_block_cache && !env_->block_cache().enabled()) {
      cache::BlockCacheOptions cache_options;
      cache_options.capacity_bytes = options_.block_cache_capacity_bytes;
      env_->ConfigureBlockCache(cache_options);
    }
    if (options_.enable_result_cache && !env_->result_cache().enabled()) {
      cache::ResultCacheOptions rc_options;
      rc_options.capacity_bytes = 64ull << 20;  // 64 MiB
      env_->ConfigureResultCache(rc_options);
    }
  }

  const EngineOptions& options() const { return options_; }

  /// Executes `plan` as `principal`. All scans are governed reads.
  ///
  /// When `profile` is non-null a trace is collected into it: a `query` root
  /// span, an `execute` stage span, one `operator` span per plan node, one
  /// `stream` span per read stream, and `rpc`/`objstore` spans from the
  /// layers below. Simulated durations in the profile are deterministic
  /// (byte-identical JSON across runs via include_wall=false); tracing does
  /// not change query results, counters, or the virtual clock.
  ///
  /// When `cancel` is non-null the query becomes a schedulable unit: the
  /// token is installed for the whole execution (common/cancel.h) and
  /// polled cooperatively at operator entries, ParallelFor chunk boundaries
  /// and the Read API's per-file fetch loops. A tripped flag unwinds with
  /// kCancelled, an expired virtual-clock deadline with kDeadlineExceeded —
  /// both non-retryable, both at deterministic checkpoints, and a cancelled
  /// query never admits partial rows into the result cache.
  ///
  /// Snapshot isolation: every Execute pins one metadata snapshot up front —
  /// `snapshot->meta_txn` when the caller passes a meta::TxnSnapshot handle,
  /// the store's latest txn otherwise — and resolves *all* scans (and the
  /// result-cache key's per-table generation vector) against it. A
  /// multi-table join therefore never observes one table's new generation
  /// with another's old one, regardless of commits landing around the query.
  Result<QueryResult> Execute(const Principal& principal, const PlanPtr& plan,
                              obs::QueryProfile* profile = nullptr,
                              const CancelToken* cancel = nullptr,
                              const meta::TxnSnapshot* snapshot = nullptr);

 private:
  /// Wraps ExecuteNodeInner in an `operator` span annotated with the node's
  /// output rows and chunks; all recursion goes through here so nested
  /// operators nest in the trace too.
  Result<ChunkedBatch> ExecuteNode(const Principal& principal,
                                   const PlanPtr& plan, QueryStats* stats);
  Result<ChunkedBatch> ExecuteNodeInner(const Principal& principal,
                                        const PlanPtr& plan,
                                        QueryStats* stats);
  /// One chunk per non-empty Read API response batch, zero-copy.
  Result<ChunkedBatch> ExecuteScan(const Principal& principal,
                                   const Plan& scan, QueryStats* stats);
  Result<ChunkedBatch> ExecuteFilter(ChunkedBatch in, const Plan& filter,
                                     QueryStats* stats);
  Result<ChunkedBatch> ExecuteProject(ChunkedBatch in, const Plan& project,
                                      QueryStats* stats);
  Result<ChunkedBatch> ExecuteJoin(const Principal& principal,
                                   const Plan& join, QueryStats* stats);
  Result<RecordBatch> ExecuteAggregate(const ChunkedBatch& input,
                                       const Plan& agg, QueryStats* stats);

  /// Rough output-cardinality estimate used for build-side selection.
  uint64_t EstimateRows(const PlanPtr& plan);

  /// Charges vectorized CPU for `values` processed values; adds to stats.
  /// Fractional micros accumulate in `cpu_carry_` so sub-micro charges are
  /// not silently floored away.
  void ChargeCpu(uint64_t values, QueryStats* stats);

  /// The execution pool (num_workers threads), built on first parallel use.
  ThreadPool* pool();
  /// The pool for per-chunk work and concatenation over `in`: null (serial
  /// on the caller) for a single chunk, where a hand-off costs more.
  ThreadPool* ChunkPool(const ChunkedBatch& in);

  LakehouseEnv* env_;
  StorageReadApi* read_api_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  double cpu_carry_ = 0.0;
  /// The metadata snapshot the running query is pinned to (set at Execute
  /// entry, read by every ExecuteScan): one consistent cross-table view.
  uint64_t snapshot_txn_ = kLatestTxn;
};

}  // namespace biglake

#endif  // BIGLAKE_ENGINE_ENGINE_H_
