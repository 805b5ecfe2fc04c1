// The BigQuery Storage Read API (Sec 2.2.1), extended to BigLake tables
// (Sec 3).
//
// CreateReadSession resolves the table through the catalog, authenticates
// the caller against the table's IAM policy, swaps the caller's identity for
// the table's *connection* credential (delegated access, Sec 3.1), resolves
// the fine-grained policy into a row filter + column mask set (Sec 3.2),
// prunes data files with Big Metadata statistics when caching is enabled
// (Sec 3.3) — falling back to object-store listing + footer peeking when it
// is not — and returns parallel streams plus table statistics that external
// engines feed into their optimizers (Sec 3.4).
//
// ReadRows executes the whole per-stream pipeline *inside the trust
// boundary*: scan -> pushed-down predicate -> security row filter ->
// projection -> masking -> Arrow-lite serialization. The consuming engine is
// untrusted; it only ever sees post-policy bytes.

#ifndef BIGLAKE_CORE_READ_API_H_
#define BIGLAKE_CORE_READ_API_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/batch.h"
#include "columnar/expr.h"
#include "columnar/ipc.h"
#include "common/thread_pool.h"
#include "core/environment.h"
#include "fault/retry.h"
#include "format/parquet_lite.h"
#include "meta/bigmeta.h"

namespace biglake {

struct ReadSessionOptions {
  /// Columns to return (empty = all). Projection is applied server-side.
  std::vector<std::string> columns;
  /// Predicate pushed down into the scan (may be nullptr).
  ExprPtr predicate;
  /// Point-in-time snapshot: Big Metadata txn id (kLatestTxn = latest,
  /// resolved to a concrete txn at session creation; 0 = before any commit).
  uint64_t snapshot_txn = kLatestTxn;
  /// Desired read parallelism; actual stream count <= this.
  uint32_t max_streams = 8;
  /// Use the legacy row-oriented reader + transcode path instead of the
  /// vectorized reader (the Sec 3.4 before/after comparison).
  bool use_row_oriented_reader = false;
  /// Rows per ReadRows response batch.
  uint64_t response_batch_rows = 4096;
  /// Where the consuming engine runs. Reads of data in another cloud cross
  /// the WAN and incur egress (the Omni naive-federation baseline). Unset =
  /// colocated with the data.
  std::optional<CloudLocation> caller_location;
  /// Aggregate pushdown (the Sec 3.4 future-work item, mirroring
  /// DataSourceV2's partial-aggregate support): when `partial_aggregates`
  /// is non-empty, ReadRows computes per-stream partial aggregates
  /// server-side and returns one small batch per stream instead of raw
  /// rows. Only COUNT/SUM/MIN/MAX are pushable (AVG is not decomposable
  /// without rewriting; engines push SUM+COUNT instead). The consumer
  /// merges partials: SUM over sums/counts, MIN/MAX over mins/maxes.
  std::vector<std::string> aggregate_group_by;
  std::vector<AggSpec> partial_aggregates;
  /// Serve footers and decoded row-group blocks through the environment's
  /// columnar block cache (src/cache/) when it has capacity (Sec 3.3/4.2:
  /// warm scans bounded by CPU, not the object store). Cache hits change
  /// cost accounting only — never rows. Off by default so existing
  /// configurations are bit-identical to the pre-cache behavior. Ignored by
  /// the legacy row-oriented reader (the "before" baseline stays uncached).
  bool use_block_cache = false;
  /// Readahead window per stream: up to this many files are fetched+decoded
  /// concurrently on a prefetch pool, double-buffered against the consuming
  /// pipeline. Simulated charges fold back serial-equivalently in file
  /// order, so results and counters are bit-identical at any depth or
  /// worker count; the analytic overlap (I/O hidden behind the window) is
  /// reported separately and subtracted from per-stream wall time.
  /// 0 or 1 = a window of one: each file is fetched inline on the stream's
  /// own thread, with nothing overlapped.
  uint32_t readahead_depth = 0;
};

/// One parallel unit of work: a subset of the session's data files.
struct ReadStream {
  std::string stream_id;
  std::vector<CachedFileMeta> files;
  uint64_t estimated_rows = 0;
};

/// A session's server-side state: the options, the delegated credential,
/// the resolved governance and the per-stream overlap. Opaque to callers;
/// defined in read_api.cc.
struct ReadSessionState;

/// The result of CreateReadSession.
struct ReadSession {
  std::string session_id;
  std::string table_id;
  /// Post-projection; for a pushed aggregate, its partial-aggregate rows.
  SchemaPtr output_schema;
  std::vector<ReadStream> streams;
  /// Table statistics from Big Metadata (Sec 3.4): external engines use
  /// these for join reordering and dynamic partition pruning. Empty when
  /// the table has no metadata cache.
  std::map<std::string, ColumnStats> table_stats;
  uint64_t snapshot_txn = 0;
  /// Diagnostics surfaced to benches.
  uint64_t files_pruned = 0;
  uint64_t files_total = 0;
  /// Shared by every copy of the session and freed with the last one: the
  /// Read API keeps no per-session state of its own. A session whose state
  /// is missing or belongs to another id is NotFound.
  std::shared_ptr<ReadSessionState> state;
};

struct ReadApiOptions {
  /// Per-CreateReadSession control-plane cost: session state is persisted
  /// (to Spanner in the paper — "creating a read session is expensive").
  SimMicros create_session_latency = 15'000;  // 15 ms
  /// RefineSession reuses the persisted state and only re-prunes: much
  /// cheaper than a fresh session (Sec 3.4 future work, implemented).
  SimMicros refine_session_latency = 2'000;  // 2 ms
  /// Server-side CPU cost per value processed by the vectorized pipeline,
  /// and the multiplier for the row-oriented prototype (Sec 3.4 reports
  /// ~an order of magnitude CPU difference).
  double vectorized_micros_per_value = 0.002;
  double row_oriented_cpu_multiplier = 10.0;
  /// Stream reads are idempotent (they mutate nothing but accounting), so a
  /// ReadRows attempt that fails transiently is retried whole under this
  /// policy — the paper's per-stream retry behavior.
  fault::RetryPolicy retry;
};

class StorageReadApi {
 public:
  explicit StorageReadApi(LakehouseEnv* env, ReadApiOptions options = {})
      : env_(env), options_(options) {}

  /// Creates a session for `principal` over `table_id`. Fails with
  /// PermissionDenied / Unauthenticated on any governance violation.
  Result<ReadSession> CreateReadSession(const Principal& principal,
                                        const std::string& table_id,
                                        const ReadSessionOptions& options);

  /// Reads one stream fully, returning one BatchHandle per response batch.
  /// Handles are *local* — refcounted references to the post-policy batches
  /// — so an in-process engine consumes them with zero serialization
  /// (`Open()` is a refcount bump). Transports that cross a process or
  /// trust boundary (Omni VPN, persistence) call `ToWire()`, which is the
  /// only point the Arrow-lite codec runs.
  Result<std::vector<BatchHandle>> ReadStreamHandles(const ReadSession& session,
                                                     size_t stream_index);

  /// Wire-format compatibility shim: ReadStreamHandles + ToWire per batch.
  /// (A gRPC server would stream these; callers deserialize with
  /// DeserializeBatch.)
  Result<std::vector<std::string>> ReadRows(const ReadSession& session,
                                            size_t stream_index);

  /// Convenience for callers that want one batch per stream (tests, CCMV
  /// refreshes, Spark-lite's pushed aggregate): ReadStreamHandles + open +
  /// one RecordBatch::Concat — serialization-free in-process. The engine
  /// does not call it: its scans open the handles as chunks and concatenate
  /// nothing (columnar/chunked_batch.h).
  Result<RecordBatch> ReadStreamBatch(const ReadSession& session,
                                      size_t stream_index);

  /// Read-session reuse (Sec 3.4 future work, implemented): narrows an
  /// existing session with an additional predicate — e.g. a dynamic-
  /// partition-pruning IN-list discovered at runtime — re-pruning the
  /// session's files without paying the full session-creation cost.
  /// Returns a new session sharing the original's governance resolution.
  Result<ReadSession> RefineSession(const ReadSession& session,
                                    const ExprPtr& extra_predicate);

  /// Dynamic work rebalancing (Sec 2.2.1): splits a stream's remaining
  /// files into two roughly equal halves.
  static Result<std::pair<ReadStream, ReadStream>> SplitStream(
      const ReadStream& stream);

  /// Simulated micros of object-store latency the prefetch pipeline hid
  /// behind compute for one stream of one session (0 without readahead).
  /// Engines subtract this from per-stream virtual elapsed time when
  /// computing analytic wall time; total resource time is unaffected.
  /// Serial context only (call after the scan's parallel region joined).
  static SimMicros StreamOverlapSaved(const ReadSession& session,
                                      size_t stream_index);

 private:
  /// Everything fetch+decode produces for one data file, before any
  /// consumer-side processing (partition columns, filters, masking). Blocks
  /// are shared with the block cache and never mutated in place.
  struct FileBlocks {
    bool skip = false;  // non-data file / foreign-schema file (counted)
    std::shared_ptr<const ParquetFileMeta> meta;
    std::vector<std::pair<size_t, std::shared_ptr<const RecordBatch>>> blocks;
    uint64_t values_decoded = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
  };

  /// One full read of a stream; retried whole by ReadStreamHandles on
  /// transient failure (all its state is local, so attempts are
  /// independent).
  Result<std::vector<BatchHandle>> ReadRowsAttempt(
      const ReadSession& session, ReadSessionState& state,
      size_t stream_index, const std::string& stream_key);

  /// Collects (and prunes) the file list for a table, via Big Metadata when
  /// cached, else via LIST + footer peeks (the slow pre-BigLake path).
  Result<PrunedFiles> CollectFiles(const TableDef& table,
                                   const Credential& credential,
                                   const ExprPtr& predicate, uint64_t txn,
                                   uint64_t* files_total,
                                   bool use_block_cache);

  /// Fetch+decode of one data file: credential check, footer (cache-aware),
  /// row-group pruning, then per-group decoded blocks (cache-aware). Safe to
  /// run on a prefetch worker: all simulated charges go to the installed
  /// ChargeShard and cache mutations to the installed CacheTxn. A block or
  /// footer is admitted to the cache only when every underlying read
  /// observed the expected object generation — a faulted or partially-read
  /// block is never admitted.
  Result<FileBlocks> FetchFileBlocks(const ReadSessionState& state,
                                     const TableDef& table,
                                     const ObjectStore* store,
                                     const CallerContext& ctx,
                                     const CachedFileMeta& fm,
                                     cache::BlockCache* cache,
                                     uint64_t projection_fp) const;

  /// The dedicated prefetch pool (lazily built, thread-safe). Distinct from
  /// any engine pool: a stream task blocks waiting on its readahead window,
  /// so running prefetch units on the same pool could deadlock.
  ThreadPool* prefetch_pool();

  LakehouseEnv* env_;
  ReadApiOptions options_;
  uint64_t next_session_ = 1;
  std::once_flag prefetch_pool_once_;
  std::unique_ptr<ThreadPool> prefetch_pool_;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_READ_API_H_
