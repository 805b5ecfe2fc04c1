// Iceberg-lite: an open table format committed atomically on object storage.
//
// Stands in for Apache Iceberg (Sec 3.3, 3.5): a table is a set of immutable
// data files plus a metadata tree — immutable manifest objects listing data
// files (with per-file partition values and column statistics) and a single
// mutable *pointer object* advanced by compare-and-swap. Because the pointer
// is one object-store object, the store's per-object mutation rate limit
// bounds the table's commit throughput — the exact contrast the paper draws
// with BigLake Managed Tables, whose metadata lives in Big Metadata instead
// (see src/meta and src/core/blmt).
//
// BLMT also *exports* Iceberg-lite snapshots so external engines can read
// managed tables (Sec 3.5); that code path reuses this writer.

#ifndef BIGLAKE_FORMAT_ICEBERG_LITE_H_
#define BIGLAKE_FORMAT_ICEBERG_LITE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "columnar/expr.h"
#include "common/coding.h"
#include "columnar/types.h"
#include "fault/retry.h"
#include "objstore/objstore.h"

namespace biglake {

/// One immutable data file tracked by the table.
struct DataFileEntry {
  std::string path;  // object name within the table's bucket
  uint64_t size_bytes = 0;
  uint64_t row_count = 0;
  /// Hive-style partition values, e.g. {("sale_date", 20231101)}.
  std::vector<std::pair<std::string, Value>> partition;
  /// Per-column min/max/null statistics for file pruning.
  std::map<std::string, ColumnStats> column_stats;
};

/// Prunes `file` against `predicate`: a non-null hive partition value is an
/// exact-point statistic of its column; any other column uses the file's
/// column statistics (none known = may match).
PruneResult PruneDataFile(const Expr& predicate, const DataFileEntry& file);

void EncodeDataFileEntry(std::string* dst, const DataFileEntry& e);
Status DecodeDataFileEntry(Decoder* dec, DataFileEntry* out);

/// A committed table version.
struct IcebergSnapshot {
  uint64_t snapshot_id = 0;
  SimMicros timestamp = 0;
  std::string manifest_object;  // immutable object holding the file list
  uint64_t num_files = 0;
  uint64_t total_rows = 0;
};

struct IcebergTableMetadata {
  SchemaPtr schema;
  std::vector<std::string> partition_columns;
  std::vector<IcebergSnapshot> snapshots;  // oldest first
  uint64_t current_snapshot_id = 0;        // 0 = empty table

  const IcebergSnapshot* CurrentSnapshot() const;
};

struct IcebergCommitOptions {
  /// CAS conflicts, rate-limit rejections and transient (kUnavailable)
  /// faults are retried up to this many times with exponential backoff
  /// (virtual time).
  int max_retries = 16;
  SimMicros initial_backoff = 50'000;  // 50 ms
  /// Deterministic jitter fraction for the backoff (0 = exact doubling, the
  /// legacy progression asserted by format_test).
  double jitter = 0.0;
  uint64_t jitter_seed = 0;

  /// The equivalent fault::RetryPolicy: max_retries + 1 total attempts,
  /// uncapped doubling from initial_backoff.
  fault::RetryPolicy RetryPolicyForCommit() const {
    fault::RetryPolicy policy;
    policy.max_attempts = max_retries + 1;
    policy.initial_backoff = initial_backoff;
    policy.max_backoff = 0;
    policy.multiplier = 2.0;
    policy.jitter = jitter;
    policy.seed = jitter_seed;
    return policy;
  }
};

/// Handle to an Iceberg-lite table rooted at `bucket`/`prefix` in `store`.
class IcebergTable {
 public:
  /// Creates a new table (fails if the pointer object already exists).
  static Result<IcebergTable> Create(ObjectStore* store,
                                     const CallerContext& caller,
                                     const std::string& bucket,
                                     const std::string& prefix,
                                     SchemaPtr schema,
                                     std::vector<std::string> partition_columns
                                     = {});

  /// Opens an existing table by reading its pointer object.
  static Result<IcebergTable> Load(ObjectStore* store,
                                   const CallerContext& caller,
                                   const std::string& bucket,
                                   const std::string& prefix);

  const IcebergTableMetadata& metadata() const { return metadata_; }
  const std::string& bucket() const { return bucket_; }
  const std::string& prefix() const { return prefix_; }

  /// Appends data files as a new snapshot: writes an immutable manifest,
  /// then CASes the pointer. Retries conflicts/rate limits per `opts`;
  /// gives up with the last error. Each *successful* commit is exactly one
  /// pointer mutation — the throughput-limiting operation.
  Status CommitAppend(const CallerContext& caller,
                      std::vector<DataFileEntry> new_files,
                      const IcebergCommitOptions& opts = {});

  /// Replaces the complete file list (used for compaction / delete).
  Status CommitReplace(const CallerContext& caller,
                       std::vector<DataFileEntry> files,
                       const IcebergCommitOptions& opts = {});

  /// Reads the manifest of the current snapshot (one object read).
  Result<std::vector<DataFileEntry>> ReadCurrentManifest(
      const CallerContext& caller) const;

  /// Reads the manifest of a historical snapshot (time travel).
  Result<std::vector<DataFileEntry>> ReadManifestAt(
      const CallerContext& caller, uint64_t snapshot_id) const;

  /// Re-reads the pointer object to pick up foreign commits.
  Status Refresh(const CallerContext& caller);

  std::string PointerObjectName() const { return prefix_ + "metadata/pointer"; }

 private:
  IcebergTable(ObjectStore* store, std::string bucket, std::string prefix)
      : store_(store), bucket_(std::move(bucket)), prefix_(std::move(prefix)) {}

  /// Shared commit path: `append` decides whether new files extend or
  /// replace the current manifest.
  Status Commit(const CallerContext& caller, std::vector<DataFileEntry> files,
                bool append, const IcebergCommitOptions& opts);

  Status LoadPointer(const CallerContext& caller);

  ObjectStore* store_ = nullptr;
  std::string bucket_;
  std::string prefix_;
  IcebergTableMetadata metadata_;
  uint64_t pointer_generation_ = 0;
};

}  // namespace biglake

#endif  // BIGLAKE_FORMAT_ICEBERG_LITE_H_
