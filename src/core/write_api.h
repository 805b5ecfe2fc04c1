// The BigQuery Storage Write API (Sec 2.2.2): scalable streaming ingestion
// with exactly-once semantics, stream-level and cross-stream transactions.
//
// A writer creates a stream against a managed or BigLake-managed table and
// appends Arrow-lite batches. Two modes mirror the paper:
//   * kCommitted — rows become visible as soon as the append returns
//     (real-time streaming).
//   * kPending   — rows buffer invisibly until the stream is finalized and
//     committed; BatchCommit applies any number of finalized streams (over
//     any number of tables) in ONE Big Metadata transaction — the
//     cross-stream / multi-table atomicity open formats cannot offer.
//
// Exactly-once: every append may carry an explicit offset; re-sent offsets
// are acknowledged without duplicating rows (the retry-safe contract).

#ifndef BIGLAKE_CORE_WRITE_API_H_
#define BIGLAKE_CORE_WRITE_API_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "core/environment.h"
#include "fault/retry.h"

namespace biglake {

enum class WriteMode { kCommitted, kPending };

struct WriteApiOptions {
  /// Rows buffered in a committed-mode stream before flushing a data file.
  uint64_t committed_flush_rows = 4096;
  /// Per-append RPC cost.
  SimMicros append_latency = 1'000;  // 1 ms
  /// Transient faults on data-file puts and commit RPCs retry under this
  /// policy. Data files keep their name across put attempts, so a retried
  /// flush neither orphans objects nor perturbs downstream file naming.
  fault::RetryPolicy retry;
};

struct WriteStreamInfo {
  std::string stream_id;
  std::string table_id;
  WriteMode mode = WriteMode::kPending;
  uint64_t rows_appended = 0;
  bool finalized = false;
};

class StorageWriteApi {
 public:
  explicit StorageWriteApi(LakehouseEnv* env, WriteApiOptions options = {})
      : env_(env), options_(options) {}

  /// Creates a write stream; requires Writer on the table.
  Result<std::string> CreateWriteStream(const Principal& principal,
                                        const std::string& table_id,
                                        WriteMode mode);

  /// Appends a batch. With `offset` set, enforces exactly-once: an offset
  /// at the stream's current size appends; a smaller one is a duplicate
  /// retry (acknowledged, not re-applied); a larger one is OutOfRange.
  /// Returns the stream row count after the append.
  Result<uint64_t> AppendRows(const std::string& stream_id,
                              const RecordBatch& batch,
                              std::optional<uint64_t> offset = std::nullopt);

  /// Seals a pending stream; no further appends. A committed-mode stream
  /// flushes its remainder and is dropped.
  Status FinalizeStream(const std::string& stream_id);

  /// Atomically commits finalized pending streams (possibly spanning
  /// multiple tables) in one metadata transaction. Returns the txn id. The
  /// committed streams are dropped: any later call on them is NotFound.
  Result<uint64_t> BatchCommit(const std::vector<std::string>& stream_ids);

  Result<WriteStreamInfo> GetStream(const std::string& stream_id) const;

 private:
  struct StreamState {
    WriteStreamInfo info;
    const TableDef* table = nullptr;
    std::vector<RecordBatch> buffered;
    uint64_t buffered_rows = 0;
  };

  /// Writes `batches` as one Parquet-lite data file into the table's
  /// storage and returns its metadata entry.
  Result<CachedFileMeta> WriteDataFile(const TableDef& table,
                                       const std::vector<RecordBatch>& batches);

  /// Flushes a committed-mode stream's buffer as a visible commit.
  Status FlushCommitted(StreamState* stream);

  LakehouseEnv* env_;
  WriteApiOptions options_;
  uint64_t next_stream_ = 1;
  uint64_t next_file_ = 1;
  std::map<std::string, StreamState> streams_;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_WRITE_API_H_
