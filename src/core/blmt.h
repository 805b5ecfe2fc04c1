// BigLake Managed Tables (BLMT, Sec 3.5): the fully managed BigQuery table
// experience over customer-owned object storage.
//
// Data lives as Parquet-lite files in the customer's bucket; metadata lives
// in Big Metadata (NOT in an object-store pointer), which buys:
//   * commit throughput far beyond the object store's mutation rate limit,
//   * multi-table transactions,
//   * a tamper-proof transaction log (writers cannot rewrite history).
//
// The service provides DML (INSERT / DELETE / UPDATE), background storage
// optimization (coalescing small files, reclustering by the clustering
// columns, adaptive file sizing), garbage collection of unreferenced
// objects, and export of an Iceberg-lite snapshot so any external engine
// that understands the open format can read the table directly.

#ifndef BIGLAKE_CORE_BLMT_H_
#define BIGLAKE_CORE_BLMT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expr.h"
#include "core/environment.h"
#include "format/iceberg_lite.h"

namespace biglake {

struct BlmtOptions {
  /// Files smaller than this are candidates for coalescing.
  uint64_t small_file_bytes = 64 << 10;
  /// Target size of optimized files.
  uint64_t target_file_bytes = 256 << 10;
  /// Objects must be unreferenced for this long before GC deletes them
  /// (protects in-flight readers and time travel).
  SimMicros gc_min_age = 10'000'000;  // 10 s virtual
  /// Transient faults on data-file puts/reads retry under this policy (the
  /// snapshot commit itself is a Big Metadata transaction, and the Iceberg
  /// export path has its own CAS retry loop in format/iceberg_lite.h).
  fault::RetryPolicy retry;
};

struct OptimizeReport {
  uint64_t files_before = 0;
  uint64_t files_after = 0;
  uint64_t files_coalesced = 0;
  uint64_t rows_rewritten = 0;
};

struct GcReport {
  uint64_t objects_scanned = 0;
  uint64_t objects_deleted = 0;
};

struct IcebergExportInfo {
  std::string bucket;
  std::string prefix;
  uint64_t snapshot_id = 0;
  uint64_t num_files = 0;
};

class BlmtService {
 public:
  explicit BlmtService(LakehouseEnv* env, BlmtOptions options = {})
      : env_(env), options_(options) {}

  /// Creates a BLMT: catalog entry + Big Metadata table. `clustering`
  /// columns drive reclustering during storage optimization.
  Status CreateTable(TableDef def, std::vector<std::string> clustering = {});

  /// INSERT: writes a data file and commits it (one metadata transaction).
  Result<uint64_t> Insert(const Principal& principal,
                          const std::string& table_id,
                          const RecordBatch& rows);

  /// Atomic INSERT across several BLMTs (multi-table transaction).
  Result<uint64_t> MultiTableInsert(
      const Principal& principal,
      const std::vector<std::pair<std::string, RecordBatch>>& inserts);

  /// DELETE ... WHERE predicate. Rewrites only files whose statistics admit
  /// matches. Returns the number of rows deleted.
  Result<uint64_t> Delete(const Principal& principal,
                          const std::string& table_id,
                          const ExprPtr& predicate);

  /// UPDATE ... SET col=value ... WHERE predicate. Returns rows updated.
  Result<uint64_t> Update(const Principal& principal,
                          const std::string& table_id,
                          const ExprPtr& predicate,
                          const std::map<std::string, Value>& assignments);

  /// Reads the full current table content (snapshot read through Big
  /// Metadata; used by tests/examples — queries normally go through the
  /// Read API or the engine).
  Result<RecordBatch> ReadAll(const std::string& table_id,
                              uint64_t snapshot_txn = kLatestTxn);

  // --- Multi-table transactions (meta/txn.h) ---
  // Available once LakehouseEnv::EnableTransactions has configured the
  // coordinator; MultiTableInsert/Delete/Update then commit through the
  // write-intent + txn-log protocol automatically. Single-table Insert keeps
  // its direct append path: appends never conflict, so mixing it with
  // transactions is safe by construction.

  /// True when this environment has a transaction coordinator.
  bool transactional() const { return env_->txn() != nullptr; }

  /// Opens a transaction with a snapshot pinned over `tables`.
  Result<std::unique_ptr<meta::LakehouseTxn>> BeginTransaction(
      const std::vector<std::string>& tables);

  /// Stages an INSERT (the data file is written now but stays invisible
  /// until commit). Appends never conflict.
  Status TxnInsert(meta::LakehouseTxn* txn, const Principal& principal,
                   const std::string& table_id, const RecordBatch& rows);

  /// Stages DELETE ... WHERE predicate, resolving candidate files against
  /// the transaction's snapshot. First-committer-wins: if a concurrent
  /// commit rewrites any of the files this statement removes, Commit aborts
  /// with kFailedPrecondition. One rewriting statement per table per
  /// transaction. Returns rows staged for deletion.
  Result<uint64_t> TxnDelete(meta::LakehouseTxn* txn,
                             const Principal& principal,
                             const std::string& table_id,
                             const ExprPtr& predicate);

  /// Stages UPDATE ... SET ... WHERE predicate (same rules as TxnDelete).
  Result<uint64_t> TxnUpdate(meta::LakehouseTxn* txn,
                             const Principal& principal,
                             const std::string& table_id,
                             const ExprPtr& predicate,
                             const std::map<std::string, Value>& assignments);

  /// Commits via the coordinator; returns the metadata txn id every staged
  /// table became visible at (atomically).
  Result<uint64_t> CommitTransaction(meta::LakehouseTxn* txn);
  Status AbortTransaction(meta::LakehouseTxn* txn);

  /// Background storage optimization: coalesces small files into
  /// target-sized files, sorting by the clustering columns.
  Result<OptimizeReport> OptimizeStorage(const std::string& table_id);

  /// Deletes data objects no longer referenced by the live snapshot and
  /// older than gc_min_age.
  Result<GcReport> GarbageCollect(const std::string& table_id);

  /// Exports the current snapshot as an Iceberg-lite table under
  /// `<prefix>iceberg/` in the customer bucket (Sec 3.5: "any engine
  /// capable of understanding Iceberg can query the data directly").
  Result<IcebergExportInfo> ExportIcebergSnapshot(const std::string& table_id);

 private:
  Result<const TableDef*> CheckedTable(const Principal& principal,
                                       const std::string& table_id,
                                       Role needed) const;
  Result<CachedFileMeta> WriteDataFile(const TableDef& table,
                                       const RecordBatch& rows);
  Result<RecordBatch> ReadFile(const TableDef& table,
                               const CachedFileMeta& file);

  // DELETE and UPDATE share one path; `assignments == nullptr` is DELETE.
  using Assignments = std::map<std::string, Value>;
  /// What one DELETE/UPDATE statement does to the table's files.
  struct DmlRewrite {
    const TableDef* table = nullptr;
    uint64_t rows = 0;  // rows deleted or updated
    std::vector<std::string> removals;
    std::vector<CachedFileMeta> additions;
  };
  /// Autocommit statement: through the coordinator when transactional,
  /// else one metadata swap.
  Result<uint64_t> RunDml(const Principal& principal,
                          const std::string& table_id,
                          const ExprPtr& predicate,
                          const Assignments* assignments);
  /// Stages the statement's rewrite in `txn`.
  Result<uint64_t> StageDml(meta::LakehouseTxn* txn,
                            const Principal& principal,
                            const std::string& table_id,
                            const ExprPtr& predicate,
                            const Assignments* assignments);
  /// Checks, prunes candidates as of `snapshot_txn`, reads each, matches
  /// rows with the predicate kernels and writes the rewritten files.
  Result<DmlRewrite> RewriteMatching(const Principal& principal,
                                     const std::string& table_id,
                                     const ExprPtr& predicate,
                                     const Assignments* assignments,
                                     uint64_t snapshot_txn);

  LakehouseEnv* env_;
  BlmtOptions options_;
  std::map<std::string, std::vector<std::string>> clustering_;
  uint64_t next_file_ = 1;
};

}  // namespace biglake

#endif  // BIGLAKE_CORE_BLMT_H_
