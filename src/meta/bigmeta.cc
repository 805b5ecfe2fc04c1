#include "meta/bigmeta.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace biglake {

void MetaTransaction::AddFiles(const std::string& table_id,
                               std::vector<CachedFileMeta> files) {
  auto& ops = ops_[table_id];
  for (auto& f : files) ops.adds.push_back(std::move(f));
}

void MetaTransaction::RemoveFiles(const std::string& table_id,
                                  std::vector<std::string> paths) {
  auto& ops = ops_[table_id];
  for (auto& p : paths) ops.removes.push_back(std::move(p));
}

Result<uint64_t> MetaTransaction::Commit() {
  if (committed_) {
    return Status::FailedPrecondition("transaction already committed");
  }
  committed_ = true;
  return store_->CommitOps(std::move(ops_));
}

BigMetadataStore::BigMetadataStore(SimEnv* env, BigMetadataOptions options)
    : env_(env), options_(options) {}

void BigMetadataStore::EnsureTable(const std::string& table_id) {
  tables_.try_emplace(table_id);
}

bool BigMetadataStore::HasTable(const std::string& table_id) const {
  return tables_.count(table_id) > 0;
}

Status BigMetadataStore::DropTable(const std::string& table_id) {
  if (tables_.erase(table_id) == 0) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  return Status::OK();
}

Result<uint64_t> BigMetadataStore::CommitOps(
    std::map<std::string, MetaTransaction::TableOps> ops) {
  // Validate all target tables first so the commit is all-or-nothing.
  for (const auto& [table_id, table_ops] : ops) {
    if (tables_.count(table_id) == 0) {
      return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
    }
    (void)table_ops;
  }
  // One tail append per commit: the in-memory stateful service absorbs the
  // mutation regardless of how many tables it spans.
  env_->Charge("bigmeta.commits", options_.commit_latency);
  uint64_t txn = next_txn_++;
  for (auto& [table_id, table_ops] : ops) {
    TableState& table = tables_[table_id];
    LogRecord rec;
    rec.txn = txn;
    rec.adds = std::move(table_ops.adds);
    rec.removes = std::move(table_ops.removes);
    table.tail.push_back(std::move(rec));
    MaybeCompact(&table);
  }
  return txn;
}

Result<uint64_t> BigMetadataStore::AppendFiles(
    const std::string& table_id, std::vector<CachedFileMeta> files) {
  MetaTransaction txn = BeginTransaction();
  txn.AddFiles(table_id, std::move(files));
  return txn.Commit();
}

Result<uint64_t> BigMetadataStore::RemoveFiles(
    const std::string& table_id, std::vector<std::string> paths) {
  MetaTransaction txn = BeginTransaction();
  txn.RemoveFiles(table_id, std::move(paths));
  return txn.Commit();
}

Result<uint64_t> BigMetadataStore::SwapFiles(
    const std::string& table_id, std::vector<std::string> remove_paths,
    std::vector<CachedFileMeta> adds) {
  MetaTransaction txn = BeginTransaction();
  txn.RemoveFiles(table_id, std::move(remove_paths));
  txn.AddFiles(table_id, std::move(adds));
  return txn.Commit();
}

void BigMetadataStore::RemovePaths(std::vector<CachedFileMeta>* files,
                                   const std::vector<std::string>& paths) {
  if (paths.empty()) return;
  std::set<std::string> removed(paths.begin(), paths.end());
  files->erase(std::remove_if(files->begin(), files->end(),
                              [&](const CachedFileMeta& f) {
                                return removed.count(f.file.path) > 0;
                              }),
               files->end());
}

void BigMetadataStore::ApplyRecord(std::vector<CachedFileMeta>* files,
                                   const LogRecord& rec) {
  RemovePaths(files, rec.removes);
  files->insert(files->end(), rec.adds.begin(), rec.adds.end());
}

void BigMetadataStore::FoldTail(TableState* table) {
  // The folded records are dropped right after, so their file metadata
  // moves into the baseline instead of being deep-copied.
  for (LogRecord& rec : table->tail) {
    RemovePaths(&table->baseline, rec.removes);
    table->baseline.insert(table->baseline.end(),
                           std::make_move_iterator(rec.adds.begin()),
                           std::make_move_iterator(rec.adds.end()));
    table->baseline_txn = rec.txn;
  }
  env_->Charge("bigmeta.compactions",
               static_cast<SimMicros>(options_.compaction_micros_per_file *
                                      static_cast<double>(
                                          table->baseline.size() + 1)));
  table->tail.clear();
}

void BigMetadataStore::MaybeCompact(TableState* table) {
  if (table->tail.size() < options_.compaction_threshold) return;
  FoldTail(table);
}

Result<std::vector<CachedFileMeta>> BigMetadataStore::Snapshot(
    const std::string& table_id, uint64_t txn) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  const TableState& table = it->second;
  if (txn < table.baseline_txn) {
    return Status::OutOfRange(
        StrCat("snapshot txn ", txn, " predates compacted baseline txn ",
               table.baseline_txn));
  }
  // Baseline scan (columnar) + tail reconcile, both charged.
  std::vector<CachedFileMeta> files = table.baseline;
  uint64_t tail_records = 0;
  for (const LogRecord& rec : table.tail) {
    if (rec.txn > txn) break;
    ApplyRecord(&files, rec);
    ++tail_records;
  }
  env_->Charge(
      "bigmeta.snapshots",
      options_.snapshot_base_latency +
          static_cast<SimMicros>(options_.baseline_micros_per_file *
                                 static_cast<double>(table.baseline.size())) +
          static_cast<SimMicros>(options_.tail_micros_per_record *
                                 static_cast<double>(tail_records)));
  return files;
}

Result<PrunedFiles> BigMetadataStore::PruneFiles(const std::string& table_id,
                                                 const ExprPtr& predicate,
                                                 uint64_t txn) const {
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> files,
                      Snapshot(table_id, txn));
  PrunedFiles result;
  result.candidates = files.size();
  if (!files.empty()) result.first_partition = files[0].file.partition;
  if (predicate == nullptr) {
    result.files = std::move(files);
    return result;
  }
  for (auto& f : files) {
    if (PruneDataFile(*predicate, f.file) == PruneResult::kCannotMatch) {
      ++result.pruned;
      continue;
    }
    result.files.push_back(std::move(f));
  }
  env_->counters().Add("bigmeta.files_pruned", result.pruned);
  return result;
}

Result<std::map<std::string, ColumnStats>> BigMetadataStore::TableStats(
    const std::string& table_id, uint64_t txn) const {
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> files,
                      Snapshot(table_id, txn));
  std::map<std::string, ColumnStats> merged;
  for (const auto& f : files) {
    for (const auto& [col, stats] : f.file.column_stats) {
      auto [it, inserted] = merged.try_emplace(col, stats);
      if (inserted) continue;
      ColumnStats& m = it->second;
      m.null_count += stats.null_count;
      m.row_count += stats.row_count;
      m.distinct_count += stats.distinct_count;  // upper bound
      if (!stats.min.is_null() &&
          (m.min.is_null() || stats.min < m.min)) {
        m.min = stats.min;
      }
      if (!stats.max.is_null() &&
          (m.max.is_null() || m.max < stats.max)) {
        m.max = stats.max;
      }
    }
  }
  return merged;
}

Result<uint64_t> BigMetadataStore::TableGeneration(
    const std::string& table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  const TableState& table = it->second;
  return table.tail.empty() ? table.baseline_txn : table.tail.back().txn;
}

Result<uint64_t> BigMetadataStore::TableGenerationAt(
    const std::string& table_id, uint64_t txn) const {
  if (txn == kLatestTxn) return TableGeneration(table_id);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  const TableState& table = it->second;
  if (txn < table.baseline_txn) {
    return Status::OutOfRange(
        StrCat("generation txn ", txn, " predates compacted baseline txn ",
               table.baseline_txn));
  }
  uint64_t gen = table.baseline_txn;
  for (const LogRecord& rec : table.tail) {
    if (rec.txn > txn) break;
    gen = rec.txn;
  }
  return gen;
}

Result<uint64_t> BigMetadataStore::TailLength(
    const std::string& table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  return static_cast<uint64_t>(it->second.tail.size());
}

Result<uint64_t> BigMetadataStore::BaselineSize(
    const std::string& table_id) const {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  return static_cast<uint64_t>(it->second.baseline.size());
}

Status BigMetadataStore::Compact(const std::string& table_id) {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no metadata table `", table_id, "`"));
  }
  FoldTail(&it->second);
  return Status::OK();
}

}  // namespace biglake
