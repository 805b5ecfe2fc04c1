#include "core/write_api.h"

#include "common/strings.h"
#include "format/parquet_lite.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

Result<std::string> StorageWriteApi::CreateWriteStream(
    const Principal& principal, const std::string& table_id, WriteMode mode) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  if (!table->iam.Allows(principal, Role::kWriter)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not write table `", table_id, "`"));
  }
  if (table->kind != TableKind::kManaged &&
      table->kind != TableKind::kBigLakeManaged) {
    return Status::InvalidArgument(
        StrCat("table `", table_id, "` (", TableKindName(table->kind),
               ") does not accept Write API streams"));
  }
  StreamState state;
  state.info.stream_id = StrCat("ws-", next_stream_++);
  state.info.table_id = table_id;
  state.info.mode = mode;
  state.table = table;
  std::string id = state.info.stream_id;
  streams_[id] = std::move(state);
  return id;
}

Result<CachedFileMeta> StorageWriteApi::WriteDataFile(
    const TableDef& table, const std::vector<RecordBatch>& batches) {
  ParquetWriter writer(table.schema);
  for (const RecordBatch& b : batches) {
    BL_RETURN_NOT_OK(writer.Append(b));
  }
  BL_ASSIGN_OR_RETURN(std::string bytes, writer.Finish());

  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location = table.location};
  std::string name = StrCat(table.prefix, "data/", "f-", next_file_++, ".plk");
  PutOptions po;
  po.content_type = "application/x-parquet-lite";
  uint64_t size = bytes.size();
  // The name is fixed before the (retried) put: each attempt re-sends the
  // same bytes to the same object, so recovery is invisible to readers.
  BL_ASSIGN_OR_RETURN(
      uint64_t gen,
      fault::RetryResult<uint64_t>(
          &env_->sim(), options_.retry, FaultSite::kObjPut,
          StrCat(table.bucket, "/", name), [&] {
            return store->Put(ctx, table.bucket, name, std::string(bytes), po);
          }));

  CachedFileMeta meta;
  meta.file.path = name;
  meta.file.size_bytes = size;
  meta.generation = gen;
  meta.content_type = po.content_type;
  meta.create_time = env_->sim().clock().Now();
  uint64_t rows = 0;
  for (const RecordBatch& b : batches) rows += b.num_rows();
  meta.file.row_count = rows;
  // Column statistics straight from the written data.
  if (!batches.empty()) {
    BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(batches));
    for (size_t c = 0; c < all.num_columns(); ++c) {
      meta.file.column_stats[all.schema()->field(c).name] =
          ComputeColumnStats(all.column(c));
    }
  }
  return meta;
}

Result<uint64_t> StorageWriteApi::AppendRows(const std::string& stream_id,
                                             const RecordBatch& batch,
                                             std::optional<uint64_t> offset) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  StreamState& stream = it->second;
  if (stream.info.finalized) {
    return Status::FailedPrecondition(
        StrCat("stream `", stream_id, "` is finalized"));
  }
  if (!batch.schema()->Equals(*stream.table->schema)) {
    return Status::InvalidArgument("append schema does not match table");
  }
  obs::ScopedSpan span("writeapi:append", obs::Span::kRpc);
  env_->sim().Charge("writeapi.appends", options_.append_latency);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_APPENDS)
      ->Increment();

  // Exactly-once offset protocol.
  if (offset.has_value()) {
    if (*offset < stream.info.rows_appended) {
      // Duplicate retry of an already-applied append: acknowledge as-is.
      env_->sim().counters().Add("writeapi.duplicate_appends", 1);
      return stream.info.rows_appended;
    }
    if (*offset > stream.info.rows_appended) {
      return Status::OutOfRange(
          StrCat("append offset ", *offset, " beyond stream size ",
                 stream.info.rows_appended));
    }
  }

  stream.buffered.push_back(batch);
  stream.buffered_rows += batch.num_rows();
  stream.info.rows_appended += batch.num_rows();
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_ROWS_APPENDED)
      ->Add(batch.num_rows());
  span.AddNum("rows", batch.num_rows());

  if (stream.info.mode == WriteMode::kCommitted &&
      stream.buffered_rows >= options_.committed_flush_rows) {
    BL_RETURN_NOT_OK(FlushCommitted(&stream));
  }
  return stream.info.rows_appended;
}

Status StorageWriteApi::FlushCommitted(StreamState* stream) {
  if (stream->buffered_rows == 0) return Status::OK();
  obs::ScopedSpan span("writeapi:commit", obs::Span::kRpc);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_COMMITS, {{"mode", "single"}})
      ->Increment();
  const std::string& stream_id = stream->info.stream_id;
  BL_RETURN_NOT_OK(fault::RetryStatus(
      &env_->sim(), options_.retry, FaultSite::kWriteCommit, stream_id, [&] {
        return CheckFault(&env_->sim(), FaultSite::kWriteCommit, "",
                          stream_id);
      }));
  BL_ASSIGN_OR_RETURN(CachedFileMeta file,
                      WriteDataFile(*stream->table, stream->buffered));
  // A commit makes any cached decode of this object path stale (the
  // generation key already fences it; this reclaims the bytes eagerly).
  env_->block_cache().InvalidateObject(
      CloudProviderName(stream->table->location.provider),
      stream->table->bucket, file.file.path);
  BL_RETURN_NOT_OK(
      env_->meta().AppendFiles(stream->info.table_id, {file}).status());
  // The commit moved the table's generation, so dependent result-cache keys
  // are already unreachable; this reclaims their bytes eagerly.
  env_->result_cache().InvalidateTable(stream->info.table_id);
  stream->buffered.clear();
  stream->buffered_rows = 0;
  return Status::OK();
}

Status StorageWriteApi::FinalizeStream(const std::string& stream_id) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  StreamState& stream = it->second;
  if (stream.info.mode == WriteMode::kCommitted) {
    // Committed streams flush any remainder and are done: nothing is left
    // to commit, so the stream is dropped.
    BL_RETURN_NOT_OK(FlushCommitted(&stream));
    streams_.erase(it);
    return Status::OK();
  }
  stream.info.finalized = true;
  return Status::OK();
}

Result<uint64_t> StorageWriteApi::BatchCommit(
    const std::vector<std::string>& stream_ids) {
  // Validate all streams first (all-or-nothing).
  std::vector<StreamState*> to_commit;
  for (const auto& id : stream_ids) {
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::NotFound(StrCat("no write stream `", id, "`"));
    }
    StreamState& stream = it->second;
    if (stream.info.mode != WriteMode::kPending) {
      return Status::FailedPrecondition(
          StrCat("stream `", id, "` is not a pending stream"));
    }
    if (!stream.info.finalized) {
      return Status::FailedPrecondition(
          StrCat("stream `", id, "` must be finalized before commit"));
    }
    to_commit.push_back(&stream);
  }
  // Write data files, then one metadata transaction across all tables.
  obs::ScopedSpan span("writeapi:batch_commit", obs::Span::kRpc);
  span.AddNum("streams", to_commit.size());
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_WRITEAPI_COMMITS, {{"mode", "batch"}})
      ->Increment();
  const std::string commit_key =
      stream_ids.empty() ? std::string("batch") : stream_ids.front();
  BL_RETURN_NOT_OK(fault::RetryStatus(
      &env_->sim(), options_.retry, FaultSite::kWriteCommit, commit_key, [&] {
        return CheckFault(&env_->sim(), FaultSite::kWriteCommit, "",
                          commit_key);
      }));
  MetaTransaction txn = env_->meta().BeginTransaction();
  for (StreamState* stream : to_commit) {
    if (stream->buffered_rows == 0) continue;
    BL_ASSIGN_OR_RETURN(CachedFileMeta file,
                        WriteDataFile(*stream->table, stream->buffered));
    env_->block_cache().InvalidateObject(
        CloudProviderName(stream->table->location.provider),
        stream->table->bucket, file.file.path);
    txn.AddFiles(stream->info.table_id, {file});
    stream->buffered.clear();
    stream->buffered_rows = 0;
  }
  BL_ASSIGN_OR_RETURN(uint64_t commit_txn, txn.Commit());
  for (StreamState* stream : to_commit) {
    env_->result_cache().InvalidateTable(stream->info.table_id);
  }
  // Committed streams are done; any later call on them is NotFound.
  for (const std::string& id : stream_ids) streams_.erase(id);
  return commit_txn;
}

Result<WriteStreamInfo> StorageWriteApi::GetStream(
    const std::string& stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound(StrCat("no write stream `", stream_id, "`"));
  }
  return it->second.info;
}

}  // namespace biglake
