#include "core/read_api.h"

#include <algorithm>
#include <future>
#include <optional>
#include <set>

#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/selection.h"
#include "common/cancel.h"
#include "common/strings.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "meta/metadata_cache.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

struct ReadSessionState {
  /// The id of the session this state was made for; a session carrying
  /// another's state is NotFound.
  std::string session_id;
  ReadSessionOptions options;
  Principal principal;
  const TableDef* table = nullptr;
  Credential credential;  // delegated, scoped to the table prefix
  /// Resolved fine-grained policy over every column the session reads:
  /// requested, predicate, pushed-aggregate inputs and group keys.
  EffectiveAccess access;
  /// The predicate's conjuncts that touch no masked column: the only part
  /// raw file and row-group statistics may prune with.
  ExprPtr prune_predicate;
  /// The predicate's masked columns; the predicate sees their masked
  /// values, so it never filters on what the caller may not read.
  std::set<std::string> masked_predicate_cols;
  std::vector<std::string> read_columns;  // pre-mask projection
  /// Block-cache projection key of a scan reading every table column; a
  /// narrower projection is served as a view of that block when resident.
  uint64_t full_projection_fp = 0;
  /// Per-stream overlap (see StreamOverlapSaved); slot s is written only
  /// by the task reading stream s.
  std::vector<SimMicros> overlap_saved;
};

namespace {

/// The state `session` carries, or NotFound when it carries none or
/// another session's.
Result<ReadSessionState*> StateOf(const ReadSession& session) {
  if (session.state == nullptr ||
      session.state->session_id != session.session_id) {
    return Status::NotFound(StrCat("no session `", session.session_id, "`"));
  }
  return session.state.get();
}

/// NotFound unless every name in `cols` is a column of `table` or one of
/// its hive partition columns.
Status CheckColumnsExist(const TableDef& table,
                         const std::set<std::string>& cols) {
  for (const auto& name : cols) {
    bool is_partition_col =
        std::find(table.partition_columns.begin(),
                  table.partition_columns.end(),
                  name) != table.partition_columns.end();
    if (table.schema->FieldIndex(name) < 0 && !is_partition_col) {
      return Status::NotFound(
          StrCat("no column `", name, "` in table `", table.id(), "`"));
    }
  }
  return Status::OK();
}

/// Greedy balanced assignment of files to at most `max_streams` streams.
std::vector<ReadStream> AssignStreams(std::vector<CachedFileMeta> files,
                                      uint32_t max_streams,
                                      const std::string& session_id) {
  uint32_t n = std::max<uint32_t>(
      1, std::min<uint32_t>(max_streams,
                            static_cast<uint32_t>(files.size())));
  std::vector<ReadStream> streams(n);
  for (uint32_t i = 0; i < n; ++i) {
    streams[i].stream_id = StrCat(session_id, "/stream-", i);
  }
  // Largest files first onto the least-loaded stream.
  std::sort(files.begin(), files.end(),
            [](const CachedFileMeta& a, const CachedFileMeta& b) {
              return a.file.row_count > b.file.row_count;
            });
  for (auto& f : files) {
    ReadStream* least = &streams[0];
    for (auto& s : streams) {
      if (s.estimated_rows < least->estimated_rows) least = &s;
    }
    least->estimated_rows += f.file.row_count;
    least->files.push_back(std::move(f));
  }
  return streams;
}

/// Output field for a possibly-masked column: non-nullify masks change the
/// type to STRING (hash/redact/last-four emit string tokens).
Field MaskedField(const Field& field,
                  const std::map<std::string, MaskType>& masks) {
  auto it = masks.find(field.name);
  if (it == masks.end()) return field;
  Field out = field;
  out.nullable = true;
  if (it->second != MaskType::kNullify) out.type = DataType::kString;
  return out;
}

/// What a caller may see of column `idx` of `batch` (at `sel` when given):
/// the masked values when the column is masked for them, else the column.
std::pair<Field, Column> SecuredColumn(
    const RecordBatch& batch, size_t idx,
    const std::map<std::string, MaskType>& masks,
    const std::vector<uint32_t>* sel) {
  const Field& f = batch.schema()->field(idx);
  auto mit = masks.find(f.name);
  const size_t rows = sel != nullptr ? sel->size() : batch.num_rows();
  if (mit != masks.end() && mit->second == MaskType::kNullify) {
    // Fully-masked column: NULLs directly, never gather the rows we would
    // immediately throw away.
    return {MaskedField(f, masks), Column::MakeNull(f.type, rows)};
  }
  Column col = sel != nullptr ? batch.column(idx).Gather(*sel)
                              : batch.column(idx);
  if (mit == masks.end()) return {f, std::move(col)};
  return {MaskedField(f, masks), ApplyMask(col, mit->second)};
}

/// `batch` with every column in `cols` replaced by its masked values, so a
/// predicate over it filters what the caller may see, never raw values.
RecordBatch MaskedView(const RecordBatch& batch,
                       const std::set<std::string>& cols,
                       const std::map<std::string, MaskType>& masks) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    if (cols.count(batch.schema()->field(i).name) == 0) {
      fields.push_back(batch.schema()->field(i));
      columns.push_back(batch.column(i));
      continue;
    }
    auto [f, col] = SecuredColumn(batch, i, masks, nullptr);
    fields.push_back(std::move(f));
    columns.push_back(std::move(col));
  }
  return RecordBatch(MakeSchema(std::move(fields)), std::move(columns));
}

/// The conjuncts of `predicate` that touch no masked column, ANDed; the
/// only part whose raw min/max statistics may prune files or row groups.
/// (Stats of a masked column describe raw values: `email IS NULL` under a
/// nullify mask matches every row although no raw value is NULL.)
ExprPtr PrunablePart(const ExprPtr& predicate,
                     const std::map<std::string, MaskType>& masks) {
  if (predicate == nullptr || masks.empty()) return predicate;
  std::vector<ExprPtr> conjuncts = {predicate};
  ExprPtr out;
  while (!conjuncts.empty()) {
    ExprPtr e = std::move(conjuncts.back());
    conjuncts.pop_back();
    if (e->kind() == Expr::Kind::kLogical &&
        e->logical_op() == LogicalOp::kAnd) {
      // Right child first onto the stack, so conjuncts pop left to right.
      for (auto it = e->children().rbegin(); it != e->children().rend();
           ++it) {
        conjuncts.push_back(*it);
      }
      continue;
    }
    std::set<std::string> refs;
    e->CollectColumns(&refs);
    if (std::any_of(refs.begin(), refs.end(), [&](const std::string& c) {
          return masks.count(c) > 0;
        })) {
      continue;
    }
    out = out == nullptr ? e : Expr::And(out, e);
  }
  return out;
}

/// The predicate's columns that are masked for the caller.
std::set<std::string> MaskedRefs(const ExprPtr& predicate,
                                 const std::map<std::string, MaskType>& masks) {
  std::set<std::string> out;
  if (predicate == nullptr) return out;
  predicate->CollectColumns(&out);
  for (auto it = out.begin(); it != out.end();) {
    it = masks.count(*it) > 0 ? std::next(it) : out.erase(it);
  }
  return out;
}

/// Approximate resident bytes of a parsed footer (schema + per-chunk
/// metadata), for cache capacity accounting.
uint64_t FooterFootprint(const ParquetFileMeta& meta) {
  uint64_t footprint = 64;
  for (const auto& rg : meta.row_groups) {
    footprint += 48 * rg.columns.size();
  }
  return footprint;
}

}  // namespace

Result<PrunedFiles> StorageReadApi::CollectFiles(const TableDef& table,
                                                 const Credential& credential,
                                                 const ExprPtr& predicate,
                                                 uint64_t txn,
                                                 uint64_t* files_total,
                                                 bool use_block_cache) {
  if (table.metadata_cache_enabled || table.kind == TableKind::kManaged ||
      table.kind == TableKind::kBigLakeManaged) {
    // Fast path: prune from the Big Metadata columnar cache, never touching
    // the object store (Sec 3.3).
    obs::MetricsRegistry::Default()
        .GetCounter(METRIC_METACACHE_LOOKUPS, {{"result", "hit"}})
        ->Increment();
    BL_ASSIGN_OR_RETURN(PrunedFiles pruned,
                        env_->meta().PruneFiles(table.id(), predicate, txn));
    *files_total = pruned.candidates;
    return pruned;
  }
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_METACACHE_LOOKUPS, {{"result", "miss"}})
      ->Increment();
  // Legacy path (pre-BigLake external tables): LIST the prefix, then peek at
  // every candidate file's footer to recover prunable statistics. Slow and
  // object-store-bound — this is the Figure 3/4 "before" configuration.
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location = table.location};
  BL_ASSIGN_OR_RETURN(std::vector<ObjectMetadata> listed,
                      store->ListAll(ctx, table.bucket, table.prefix));
  *files_total = listed.size();
  cache::BlockCache* cache =
      use_block_cache && env_->block_cache().enabled() ? &env_->block_cache()
                                                       : nullptr;
  PrunedFiles result;
  result.candidates = listed.size();
  for (const ObjectMetadata& obj : listed) {
    BL_RETURN_NOT_OK(CheckCredential(credential, table.bucket, obj.name,
                                     env_->sim().clock().Now()));
    CachedFileMeta entry;
    entry.file.path = obj.name;
    entry.file.size_bytes = obj.size;
    entry.generation = obj.generation;
    entry.file.partition = ParseHivePartition(obj.name);
    // Footer peeks dominate this path; a cached parse (keyed by the listed
    // generation, so a rewrite can never serve stale stats) skips them.
    std::string footer_key;
    std::shared_ptr<const ParquetFileMeta> meta;
    if (cache != nullptr) {
      footer_key = cache::FooterKey(
          cache::ObjectKeyPrefix(CloudProviderName(table.location.provider),
                                 table.bucket, obj.name),
          obj.generation);
      meta = cache->GetFooter(footer_key);
    }
    if (meta == nullptr) {
      ObjectSource source(store, ctx, table.bucket, obj.name, obj.size);
      auto parsed = ReadParquetFooter(source);
      if (!parsed.ok()) {
        // A transient store fault is not "not a data file": swallowing it
        // would silently drop the file from the listing.
        if (IsRetryable(parsed.status())) return parsed.status();
        continue;  // not a data file
      }
      auto owned =
          std::make_shared<const ParquetFileMeta>(std::move(parsed).value());
      if (cache != nullptr && obj.generation != 0 &&
          source.observed_generation() == obj.generation) {
        cache->PutFooter(footer_key, owned, FooterFootprint(*owned));
      }
      meta = std::move(owned);
    }
    entry.file.row_count = meta->total_rows;
    if (result.files.empty() && result.pruned == 0) {
      result.first_partition = entry.file.partition;
    }
    entry.file.column_stats = meta->FileColumnStatsByName();
    if (predicate != nullptr &&
        PruneDataFile(*predicate, entry.file) == PruneResult::kCannotMatch) {
      ++result.pruned;
      continue;
    }
    result.files.push_back(std::move(entry));
  }
  return result;
}

Result<ReadSession> StorageReadApi::CreateReadSession(
    const Principal& principal, const std::string& table_id,
    const ReadSessionOptions& options) {
  obs::ScopedSpan span("readapi:create_session", obs::Span::kRpc);
  span.SetAttr("table", table_id);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_READAPI_SESSIONS, {{"kind", "create"}})
      ->Increment();
  env_->sim().Charge("readapi.create_session", options_.create_session_latency);
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));

  // Coarse-grained IAM first.
  if (!table->iam.Allows(principal, Role::kReader)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not read table `", table_id, "`"));
  }

  // Delegated access: the session runs under the connection's service
  // account, scoped to the table prefix — never under the caller.
  Credential credential;
  if (!table->connection.empty()) {
    BL_ASSIGN_OR_RETURN(const Connection* conn,
                        env_->catalog().GetConnection(table->connection));
    credential = conn->service_account.ScopeDown(
        {table->bucket + "/" + table->prefix});
  } else {
    credential.principal = "sa:bigquery-internal";
  }

  // Every column the session reads is governed once: the requested ones,
  // the predicate's, and the pushed aggregates' inputs and group keys. A
  // denied one fails the session; a masked one is read masked, so a
  // predicate filters on and a pushed aggregate folds only what the caller
  // may see (see MaskedView, SecuredColumn).
  std::vector<std::string> requested = options.columns;
  if (requested.empty()) {
    for (const Field& f : table->schema->fields()) {
      requested.push_back(f.name);
    }
  }
  for (const AggSpec& spec : options.partial_aggregates) {
    if (spec.op == AggOp::kAvg) {
      return Status::InvalidArgument(
          "AVG is not pushable; push SUM and COUNT and divide client-side");
    }
  }
  std::set<std::string> predicate_cols;
  if (options.predicate != nullptr) {
    options.predicate->CollectColumns(&predicate_cols);
  }
  std::vector<std::string> governed = requested;
  auto read_too = [&governed](const std::string& c) {
    if (std::find(governed.begin(), governed.end(), c) == governed.end()) {
      governed.push_back(c);
    }
  };
  for (const std::string& c : predicate_cols) read_too(c);
  for (const AggSpec& spec : options.partial_aggregates) {
    if (!spec.input.empty()) read_too(spec.input);
  }
  for (const std::string& g : options.aggregate_group_by) read_too(g);
  BL_ASSIGN_OR_RETURN(EffectiveAccess access,
                      ResolveAccess(table->policy, principal, governed));

  // Server-side scan columns: the governed ones + row-filter columns, each
  // a table or hive partition column.
  std::set<std::string> scan_cols(governed.begin(), governed.end());
  if (access.row_filter != nullptr) {
    access.row_filter->CollectColumns(&scan_cols);
  }
  BL_RETURN_NOT_OK(CheckColumnsExist(*table, scan_cols));

  ReadSession session;
  session.session_id = StrCat("rs-", next_session_++);
  session.table_id = table_id;
  session.snapshot_txn = options.snapshot_txn == kLatestTxn
                             ? env_->meta().LatestTxn()
                             : options.snapshot_txn;

  // Collect + prune files, then shard into streams.
  const ExprPtr prune_predicate =
      PrunablePart(options.predicate, access.masked_columns);
  uint64_t files_total = 0;
  BL_ASSIGN_OR_RETURN(
      PrunedFiles pruned,
      CollectFiles(*table, credential, prune_predicate,
                   table->kind == TableKind::kManaged ||
                           table->kind == TableKind::kBigLakeManaged ||
                           table->metadata_cache_enabled
                       ? options.snapshot_txn
                       : kLatestTxn,
                   &files_total,
                   options.use_block_cache &&
                       !options.use_row_oriented_reader));
  session.files_total = files_total;
  session.files_pruned = pruned.pruned;

  // Output schema: requested columns, with mask-induced type changes.
  // Requested hive partition columns (not stored in the files) are served
  // as virtual columns; their type comes from the first candidate file's
  // partition values, so pruning every file does not change it.
  auto output_field = [&](const std::string& name) -> Field {
    int idx = table->schema->FieldIndex(name);
    if (idx >= 0) {
      return MaskedField(table->schema->field(idx), access.masked_columns);
    }
    DataType t = DataType::kInt64;
    for (const auto& [pcol, pval] : pruned.first_partition) {
      if (pcol == name && pval.is_string()) t = DataType::kString;
    }
    return {name, t, false};
  };
  std::vector<Field> out_fields;
  for (const auto& name : requested) out_fields.push_back(output_field(name));
  session.output_schema = MakeSchema(std::move(out_fields));
  if (!options.partial_aggregates.empty()) {
    // A pushed-aggregate stream returns partial aggregates, not the
    // projection: their schema is that of the aggregate over the (masked)
    // columns the session reads.
    std::vector<Field> read_fields;
    for (const auto& name : governed) {
      read_fields.push_back(output_field(name));
    }
    BL_ASSIGN_OR_RETURN(
        session.output_schema,
        AggregateOutputSchema(Schema(std::move(read_fields)),
                              options.aggregate_group_by,
                              options.partial_aggregates));
  }
  session.streams = AssignStreams(std::move(pruned.files),
                                  options.max_streams, session.session_id);

  // Table statistics for engine-side optimization (Sec 3.4).
  if (table->metadata_cache_enabled ||
      table->kind == TableKind::kManaged ||
      table->kind == TableKind::kBigLakeManaged) {
    auto stats = env_->meta().TableStats(table_id, options.snapshot_txn);
    if (stats.ok()) session.table_stats = std::move(stats).value();
  }

  auto state = std::make_shared<ReadSessionState>();
  state->session_id = session.session_id;
  state->options = options;
  state->principal = principal;
  state->table = table;
  state->credential = std::move(credential);
  state->masked_predicate_cols =
      MaskedRefs(options.predicate, access.masked_columns);
  state->access = std::move(access);
  state->prune_predicate = prune_predicate;
  state->read_columns.assign(scan_cols.begin(), scan_cols.end());
  std::vector<std::string> all_columns;
  for (const Field& f : table->schema->fields()) all_columns.push_back(f.name);
  state->full_projection_fp = cache::ProjectionFingerprint(all_columns);
  state->overlap_saved.assign(session.streams.size(), 0);
  session.state = std::move(state);

  auto& reg = obs::MetricsRegistry::Default();
  reg.GetHistogram(METRIC_READAPI_STREAM_FANOUT, {},
                   &obs::DefaultFanoutBounds())
      ->Observe(session.streams.size());
  reg.GetCounter(METRIC_READAPI_FILES_PRUNED)->Add(session.files_pruned);
  span.AddNum("files_total", session.files_total);
  span.AddNum("files_pruned", session.files_pruned);
  span.AddNum("streams", session.streams.size());
  return session;
}

Result<ReadSession> StorageReadApi::RefineSession(
    const ReadSession& session, const ExprPtr& extra_predicate) {
  BL_ASSIGN_OR_RETURN(const ReadSessionState* base_state, StateOf(session));
  if (extra_predicate == nullptr) {
    return Status::InvalidArgument("RefineSession requires a predicate");
  }
  const ReadSessionState& base = *base_state;
  const TableDef& table = *base.table;
  // Validate the new predicate's columns and govern them like
  // CreateReadSession does.
  std::set<std::string> extra_cols;
  extra_predicate->CollectColumns(&extra_cols);
  BL_RETURN_NOT_OK(CheckColumnsExist(table, extra_cols));
  BL_ASSIGN_OR_RETURN(
      EffectiveAccess extra_access,
      ResolveAccess(table.policy, base.principal,
                    std::vector<std::string>(extra_cols.begin(),
                                             extra_cols.end())));
  std::map<std::string, MaskType> masks = base.access.masked_columns;
  masks.insert(extra_access.masked_columns.begin(),
               extra_access.masked_columns.end());
  const ExprPtr extra_prunable = PrunablePart(extra_predicate, masks);
  obs::ScopedSpan span("readapi:refine_session", obs::Span::kRpc);
  span.SetAttr("table", table.id());
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_READAPI_SESSIONS, {{"kind", "refine"}})
      ->Increment();
  env_->sim().Charge("readapi.refine_session",
                     options_.refine_session_latency);

  // Re-prune the session's existing file set with the extra predicate —
  // no listing, no footer peeks, no fresh Spanner-side persistence.
  ReadSession refined = session;
  refined.session_id = StrCat(session.session_id, "+r", next_session_++);
  std::vector<CachedFileMeta> kept;
  uint64_t pruned_count = 0;
  for (const ReadStream& stream : session.streams) {
    for (const CachedFileMeta& f : stream.files) {
      if (extra_prunable != nullptr &&
          PruneDataFile(*extra_prunable, f.file) ==
              PruneResult::kCannotMatch) {
        ++pruned_count;
        continue;
      }
      kept.push_back(f);
    }
  }
  refined.files_pruned = session.files_pruned + pruned_count;
  refined.streams = AssignStreams(std::move(kept), base.options.max_streams,
                                  refined.session_id);
  span.AddNum("files_pruned", pruned_count);
  span.AddNum("streams", refined.streams.size());

  auto state = std::make_shared<ReadSessionState>(base);
  state->session_id = refined.session_id;
  state->options.predicate =
      state->options.predicate == nullptr
          ? extra_predicate
          : Expr::And(state->options.predicate, extra_predicate);
  state->access.masked_columns = std::move(masks);
  state->prune_predicate =
      PrunablePart(state->options.predicate, state->access.masked_columns);
  state->masked_predicate_cols =
      MaskedRefs(state->options.predicate, state->access.masked_columns);
  for (const auto& c : extra_cols) {
    if (std::find(state->read_columns.begin(), state->read_columns.end(),
                  c) == state->read_columns.end()) {
      state->read_columns.push_back(c);
    }
  }
  state->overlap_saved.assign(refined.streams.size(), 0);
  refined.state = std::move(state);
  return refined;
}

Result<std::vector<BatchHandle>> StorageReadApi::ReadStreamHandles(
    const ReadSession& session, size_t stream_index) {
  BL_ASSIGN_OR_RETURN(ReadSessionState * state, StateOf(session));
  if (stream_index >= session.streams.size()) {
    return Status::OutOfRange(StrCat("stream ", stream_index, " of ",
                                     session.streams.size()));
  }
  // One key per stream: each stream is read by exactly one task, so its
  // fault/retry decision sequence is single-threaded and deterministic.
  const std::string stream_key = StrCat(session.session_id, "/", stream_index);
  return fault::RetryResult<std::vector<BatchHandle>>(
      &env_->sim(), options_.retry, FaultSite::kReadRows, stream_key, [&] {
        return ReadRowsAttempt(session, *state, stream_index, stream_key);
      });
}

Result<std::vector<std::string>> StorageReadApi::ReadRows(
    const ReadSession& session, size_t stream_index) {
  BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                      ReadStreamHandles(session, stream_index));
  // The wire boundary: this is where (and only where) local batches meet
  // the Arrow-lite codec.
  std::vector<std::string> responses;
  responses.reserve(handles.size());
  for (const BatchHandle& h : handles) responses.push_back(h.ToWire());
  return responses;
}

Result<StorageReadApi::FileBlocks> StorageReadApi::FetchFileBlocks(
    const ReadSessionState& state, const TableDef& table,
    const ObjectStore* store, const CallerContext& ctx,
    const CachedFileMeta& fm, cache::BlockCache* cache,
    uint64_t projection_fp) const {
  FileBlocks out;
  // Delegated-access check on every object touched.
  BL_RETURN_NOT_OK(CheckCredential(state.credential, table.bucket,
                                   fm.file.path, env_->sim().clock().Now()));
  ObjectSource source(store, ctx, table.bucket, fm.file.path,
                      fm.file.size_bytes);
  std::string obj_prefix;
  if (cache != nullptr) {
    obj_prefix =
        cache::ObjectKeyPrefix(CloudProviderName(table.location.provider),
                               table.bucket, fm.file.path);
  }
  std::shared_ptr<const ParquetFileMeta> meta;
  if (cache != nullptr) {
    meta = cache->GetFooter(cache::FooterKey(obj_prefix, fm.generation));
    if (meta != nullptr) {
      ++out.cache_hits;
    } else {
      ++out.cache_misses;
    }
  }
  if (meta == nullptr) {
    auto parsed = ReadParquetFooter(source);
    if (!parsed.ok()) {
      // Transient faults must fail the attempt (the ReadRows retry loop
      // re-runs it); treating them as "non-data file" would return a
      // partial scan as success.
      if (IsRetryable(parsed.status())) return parsed.status();
      out.skip = true;  // non-data file under the prefix
      return out;
    }
    auto owned =
        std::make_shared<const ParquetFileMeta>(std::move(parsed).value());
    if (cache != nullptr && fm.generation != 0 &&
        source.observed_generation() == fm.generation) {
      cache->PutFooter(cache::FooterKey(obj_prefix, fm.generation), owned,
                       FooterFootprint(*owned));
    }
    meta = std::move(owned);
  }
  out.meta = meta;
  // Defensive: a file under the prefix whose schema lacks columns the
  // table declares is not part of this table (e.g. a foreign dataset
  // sharing the bucket) — skip it rather than misread it.
  for (const auto& col : state.read_columns) {
    if (table.schema->FieldIndex(col) >= 0 &&
        meta->schema->FieldIndex(col) < 0) {
      env_->sim().counters().Add("readapi.schema_mismatch_files", 1);
      obs::MetricsRegistry::Default()
          .GetCounter(METRIC_READAPI_SCHEMA_MISMATCHES)
          ->Increment();
      out.skip = true;
      return out;
    }
  }
  std::vector<std::string> cols_present;
  if (!state.options.use_row_oriented_reader) {
    for (const auto& c : state.read_columns) {
      if (meta->schema->FieldIndex(c) >= 0) cols_present.push_back(c);
    }
  }
  for (size_t g = 0; g < meta->row_groups.size(); ++g) {
    // Row-group level pruning from footer stats.
    if (state.prune_predicate != nullptr) {
      const RowGroupMeta& rg = meta->row_groups[g];
      auto lookup = [&](const std::string& col) -> const ColumnStats* {
        int idx = meta->schema->FieldIndex(col);
        if (idx < 0) return nullptr;
        return &rg.columns[static_cast<size_t>(idx)].stats;
      };
      if (state.prune_predicate->EvaluatePrune(lookup) ==
          PruneResult::kCannotMatch) {
        continue;
      }
    }
    if (state.options.use_row_oriented_reader) {
      // Legacy prototype: whole row group through boxed rows, then
      // transcode back to columnar (Sec 3.4 "before"). Never cached — the
      // before/after comparison keeps its uncached baseline.
      RowOrientedReader reader(&source, *meta);
      BL_ASSIGN_OR_RETURN(RecordBatch all, reader.ReadAllTranscoded());
      out.values_decoded += static_cast<uint64_t>(
          all.num_rows() * all.num_columns() *
          options_.row_oriented_cpu_multiplier);
      out.blocks.emplace_back(g,
                              std::make_shared<const RecordBatch>(
                                  std::move(all)));
      // The row reader has no projection: it decodes every column of every
      // row group, once per file.
      break;
    }
    // Vectorized path: only the needed columns, encodings preserved.
    std::shared_ptr<const RecordBatch> block;
    std::string block_key;
    if (cache != nullptr) {
      block_key =
          cache::BlockKey(obj_prefix, fm.generation, g, projection_fp);
      block = cache->GetBlock(block_key);
      if (block != nullptr) {
        ++out.cache_hits;
      } else {
        ++out.cache_misses;
      }
    }
    if (block == nullptr && cache != nullptr &&
        projection_fp != state.full_projection_fp) {
      // A scan of every column may have left this row group resident:
      // serve the narrower projection as a zero-copy view of it instead of
      // decoding, and caching, the same values a second time.
      std::shared_ptr<const RecordBatch> full = cache->PeekBlock(
          cache::BlockKey(obj_prefix, fm.generation, g,
                          state.full_projection_fp));
      if (full != nullptr) {
        auto view = full->Project(cols_present);
        if (view.ok()) {
          block = std::make_shared<const RecordBatch>(std::move(*view));
          if (fm.generation != 0) cache->PutBlock(block_key, block);
        }
      }
    }
    if (block == nullptr) {
      VectorizedReader reader(&source, *meta);
      BL_ASSIGN_OR_RETURN(RecordBatch rb,
                          reader.ReadRowGroup(g, cols_present));
      auto owned = std::make_shared<const RecordBatch>(std::move(rb));
      // Admission gate: every read this source made must have observed the
      // generation the session expects — a faulted or concurrently-
      // rewritten object must never be admitted (partial blocks poison).
      if (cache != nullptr && fm.generation != 0 &&
          source.observed_generation() == fm.generation) {
        cache->PutBlock(block_key, owned);
      }
      block = std::move(owned);
    }
    out.values_decoded += block->num_rows() * block->num_columns();
    out.blocks.emplace_back(g, std::move(block));
  }
  return out;
}

Result<std::vector<BatchHandle>> StorageReadApi::ReadRowsAttempt(
    const ReadSession& session, ReadSessionState& state, size_t stream_index,
    const std::string& stream_key) {
  const ReadStream& stream = session.streams[stream_index];
  const TableDef& table = *state.table;
  obs::ScopedSpan span("readapi:read_rows", obs::Span::kRpc);
  BL_RETURN_NOT_OK(
      CheckFault(&env_->sim(), FaultSite::kReadRows, "", stream_key));
  uint64_t rows_streamed = 0;
  uint64_t bytes_streamed = 0;
  std::vector<BatchHandle> responses;

  if (state.access.deny_all_rows) {
    // Row-governed table, caller granted no policy: zero rows, but a
    // well-formed (empty) response so engines see the schema.
    responses.push_back(
        BatchHandle::Local(RecordBatch::Empty(session.output_schema)));
    return responses;
  }

  if (table.kind == TableKind::kObjectTable) {
    return Status::InvalidArgument(
        "object tables are read through ObjectTableService, not ReadRows");
  }

  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table.location));
  CallerContext ctx{.location =
                        state.options.caller_location.value_or(table.location)};
  std::vector<std::string> requested = state.options.columns;
  if (requested.empty()) {
    for (const Field& f : table.schema->fields()) requested.push_back(f.name);
  }

  if (!state.options.partial_aggregates.empty()) {
    // Server-side aggregation consumes the scan columns, not the session
    // projection.
    requested = state.read_columns;
  }
  // Aggregate pushdown folds every block into one accumulator, built on
  // the first block (whose schema the others share).
  std::optional<HashAggregator> pushdown;
  uint64_t values_processed = 0;
  if (stream_index < state.overlap_saved.size()) {
    state.overlap_saved[stream_index] = 0;
  }
  cache::BlockCache* cache = nullptr;
  if (state.options.use_block_cache &&
      !state.options.use_row_oriented_reader &&
      env_->block_cache().enabled()) {
    cache = &env_->block_cache();
  }
  const uint64_t projection_fp =
      cache == nullptr ? 0 : cache::ProjectionFingerprint(state.read_columns);

  // Consumer half of the pipeline: virtual partition columns, filters,
  // masking, serialization. Operates on zero-copy shared views of the
  // immutable (possibly cached) decoded blocks — `*block` below is a
  // refcount bump per buffer, not a copy — so cache hits can never change
  // the rows a stream returns, and a block evicted or invalidated mid-scan
  // stays alive until the last in-flight view drops it.
  auto process_file = [&](const CachedFileMeta& fm,
                          const FileBlocks& fb) -> Status {
    if (fb.skip) return Status::OK();
    for (const auto& [group, block] : fb.blocks) {
      (void)group;
      if (block->num_rows() == 0) continue;
      RecordBatch batch = *block;

      // Materialize referenced hive partition columns as constant virtual
      // columns so predicates and row filters can mention them even though
      // they are not stored in the data files.
      BL_ASSIGN_OR_RETURN(batch, AddPartitionColumns(std::move(batch),
                                                     fm.file.partition,
                                                     state.read_columns));

      // Requested columns present in this file (drops filter-only columns).
      std::vector<std::string> available;
      for (const auto& c : requested) {
        if (batch.schema()->FieldIndex(c) >= 0) available.push_back(c);
      }

      // Filter→project→mask in one pass: kernel masks over the decoded
      // block (predicate AND row filter) make one selection vector; then
      // each requested column is gathered at the selection (or shared
      // whole when nothing filters) and secured.
      std::optional<SelectionVector> sel;
      if (state.options.predicate != nullptr ||
          state.access.row_filter != nullptr) {
        std::vector<uint8_t> mask;
        if (state.options.predicate != nullptr) {
          BL_ASSIGN_OR_RETURN(
              kernels::BoolVec bv,
              kernels::EvaluatePredicate(
                  *state.options.predicate,
                  state.masked_predicate_cols.empty()
                      ? batch
                      : MaskedView(batch, state.masked_predicate_cols,
                                   state.access.masked_columns)));
          mask = kernels::BoolVecToMask(bv);
        }
        // Security row filter — enforced here, inside the trust boundary.
        if (state.access.row_filter != nullptr) {
          BL_ASSIGN_OR_RETURN(
              kernels::BoolVec bv,
              kernels::EvaluatePredicate(*state.access.row_filter, batch));
          std::vector<uint8_t> rf_mask = kernels::BoolVecToMask(bv);
          if (mask.empty()) {
            mask = std::move(rf_mask);
          } else {
            kernels::AndMaskInPlace(&mask, rf_mask);
          }
        }
        sel = SelectionVector::FromMask(mask);
        kernels::ObserveSelectivity(sel->size(), batch.num_rows());
        if (sel->empty()) continue;
      }
      std::vector<Field> out_fields;
      std::vector<Column> out_cols;
      out_fields.reserve(available.size());
      out_cols.reserve(available.size());
      for (const auto& name : available) {
        auto [f, col] = SecuredColumn(
            batch, static_cast<size_t>(batch.schema()->FieldIndex(name)),
            state.access.masked_columns,
            sel.has_value() ? &sel->ids() : nullptr);
        out_fields.push_back(std::move(f));
        out_cols.push_back(std::move(col));
      }
      if (sel.has_value() && !out_cols.empty()) {
        kernels::CountSelectionMaterialization();
      }
      RecordBatch secured(MakeSchema(std::move(out_fields)),
                          std::move(out_cols));

      if (!state.options.partial_aggregates.empty()) {
        // Aggregate pushdown: accumulate; one partial batch per stream.
        if (!pushdown.has_value()) {
          BL_ASSIGN_OR_RETURN(
              pushdown,
              HashAggregator::Make(secured.schema(),
                                   state.options.aggregate_group_by,
                                   state.options.partial_aggregates));
        }
        BL_RETURN_NOT_OK(pushdown->Add(secured));
        values_processed += secured.num_rows();
        continue;
      }

      rows_streamed += secured.num_rows();
      // Chunk into response-sized batches. Each piece is a zero-copy slice
      // wrapped in a local handle; nothing is serialized here — the codec
      // runs only if a caller demands wire bytes (ToWire).
      for (size_t off = 0; off < secured.num_rows();
           off += state.options.response_batch_rows) {
        RecordBatch piece = secured.Slice(
            off, std::min<size_t>(state.options.response_batch_rows,
                                  secured.num_rows() - off));
        BatchHandle handle = BatchHandle::Local(std::move(piece));
        const uint64_t sz = handle.SizeBytes();
        env_->sim().counters().Add("readapi.bytes_returned", sz);
        bytes_streamed += sz;
        responses.push_back(std::move(handle));
      }
    }
    values_processed += fb.values_decoded;
    return Status::OK();
  };

  // The readahead window: files are consumed strictly in file order from a
  // window of up to `window` fetch+decode units. A window of one fetches
  // each file inline on this thread, under the caller's own shard, metrics
  // delta and cache txn. A wider window keeps its units in flight on the
  // dedicated pool, double-buffered against this consumer: each unit
  // accumulates its simulated charges in a private ChargeShard and its
  // cache mutations in a private CacheTxn, and is folded back here in file
  // order, so the clock, every counter and the cache end up bit-identical
  // to the window of one at any depth and worker count. The wall-clock
  // benefit of the overlap is accounted analytically below (overlap_saved),
  // never by racing the fold order.
  const size_t num_files = stream.files.size();
  const size_t window = std::max<size_t>(
      1, std::min<size_t>(state.options.readahead_depth, num_files));
  // Per-file cancellation checkpoints. Inside a scan region this thread's
  // clock view is its stream shard (base + own charges), so a deadline
  // expires at the same file at any worker count.
  const CancelToken* cancel_token = CurrentCancelToken();
  struct PrefetchUnit {
    ChargeShard shard;
    cache::CacheTxn txn;
    Result<FileBlocks> result{Status::Internal("prefetch unit pending")};
    std::promise<void> done;
    std::future<void> ready;
  };
  ThreadPool* pool = nullptr;  // set for a window wider than one
  std::vector<std::unique_ptr<PrefetchUnit>> units;
  std::vector<SimMicros> unit_micros;
  obs::Counter* issued_metric = nullptr;
  obs::Counter* wasted_metric = nullptr;
  if (window > 1) {
    pool = prefetch_pool();
    units.resize(num_files);
    unit_micros.reserve(num_files);
    auto& mreg = obs::MetricsRegistry::Default();
    issued_metric = mreg.GetCounter(METRIC_PREFETCH_ISSUED);
    wasted_metric = mreg.GetCounter(METRIC_PREFETCH_WASTED);
  }
  // Issues the next file: a window of one fetches it when it is consumed; a
  // wider one submits its unit to the pool now.
  size_t issued = 0;
  auto issue = [&] {
    const size_t j = issued++;
    if (pool == nullptr) return;
    auto unit = std::make_unique<PrefetchUnit>();
    unit->shard.base_now = env_->sim().clock().Now();
    unit->ready = unit->done.get_future();
    PrefetchUnit* u = unit.get();
    units[j] = std::move(unit);
    issued_metric->Increment();
    env_->sim().counters().Add("readapi.prefetch_issued", 1);
    const CachedFileMeta* fmp = &stream.files[j];
    pool->Submit([this, u, fmp, &state, &table, store, ctx, cache,
                  projection_fp, cancel_token] {
      ScopedChargeShard charge_scope(&u->shard);
      cache::ScopedCacheTxn txn_scope(&u->txn);
      ScopedCancelToken cancel_scope(cancel_token);
      // Checkpoint against the unit's issue-time clock view (its shard
      // base): a unit issued after the deadline expired fails without
      // fetching, deterministically at any worker count.
      Status admitted =
          cancel_token != nullptr ? cancel_token->Check() : Status::OK();
      if (admitted.ok()) {
        u->result = FetchFileBlocks(state, table, store, ctx, *fmp, cache,
                                    projection_fp);
      } else {
        u->result = std::move(admitted);
      }
      u->done.set_value();
    });
  };
  while (issued < std::min(window, num_files)) issue();
  Status first_error;
  uint64_t wasted = 0;
  for (size_t i = 0; i < issued; ++i) {
    const CachedFileMeta& fm = stream.files[i];
    std::unique_ptr<PrefetchUnit> unit =
        pool != nullptr ? std::move(units[i]) : nullptr;
    if (unit != nullptr) unit->ready.wait();
    // Consumer-side checkpoint, before file i is fetched or folded: units
    // already in flight still fold below (their charges are real), they
    // just count as wasted once the stream is being torn down.
    if (first_error.ok() && cancel_token != nullptr) {
      Status c = cancel_token->Check();
      if (!c.ok()) first_error = std::move(c);
    }
    std::optional<obs::ScopedSpan> file_span;
    if (first_error.ok()) {
      file_span.emplace("readapi:file", obs::Span::kObjstore);
      if (file_span->get() != nullptr) file_span->SetAttr("path", fm.file.path);
    }
    std::optional<Result<FileBlocks>> fetched_inline;
    if (unit == nullptr) {
      if (!first_error.ok()) continue;
      fetched_inline.emplace(FetchFileBlocks(state, table, store, ctx, fm,
                                             cache, projection_fp));
    } else {
      // Fold the unit in file order — even when draining after an error,
      // so the charges and the cache state never depend on where in the
      // window the failure landed or on pool scheduling.
      env_->sim().clock().Advance(unit->shard.advanced);
      for (const auto& [key, delta] : unit->shard.counters) {
        env_->sim().counters().Add(key, delta);
      }
      env_->block_cache().FoldTxn(&unit->txn);
      unit_micros.push_back(unit->shard.advanced);
      if (!first_error.ok()) {
        ++wasted;
        continue;
      }
    }
    const Result<FileBlocks>& fetched =
        unit != nullptr ? unit->result : *fetched_inline;
    if (!fetched.ok()) {
      first_error = fetched.status();
      continue;
    }
    file_span->AddNum("hits", fetched->cache_hits);
    file_span->AddNum("misses", fetched->cache_misses);
    file_span.reset();
    Status processed = process_file(fm, *fetched);
    if (!processed.ok()) {
      first_error = std::move(processed);
      continue;
    }
    if (issued < num_files) issue();
  }
  if (wasted > 0) {
    wasted_metric->Add(wasted);
    env_->sim().counters().Add("readapi.prefetch_wasted", wasted);
  }
  BL_RETURN_NOT_OK(first_error);
  if (pool != nullptr) {
    // Analytic overlap: within each consecutive window of units the
    // critical path pays only the slowest unit; the rest was hidden behind
    // it. Total (resource) simulated time is untouched — only the
    // per-stream wall estimate the engines compute shrinks by `saved`.
    SimMicros saved = 0;
    for (size_t w = 0; w < unit_micros.size(); w += window) {
      SimMicros sum = 0;
      SimMicros slowest = 0;
      size_t end = std::min<size_t>(unit_micros.size(), w + window);
      for (size_t k = w; k < end; ++k) {
        sum += unit_micros[k];
        slowest = std::max(slowest, unit_micros[k]);
      }
      saved += sum - slowest;
    }
    if (stream_index < state.overlap_saved.size()) {
      state.overlap_saved[stream_index] = saved;
    }
    env_->sim().counters().Add("readapi.prefetch_overlap_saved_micros", saved);
  }
  if (!state.options.partial_aggregates.empty()) {
    // A stream that read no rows answers zero partial-aggregate rows.
    RecordBatch merged = RecordBatch::Empty(session.output_schema);
    if (pushdown.has_value()) {
      BL_ASSIGN_OR_RETURN(merged, pushdown->Finish(/*final_step=*/false));
    }
    rows_streamed += merged.num_rows();
    BatchHandle handle = BatchHandle::Local(std::move(merged));
    const uint64_t sz = handle.SizeBytes();
    env_->sim().counters().Add("readapi.bytes_returned", sz);
    bytes_streamed += sz;
    env_->sim().counters().Add("readapi.pushdown_aggregates", 1);
    responses.push_back(std::move(handle));
  }
  // Server-side CPU accounting: the vectorized pipeline is an order of
  // magnitude cheaper per value than the row-oriented prototype.
  auto server_cpu = static_cast<SimMicros>(
      options_.vectorized_micros_per_value *
      static_cast<double>(values_processed));
  env_->sim().Charge("readapi.read_rows", server_cpu);
  env_->sim().counters().Add("readapi.cpu_micros", server_cpu);
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter(METRIC_READAPI_ROWS_RETURNED)->Add(rows_streamed);
  reg.GetCounter(METRIC_READAPI_BYTES_RETURNED)->Add(bytes_streamed);
  reg.GetCounter(METRIC_READAPI_SERVER_CPU_MICROS)->Add(server_cpu);
  reg.GetHistogram(METRIC_READAPI_STREAM_ROWS, {}, &obs::DefaultRowsBounds())
      ->Observe(rows_streamed);
  span.AddNum("rows", rows_streamed);
  span.AddNum("bytes", bytes_streamed);
  span.AddNum("server_cpu_micros", server_cpu);
  if (responses.empty()) {
    responses.push_back(
        BatchHandle::Local(RecordBatch::Empty(session.output_schema)));
  }
  return responses;
}

SimMicros StorageReadApi::StreamOverlapSaved(const ReadSession& session,
                                             size_t stream_index) {
  auto state = StateOf(session);
  if (!state.ok()) return 0;
  const std::vector<SimMicros>& saved = (*state)->overlap_saved;
  return stream_index < saved.size() ? saved[stream_index] : 0;
}

ThreadPool* StorageReadApi::prefetch_pool() {
  std::call_once(prefetch_pool_once_, [this] {
    // Sized for overlap, not throughput: units mostly wait on simulated
    // object-store latency, and the analytic charge folding is what the
    // benches measure.
    prefetch_pool_ = std::make_unique<ThreadPool>(4);
  });
  return prefetch_pool_.get();
}

Result<RecordBatch> StorageReadApi::ReadStreamBatch(const ReadSession& session,
                                                    size_t stream_index) {
  BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                      ReadStreamHandles(session, stream_index));
  // In-process fast path: opening a local handle is a refcount bump — the
  // whole stream flows to the engine without touching the codec.
  std::vector<RecordBatch> batches;
  batches.reserve(handles.size());
  for (const BatchHandle& h : handles) {
    BL_ASSIGN_OR_RETURN(RecordBatch b, h.Open());
    batches.push_back(std::move(b));
  }
  return RecordBatch::Concat(batches);
}

Result<std::pair<ReadStream, ReadStream>> StorageReadApi::SplitStream(
    const ReadStream& stream) {
  if (stream.files.size() < 2) {
    return Status::FailedPrecondition(
        "stream has too few files to split");
  }
  ReadStream a, b;
  a.stream_id = stream.stream_id + "/a";
  b.stream_id = stream.stream_id + "/b";
  for (size_t i = 0; i < stream.files.size(); ++i) {
    ReadStream& target = (i % 2 == 0) ? a : b;
    target.files.push_back(stream.files[i]);
    target.estimated_rows += stream.files[i].file.row_count;
  }
  return std::make_pair(std::move(a), std::move(b));
}

}  // namespace biglake
