#include "core/object_table.h"

#include "columnar/kernels.h"
#include "common/random.h"
#include "common/strings.h"

namespace biglake {

std::string ObjectTableService::MakeUri(const CloudLocation& location,
                                        const std::string& bucket,
                                        const std::string& path) {
  const char* scheme = location.provider == CloudProvider::kGCP   ? "gs"
                       : location.provider == CloudProvider::kAWS ? "s3"
                                                                  : "az";
  return StrCat(scheme, "://", bucket, "/", path);
}

Status ObjectTableService::CreateObjectTable(TableDef def) {
  def.kind = TableKind::kObjectTable;
  std::string id = def.id();
  BL_RETURN_NOT_OK(env_->catalog().CreateTable(std::move(def)));
  return Refresh(id);
}

Status ObjectTableService::Refresh(const std::string& table_id) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  BL_ASSIGN_OR_RETURN(const Connection* conn,
                      env_->catalog().GetConnection(table->connection));
  BL_RETURN_NOT_OK(CheckCredential(conn->service_account, table->bucket,
                                   table->prefix,
                                   env_->sim().clock().Now()));
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table->location));
  CallerContext ctx{.location = table->location};
  CacheRefreshOptions opts;
  opts.parse_footers = false;
  opts.parse_hive_partitions = false;
  return env_->cache_manager()
      .Refresh(table_id, *store, ctx, table->bucket, table->prefix, opts)
      .status();
}

Result<RecordBatch> ObjectTableService::BuildAttributeBatch(
    const TableDef& table) {
  BL_ASSIGN_OR_RETURN(std::vector<CachedFileMeta> entries,
                      env_->meta().Snapshot(table.id()));
  BatchBuilder builder(ObjectTableSchema());
  for (const CachedFileMeta& e : entries) {
    BL_RETURN_NOT_OK(builder.AppendRow(
        {Value::String(MakeUri(table.location, table.bucket, e.file.path)),
         Value::Int64(static_cast<int64_t>(e.file.size_bytes)),
         e.content_type.empty() ? Value::Null()
                                : Value::String(e.content_type),
         Value::Timestamp(static_cast<int64_t>(e.create_time)),
         Value::Timestamp(static_cast<int64_t>(e.update_time)),
         Value::Int64(static_cast<int64_t>(e.generation))}));
  }
  return builder.Finish();
}

Result<RecordBatch> ObjectTableService::Scan(const Principal& principal,
                                             const std::string& table_id,
                                             const ExprPtr& filter) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  if (table->kind != TableKind::kObjectTable) {
    return Status::InvalidArgument(
        StrCat("table `", table_id, "` is not an object table"));
  }
  if (!table->iam.Allows(principal, Role::kReader)) {
    return Status::PermissionDenied(
        StrCat(principal, " may not read `", table_id, "`"));
  }
  SchemaPtr attr_schema = ObjectTableSchema();
  std::vector<std::string> attr_columns;
  for (const Field& f : attr_schema->fields()) {
    attr_columns.push_back(f.name);
  }
  BL_ASSIGN_OR_RETURN(EffectiveAccess access,
                      ResolveAccess(table->policy, principal, attr_columns));
  BL_ASSIGN_OR_RETURN(RecordBatch batch, BuildAttributeBatch(*table));
  if (access.deny_all_rows) {
    return RecordBatch::Empty(batch.schema());
  }
  for (const ExprPtr& pred : {access.row_filter, filter}) {
    if (pred == nullptr) continue;
    BL_ASSIGN_OR_RETURN(kernels::BoolVec mask,
                        kernels::EvaluatePredicate(*pred, batch));
    batch = batch.Filter(kernels::BoolVecToMask(mask));
  }
  // Attribute masking (rarely used, but uniform with structured tables).
  if (!access.masked_columns.empty()) {
    std::vector<Column> cols;
    std::vector<Field> fields;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const Field& f = batch.schema()->field(c);
      auto mit = access.masked_columns.find(f.name);
      if (mit == access.masked_columns.end()) {
        cols.push_back(batch.column(c));
        fields.push_back(f);
      } else {
        cols.push_back(ApplyMask(batch.column(c), mit->second));
        Field masked = f;
        masked.nullable = true;
        if (mit->second != MaskType::kNullify) masked.type = DataType::kString;
        fields.push_back(masked);
      }
    }
    batch = RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
  }
  env_->sim().counters().Add("objecttable.scans", 1);
  return batch;
}

Result<RecordBatch> ObjectTableService::Sample(const Principal& principal,
                                               const std::string& table_id,
                                               double fraction,
                                               uint64_t seed) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("sample fraction must be in (0, 1]");
  }
  BL_ASSIGN_OR_RETURN(RecordBatch all, Scan(principal, table_id));
  Random rng(seed);
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    if (rng.NextDouble() < fraction) {
      keep.push_back(static_cast<uint32_t>(i));
    }
  }
  return all.Gather(keep);
}

Result<std::vector<SignedUrlRow>> ObjectTableService::GenerateSignedUrls(
    const Principal& principal, const std::string& table_id,
    const ExprPtr& filter, SimMicros ttl) {
  BL_ASSIGN_OR_RETURN(const TableDef* table,
                      env_->catalog().GetTable(table_id));
  // The scan applies the caller's row policies: only visible rows can be
  // turned into URLs (the Sec 4.1 invariant).
  BL_ASSIGN_OR_RETURN(RecordBatch visible, Scan(principal, table_id, filter));
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(table->location));
  SimMicros expiry = env_->sim().clock().Now() + ttl;
  std::string uri_prefix = MakeUri(table->location, table->bucket, "");
  std::vector<SignedUrlRow> urls;
  BL_ASSIGN_OR_RETURN(const Column* uri_col, visible.ColumnByName("uri"));
  for (size_t r = 0; r < visible.num_rows(); ++r) {
    std::string uri = uri_col->GetValue(r).string_value();
    std::string path = uri.substr(uri_prefix.size());
    urls.push_back({uri, store->SignUrl(table->bucket, path, expiry)});
  }
  return urls;
}

}  // namespace biglake
