#include "format/iceberg_lite.h"

#include "columnar/ipc.h"
#include "common/coding.h"
#include "common/strings.h"

namespace biglake {

namespace {
constexpr uint32_t kPointerMagic = 0x49434531;  // "ICE1"

void EncodeSnapshot(std::string* dst, const IcebergSnapshot& s) {
  PutVarint64(dst, s.snapshot_id);
  PutVarint64(dst, s.timestamp);
  PutLengthPrefixed(dst, s.manifest_object);
  PutVarint64(dst, s.num_files);
  PutVarint64(dst, s.total_rows);
}

Status DecodeSnapshot(Decoder* dec, IcebergSnapshot* out) {
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->snapshot_id));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->timestamp));
  BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->manifest_object));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->num_files));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->total_rows));
  return Status::OK();
}

std::string EncodePointer(const IcebergTableMetadata& meta) {
  std::string out;
  PutFixed32(&out, kPointerMagic);
  EncodeSchema(&out, *meta.schema);
  PutVarint64(&out, meta.partition_columns.size());
  for (const auto& c : meta.partition_columns) PutLengthPrefixed(&out, c);
  PutVarint64(&out, meta.snapshots.size());
  for (const auto& s : meta.snapshots) EncodeSnapshot(&out, s);
  PutVarint64(&out, meta.current_snapshot_id);
  return out;
}

Result<IcebergTableMetadata> DecodePointer(std::string_view data) {
  Decoder dec(data);
  uint32_t magic = 0;
  BL_RETURN_NOT_OK(dec.GetFixed32(&magic));
  if (magic != kPointerMagic) {
    return Status::DataLoss("bad Iceberg-lite pointer magic");
  }
  IcebergTableMetadata meta;
  BL_ASSIGN_OR_RETURN(meta.schema, DecodeSchema(&dec));
  uint64_t n;
  BL_RETURN_NOT_OK(dec.GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string c;
    BL_RETURN_NOT_OK(dec.GetLengthPrefixedString(&c));
    meta.partition_columns.push_back(std::move(c));
  }
  BL_RETURN_NOT_OK(dec.GetVarint64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    IcebergSnapshot s;
    BL_RETURN_NOT_OK(DecodeSnapshot(&dec, &s));
    meta.snapshots.push_back(std::move(s));
  }
  BL_RETURN_NOT_OK(dec.GetVarint64(&meta.current_snapshot_id));
  return meta;
}

std::string EncodeManifest(const std::vector<DataFileEntry>& files) {
  std::string out;
  PutVarint64(&out, files.size());
  for (const auto& f : files) EncodeDataFileEntry(&out, f);
  return out;
}

Result<std::vector<DataFileEntry>> DecodeManifest(std::string_view data) {
  Decoder dec(data);
  uint64_t n;
  BL_RETURN_NOT_OK(dec.GetVarint64(&n));
  std::vector<DataFileEntry> files;
  files.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DataFileEntry e;
    BL_RETURN_NOT_OK(DecodeDataFileEntry(&dec, &e));
    files.push_back(std::move(e));
  }
  return files;
}

}  // namespace

PruneResult PruneDataFile(const Expr& predicate, const DataFileEntry& file) {
  // Scratch for the probed partition value; EvaluatePrune uses the pointer
  // only within the call.
  ColumnStats point;
  return predicate.EvaluatePrune(
      [&](const std::string& col) -> const ColumnStats* {
        for (const auto& [pcol, pval] : file.partition) {
          if (pcol == col && !pval.is_null()) {
            point.min = pval;
            point.max = pval;
            point.row_count = file.row_count;
            return &point;
          }
        }
        auto it = file.column_stats.find(col);
        return it == file.column_stats.end() ? nullptr : &it->second;
      });
}

void EncodeDataFileEntry(std::string* dst, const DataFileEntry& e) {
  PutLengthPrefixed(dst, e.path);
  PutVarint64(dst, e.size_bytes);
  PutVarint64(dst, e.row_count);
  PutVarint64(dst, e.partition.size());
  for (const auto& [col, val] : e.partition) {
    PutLengthPrefixed(dst, col);
    EncodeValue(dst, val);
  }
  PutVarint64(dst, e.column_stats.size());
  for (const auto& [col, stats] : e.column_stats) {
    PutLengthPrefixed(dst, col);
    EncodeColumnStats(dst, stats);
  }
}

Status DecodeDataFileEntry(Decoder* dec, DataFileEntry* out) {
  BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->path));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->size_bytes));
  BL_RETURN_NOT_OK(dec->GetVarint64(&out->row_count));
  uint64_t n;
  BL_RETURN_NOT_OK(dec->GetVarint64(&n));
  out->partition.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string col;
    Value val;
    BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&col));
    BL_RETURN_NOT_OK(DecodeValue(dec, &val));
    out->partition.emplace_back(std::move(col), std::move(val));
  }
  BL_RETURN_NOT_OK(dec->GetVarint64(&n));
  out->column_stats.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string col;
    ColumnStats stats;
    BL_RETURN_NOT_OK(dec->GetLengthPrefixedString(&col));
    BL_RETURN_NOT_OK(DecodeColumnStats(dec, &stats));
    out->column_stats.emplace(std::move(col), std::move(stats));
  }
  return Status::OK();
}

const IcebergSnapshot* IcebergTableMetadata::CurrentSnapshot() const {
  if (current_snapshot_id == 0) return nullptr;
  for (const auto& s : snapshots) {
    if (s.snapshot_id == current_snapshot_id) return &s;
  }
  return nullptr;
}

Result<IcebergTable> IcebergTable::Create(
    ObjectStore* store, const CallerContext& caller, const std::string& bucket,
    const std::string& prefix, SchemaPtr schema,
    std::vector<std::string> partition_columns) {
  IcebergTable table(store, bucket, prefix);
  table.metadata_.schema = std::move(schema);
  table.metadata_.partition_columns = std::move(partition_columns);
  PutOptions create_only;
  create_only.if_generation_match = 0;
  create_only.content_type = "application/x-iceberg-lite";
  BL_ASSIGN_OR_RETURN(
      uint64_t gen,
      store->Put(caller, bucket, table.PointerObjectName(),
                 EncodePointer(table.metadata_), create_only));
  table.pointer_generation_ = gen;
  return table;
}

Result<IcebergTable> IcebergTable::Load(ObjectStore* store,
                                        const CallerContext& caller,
                                        const std::string& bucket,
                                        const std::string& prefix) {
  IcebergTable table(store, bucket, prefix);
  BL_RETURN_NOT_OK(table.LoadPointer(caller));
  return table;
}

Status IcebergTable::LoadPointer(const CallerContext& caller) {
  BL_ASSIGN_OR_RETURN(ObjectMetadata meta,
                      store_->Stat(caller, bucket_, PointerObjectName()));
  BL_ASSIGN_OR_RETURN(std::string data,
                      store_->Get(caller, bucket_, PointerObjectName()));
  BL_ASSIGN_OR_RETURN(metadata_, DecodePointer(data));
  pointer_generation_ = meta.generation;
  return Status::OK();
}

Status IcebergTable::Refresh(const CallerContext& caller) {
  return LoadPointer(caller);
}

Status IcebergTable::Commit(const CallerContext& caller,
                            std::vector<DataFileEntry> files, bool append,
                            const IcebergCommitOptions& opts) {
  // One attempt: assemble the new file list, write the manifest, then CAS
  // the pointer. Everything the attempt mutates beyond the store is local
  // until the CAS lands, so a whole attempt is safe to retry.
  auto attempt = [&]() -> Status {
    std::vector<DataFileEntry> full;
    if (append && metadata_.current_snapshot_id != 0) {
      BL_ASSIGN_OR_RETURN(full, ReadCurrentManifest(caller));
    }
    for (const auto& f : files) full.push_back(f);

    uint64_t new_id = metadata_.current_snapshot_id + 1;
    std::string manifest_name =
        StrCat(prefix_, "metadata/manifest-", new_id, "-",
               pointer_generation_);
    PutOptions manifest_put;
    manifest_put.content_type = "application/x-iceberg-lite-manifest";
    auto mput = store_->Put(caller, bucket_, manifest_name,
                            EncodeManifest(full), manifest_put);
    if (!mput.ok()) return mput.status();

    IcebergTableMetadata next = metadata_;
    IcebergSnapshot snap;
    snap.snapshot_id = new_id;
    snap.manifest_object = manifest_name;
    snap.num_files = full.size();
    uint64_t rows = 0;
    for (const auto& f : full) rows += f.row_count;
    snap.total_rows = rows;
    next.snapshots.push_back(snap);
    next.current_snapshot_id = new_id;

    PutOptions cas;
    cas.if_generation_match = pointer_generation_;
    cas.content_type = "application/x-iceberg-lite";
    auto put = store_->Put(caller, bucket_, PointerObjectName(),
                           EncodePointer(next), cas);
    if (!put.ok()) return put.status();
    metadata_ = std::move(next);
    pointer_generation_ = *put;
    return Status::OK();
  };

  fault::Retryer retryer(store_->env(), opts.RetryPolicyForCommit(),
                         FaultSite::kObjCas,
                         StrCat(bucket_, "/", PointerObjectName()));
  for (;;) {
    Status last = attempt();
    if (last.ok()) return last;
    if (last.IsFailedPrecondition()) {
      // Foreign commit won the race: reload and retry immediately (no
      // backoff — the conflict carries fresh information, not congestion).
      if (!retryer.RetryImmediately()) return last;
      Status reload = LoadPointer(caller);
      if (!reload.ok()) {
        if (!IsRetryable(reload) || !retryer.BackoffAndRetry()) return reload;
      }
      continue;
    }
    if (!IsRetryable(last)) return last;
    if (!retryer.BackoffAndRetry()) return last;
    if (last.IsResourceExhausted()) {
      // Pointer object is being hammered: the backoff just slept (virtual
      // time) so the per-object rate limiter drains. This is what caps
      // object-store table formats at a handful of commits per second.
      store_->env()->counters().Add("iceberg.commit_backoffs", 1);
    }
  }
}

Status IcebergTable::CommitAppend(const CallerContext& caller,
                                  std::vector<DataFileEntry> new_files,
                                  const IcebergCommitOptions& opts) {
  return Commit(caller, std::move(new_files), /*append=*/true, opts);
}

Status IcebergTable::CommitReplace(const CallerContext& caller,
                                   std::vector<DataFileEntry> files,
                                   const IcebergCommitOptions& opts) {
  return Commit(caller, std::move(files), /*append=*/false, opts);
}

Result<std::vector<DataFileEntry>> IcebergTable::ReadCurrentManifest(
    const CallerContext& caller) const {
  const IcebergSnapshot* snap = metadata_.CurrentSnapshot();
  if (snap == nullptr) return std::vector<DataFileEntry>{};
  BL_ASSIGN_OR_RETURN(std::string data,
                      store_->Get(caller, bucket_, snap->manifest_object));
  return DecodeManifest(data);
}

Result<std::vector<DataFileEntry>> IcebergTable::ReadManifestAt(
    const CallerContext& caller, uint64_t snapshot_id) const {
  for (const auto& s : metadata_.snapshots) {
    if (s.snapshot_id == snapshot_id) {
      BL_ASSIGN_OR_RETURN(std::string data,
                          store_->Get(caller, bucket_, s.manifest_object));
      return DecodeManifest(data);
    }
  }
  return Status::NotFound(StrCat("no snapshot ", snapshot_id));
}

}  // namespace biglake
