#include "extengine/spark_lite.h"

#include <algorithm>
#include <optional>
#include <set>

#include "columnar/kernels.h"
#include "common/strings.h"
#include "format/object_source.h"
#include "format/parquet_lite.h"
#include "meta/metadata_cache.h"

namespace biglake {

namespace {
using Node = DataFrame::Node;
using NodePtr = DataFrame::NodePtr;

/// Spark-lite CPU per value, in its operators and its own leaves: JVM row
/// processing is costlier than the server-side vectorized pipeline.
constexpr double kCpuMicrosPerValue = 0.004;

/// The engine every Spark-lite query runs on.
EngineOptions EngineOptionsFor(const SparkOptions& options) {
  EngineOptions engine;
  engine.num_workers = options.executors;
  engine.use_table_stats = options.use_session_stats;
  engine.dynamic_partition_pruning = options.use_session_stats;
  engine.cpu_micros_per_value = kCpuMicrosPerValue;
  return engine;
}
}  // namespace

SparkLiteEngine::SparkLiteEngine(LakehouseEnv* env, StorageReadApi* read_api,
                                 SparkOptions options)
    : env_(env),
      read_api_(read_api),
      options_(options),
      query_engine_(env, read_api, EngineOptionsFor(options)) {}

DataFrame SparkLiteEngine::ReadBigLake(std::string table_id) {
  auto n = std::make_shared<Node>();
  n->scan.table_id = std::move(table_id);
  return DataFrame(this, n);
}

DataFrame SparkLiteEngine::ReadParquetDirect(CloudLocation location,
                                             std::string bucket,
                                             std::string prefix) {
  auto n = std::make_shared<Node>();
  n->scan.direct = true;
  n->scan.location = location;
  n->scan.bucket = std::move(bucket);
  n->scan.prefix = std::move(prefix);
  return DataFrame(this, n);
}

DataFrame DataFrame::Over(PlanPtr op, std::vector<NodePtr> children) const {
  auto n = std::make_shared<Node>();
  n->op = std::move(op);
  n->children = std::move(children);
  return DataFrame(engine_, n);
}

DataFrame DataFrame::Filter(ExprPtr predicate) const {
  // Pushdown: a filter directly over a scan folds into the scan spec, the
  // way Spark's DataSourceV2 pushes predicates into the connector.
  if (node_->op == nullptr) {
    auto n = std::make_shared<Node>(*node_);
    n->scan.predicate = n->scan.predicate == nullptr
                            ? predicate
                            : Expr::And(n->scan.predicate, predicate);
    return DataFrame(engine_, n);
  }
  return Over(Plan::Filter(nullptr, std::move(predicate)), {node_});
}

DataFrame DataFrame::Select(std::vector<std::string> columns) const {
  if (node_->op == nullptr && node_->scan.columns.empty()) {
    auto n = std::make_shared<Node>(*node_);
    n->scan.columns = std::move(columns);
    return DataFrame(engine_, n);
  }
  std::vector<ExprPtr> refs;
  for (const std::string& c : columns) refs.push_back(Expr::Col(c));
  return Over(Plan::Project(nullptr, std::move(columns), std::move(refs)),
              {node_});
}

DataFrame DataFrame::Join(const DataFrame& right,
                          std::vector<std::string> left_keys,
                          std::vector<std::string> right_keys) const {
  return Over(Plan::HashJoin(nullptr, nullptr, std::move(left_keys),
                             std::move(right_keys)),
              {node_, right.node_});
}

DataFrame DataFrame::Aggregate(std::vector<std::string> group_by,
                               std::vector<AggSpec> aggregates) const {
  return Over(Plan::Aggregate(nullptr, std::move(group_by),
                              std::move(aggregates)),
              {node_});
}

DataFrame DataFrame::OrderBy(std::vector<SortKey> keys) const {
  return Over(Plan::OrderBy(nullptr, std::move(keys)), {node_});
}

DataFrame DataFrame::Limit(uint64_t limit) const {
  return Over(Plan::Limit(nullptr, limit), {node_});
}

Result<SparkResult> DataFrame::Collect(const Principal& principal) const {
  SparkResult result;
  SparkQueryStats& stats = result.stats;
  SimTimer timer(engine_->env_->sim());
  // One metadata snapshot for the whole query: the pushed-aggregate
  // sessions lowered here and every scan the engine runs.
  const meta::TxnSnapshot snapshot{engine_->env_->meta().LatestTxn(), {}};
  BL_ASSIGN_OR_RETURN(PlanPtr plan,
                      engine_->Lower(principal, node_, snapshot.meta_txn,
                                     &stats));
  BL_ASSIGN_OR_RETURN(QueryResult run,
                      engine_->query_engine_.Execute(principal, plan, nullptr,
                                                     nullptr, &snapshot));
  result.batch = std::move(run.batch);
  stats.wall_micros += run.stats.wall_micros;
  stats.files_scanned += run.stats.files_scanned;
  stats.files_pruned += run.stats.files_pruned;
  stats.read_streams += run.stats.read_streams;
  stats.build_side_swaps += run.stats.build_side_swaps;
  stats.dpp_scans += run.stats.dpp_scans;
  stats.rows_returned = result.batch.num_rows();
  stats.total_micros = timer.ElapsedMicros();
  engine_->env_->sim().counters().Add("spark.queries", 1);
  return result;
}

void SparkLiteEngine::ChargeCpu(uint64_t values, SparkQueryStats* stats) {
  auto micros = static_cast<SimMicros>(kCpuMicrosPerValue *
                                       static_cast<double>(values));
  env_->sim().Charge("spark.cpu", micros);
  stats->wall_micros += micros / std::max<uint32_t>(1, options_.executors);
}

Result<PlanPtr> SparkLiteEngine::Lower(const Principal& principal,
                                       const NodePtr& node,
                                       uint64_t snapshot_txn,
                                       SparkQueryStats* stats) {
  if (node->op == nullptr) {
    const ScanSpec& scan = node->scan;
    if (!scan.direct) {
      return Plan::Scan(scan.table_id, scan.columns, scan.predicate);
    }
    BL_ASSIGN_OR_RETURN(RecordBatch rows, DirectScan(scan, stats));
    return Plan::Values(std::move(rows));
  }
  // Aggregate pushdown: COUNT/SUM/MIN/MAX over a connector scan run
  // server-side; only per-stream partials cross the wire.
  const Plan& op = *node->op;
  bool pushable = op.kind == Plan::Kind::kAggregate &&
                  node->children[0]->op == nullptr &&
                  !node->children[0]->scan.direct && !op.aggregates.empty();
  for (const AggSpec& spec : op.aggregates) {
    if (spec.op == AggOp::kAvg) pushable = false;
  }
  if (pushable) {
    BL_ASSIGN_OR_RETURN(
        RecordBatch rows,
        PushedAggregate(principal, *node, snapshot_txn, stats));
    return Plan::Values(std::move(rows));
  }
  std::vector<PlanPtr> children;
  for (const NodePtr& child : node->children) {
    BL_ASSIGN_OR_RETURN(PlanPtr lowered,
                        Lower(principal, child, snapshot_txn, stats));
    children.push_back(std::move(lowered));
  }
  auto plan = std::make_shared<Plan>(op);
  plan->children = std::move(children);
  return PlanPtr(std::move(plan));
}

Result<RecordBatch> SparkLiteEngine::PushedAggregate(
    const Principal& principal, const Node& node, uint64_t snapshot_txn,
    SparkQueryStats* stats) {
  const Plan& agg = *node.op;
  const ScanSpec& scan = node.children[0]->scan;
  // The session requests no columns (= all): the direct read T-SPARK
  // compares it with is not column-pruned either.
  ReadSessionOptions opts;
  opts.predicate = scan.predicate;
  opts.snapshot_txn = snapshot_txn;
  opts.max_streams = options_.executors;
  opts.aggregate_group_by = agg.group_by;
  opts.partial_aggregates = agg.aggregates;
  SimTimer plan_timer(env_->sim());
  BL_ASSIGN_OR_RETURN(
      ReadSession session,
      read_api_->CreateReadSession(principal, scan.table_id, opts));
  stats->wall_micros += plan_timer.ElapsedMicros();
  ++stats->aggregates_pushed;
  env_->sim().counters().Add("spark.aggregate_pushdowns", 1);
  stats->files_scanned += session.files_total - session.files_pruned;
  stats->files_pruned += session.files_pruned;
  stats->read_streams += session.streams.size();
  // Executors read the streams in waves; each wave's wall time is its
  // slowest stream.
  std::vector<RecordBatch> partials;
  std::vector<SimMicros> elapsed;
  for (size_t s = 0; s < session.streams.size(); ++s) {
    SimTimer t(env_->sim());
    BL_ASSIGN_OR_RETURN(RecordBatch b, read_api_->ReadStreamBatch(session, s));
    elapsed.push_back(t.ElapsedMicros());
    partials.push_back(std::move(b));
  }
  std::sort(elapsed.rbegin(), elapsed.rend());
  for (size_t i = 0; i < elapsed.size(); i += options_.executors) {
    stats->wall_micros += elapsed[i];
  }
  size_t partial_rows = 0;
  for (const RecordBatch& p : partials) partial_rows += p.num_rows();
  ChargeCpu(partial_rows, stats);
  return MergePartialAggregates(partials, agg.group_by, agg.aggregates);
}

Result<RecordBatch> SparkLiteEngine::DirectScan(const ScanSpec& scan,
                                                SparkQueryStats* stats) {
  BL_ASSIGN_OR_RETURN(ObjectStore * store, env_->FindStore(scan.location));
  CallerContext ctx{.location = scan.location};
  SimTimer list_timer(env_->sim());
  // Every direct query re-lists the prefix (no metadata cache).
  BL_ASSIGN_OR_RETURN(std::vector<ObjectMetadata> listed,
                      store->ListAll(ctx, scan.bucket, scan.prefix));
  stats->direct_list_calls += 1;
  stats->wall_micros += list_timer.ElapsedMicros();  // listing serializes
  // The predicate may mention columns outside the projection, including
  // hive partition columns: those are read (or materialized as constant
  // columns) for the filter, then projected away.
  std::vector<std::string> pred_cols;
  if (scan.predicate != nullptr) {
    std::set<std::string> refs;
    scan.predicate->CollectColumns(&refs);
    pred_cols.assign(refs.begin(), refs.end());
  }
  std::vector<RecordBatch> batches;
  std::optional<RecordBatch> all_pruned;  // the empty result's shape
  std::vector<SimMicros> file_elapsed;
  for (const ObjectMetadata& obj : listed) {
    SimTimer file_timer(env_->sim());
    ObjectSource source(store, ctx, scan.bucket, obj.name, obj.size);
    auto meta = ReadParquetFooter(source);
    if (!meta.ok()) {
      // Transient store faults surface to the caller; only structurally
      // non-Parquet objects are skipped as non-data files.
      if (IsRetryable(meta.status())) return meta.status();
      continue;
    }
    auto partition = ParseHivePartition(obj.name);
    // Output columns (the projection, else every stored column), then the
    // predicate's; only the stored ones are read.
    std::vector<std::string> out_cols = scan.columns;
    if (out_cols.empty()) {
      for (const Field& f : meta->schema->fields()) out_cols.push_back(f.name);
    }
    std::vector<std::string> wanted = out_cols;
    for (const std::string& c : pred_cols) {
      if (std::find(wanted.begin(), wanted.end(), c) == wanted.end()) {
        wanted.push_back(c);
      }
    }
    std::vector<std::string> read_cols;
    for (const std::string& c : wanted) {
      if (meta->schema->FieldIndex(c) >= 0) read_cols.push_back(c);
    }
    auto shape = [&](RecordBatch b) -> Result<RecordBatch> {
      BL_ASSIGN_OR_RETURN(b, AddPartitionColumns(std::move(b), partition,
                                                 wanted));
      if (scan.predicate != nullptr) {
        BL_ASSIGN_OR_RETURN(kernels::BoolVec mask,
                            kernels::EvaluatePredicate(*scan.predicate, b));
        b = b.Filter(kernels::BoolVecToMask(mask));
      }
      if (wanted == out_cols && read_cols == out_cols) return b;
      return b.Project(out_cols);
    };
    // Footer-level pruning (the only pruning available without a cache), on
    // the file's manifest entry built from its footer the way the Read API's
    // LIST+footer path builds it.
    if (scan.predicate != nullptr &&
        PruneDataFile(*scan.predicate,
                      {.path = obj.name,
                       .size_bytes = obj.size,
                       .row_count = meta->total_rows,
                       .partition = partition,
                       .column_stats = meta->FileColumnStatsByName()}) ==
            PruneResult::kCannotMatch) {
      ++stats->files_pruned;
      if (!all_pruned.has_value()) {
        BL_ASSIGN_OR_RETURN(SchemaPtr stored,
                            meta->schema->Project(read_cols));
        BL_ASSIGN_OR_RETURN(all_pruned, shape(RecordBatch::Empty(stored)));
      }
      continue;
    }
    ++stats->files_scanned;
    VectorizedReader reader(&source, *meta);
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      BL_ASSIGN_OR_RETURN(RecordBatch b, reader.ReadRowGroup(g, read_cols));
      // Spark applies the predicate itself (no trusted enforcement layer).
      BL_ASSIGN_OR_RETURN(b, shape(std::move(b)));
      ChargeCpu(b.num_rows() * b.num_columns(), stats);
      batches.push_back(std::move(b));
    }
    file_elapsed.push_back(file_timer.ElapsedMicros());
  }
  // Executors process files in waves; each wave's wall time is its slowest
  // file (same analytic parallelism model as connector streams).
  std::sort(file_elapsed.rbegin(), file_elapsed.rend());
  for (size_t i = 0; i < file_elapsed.size(); i += options_.executors) {
    stats->wall_micros += file_elapsed[i];
  }
  if (batches.empty()) {
    if (all_pruned.has_value()) return *std::move(all_pruned);
    return Status::NotFound(
        StrCat("no Parquet-lite files under ", scan.bucket, "/", scan.prefix));
  }
  return RecordBatch::Concat(batches);
}

}  // namespace biglake
