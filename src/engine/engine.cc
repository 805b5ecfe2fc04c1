#include "engine/engine.h"

#include <algorithm>
#include <optional>
#include <set>

#include "columnar/buffer.h"
#include "columnar/kernels.h"
#include "common/strings.h"
#include "engine/operators.h"
#include "engine/optimizer.h"
#include "engine/plan_fingerprint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace biglake {

namespace {

const char* PlanKindName(Plan::Kind kind) {
  switch (kind) {
    case Plan::Kind::kScan:
      return "scan";
    case Plan::Kind::kFilter:
      return "filter";
    case Plan::Kind::kProject:
      return "project";
    case Plan::Kind::kHashJoin:
      return "hash_join";
    case Plan::Kind::kAggregate:
      return "aggregate";
    case Plan::Kind::kOrderBy:
      return "order_by";
    case Plan::Kind::kLimit:
      return "limit";
    case Plan::Kind::kValues:
      return "values";
    case Plan::Kind::kMap:
      return "map";
  }
  return "unknown";
}

}  // namespace

ThreadPool* QueryEngine::ChunkPool(const ChunkedBatch& in) {
  return in.chunks.size() > 1 ? pool() : nullptr;
}

void QueryEngine::ChargeCpu(uint64_t values, QueryStats* stats) {
  // Accumulate in double and convert to integral micros once per operator,
  // carrying the fraction forward — many small operators whose per-call
  // cost is < 1 µs would otherwise all floor to 0 and vanish.
  cpu_carry_ += options_.cpu_micros_per_value * static_cast<double>(values);
  auto micros = static_cast<SimMicros>(cpu_carry_);
  cpu_carry_ -= static_cast<double>(micros);
  env_->sim().Charge("engine.cpu", micros);
  obs::MetricsRegistry::Default()
      .GetCounter(METRIC_ENGINE_CPU_MICROS)
      ->Add(micros);
  obs::AddCurrentSpanNum("cpu_micros", micros);
  stats->total_micros += micros;
  stats->wall_micros += micros / std::max<uint32_t>(1, options_.num_workers);
}

ThreadPool* QueryEngine::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  }
  return pool_.get();
}

uint64_t QueryEngine::EstimateRows(const PlanPtr& plan) {
  switch (plan->kind) {
    case Plan::Kind::kScan: {
      auto snap = env_->meta().Snapshot(plan->table_id);
      if (!snap.ok()) return 1ull << 40;  // unknown: assume huge
      uint64_t rows = 0;
      for (const auto& f : *snap) rows += f.file.row_count;
      // Crude predicate selectivity.
      if (plan->scan_predicate != nullptr) rows /= 10;
      return rows;
    }
    case Plan::Kind::kFilter:
      return EstimateRows(plan->children[0]) / 10;
    case Plan::Kind::kHashJoin:
      return std::max(EstimateRows(plan->children[0]),
                      EstimateRows(plan->children[1]));
    case Plan::Kind::kAggregate:
      return std::max<uint64_t>(1, EstimateRows(plan->children[0]) / 100);
    case Plan::Kind::kLimit:
      return plan->limit;
    case Plan::Kind::kValues:
      return plan->values.num_rows();
    default:
      return plan->children.empty() ? 0 : EstimateRows(plan->children[0]);
  }
}

Result<QueryResult> QueryEngine::Execute(const Principal& principal,
                                         const PlanPtr& input_plan,
                                         obs::QueryProfile* profile,
                                         const CancelToken* cancel,
                                         const meta::TxnSnapshot* snapshot) {
  if (input_plan == nullptr) return Status::InvalidArgument("null plan");
  // Everything below — the result-cache key, build-side selection, DPP and
  // execution — sees only the rewritten plan (engine/optimizer.h).
  const PlanPtr plan = OptimizePlan(env_->catalog(), input_plan);
  // A fresh query must not inherit fractional CPU micros carried over from a
  // previous query on a reused engine — that made repeated identical queries
  // charge slightly different amounts depending on session history.
  cpu_carry_ = 0.0;
  // Pin the whole query to one metadata snapshot: caller-supplied (a
  // transaction's consistent view) or the latest commit. Every scan and the
  // result-cache key derive from this single value, so cross-table reads are
  // snapshot-isolated even with commits landing mid-session.
  // (A snapshot pinned before any commit has meta_txn 0, which is a real
  // pin — an empty view — not "latest": see meta::kLatestTxn.)
  snapshot_txn_ =
      snapshot != nullptr ? snapshot->meta_txn : env_->meta().LatestTxn();
  // The token governs everything below — operator entries, ParallelFor
  // chunks, Read API fetch loops — for the lifetime of this call.
  std::optional<ScopedCancelToken> cancel_scope;
  if (cancel != nullptr) cancel_scope.emplace(cancel);
  ThreadPoolStats pool_before;
  if (pool_ != nullptr) pool_before = pool_->Stats();
  // Buffer-pool activity is snapshotted at the same serial points as the
  // thread-pool stats; the deltas are commutative sums over a worker-count
  // invariant set of buffer ops, so they are profile-deterministic.
  const BufferPool::Stats buf_before = BufferPool::Default().snapshot();

  obs::Span* root = nullptr;
  if (profile != nullptr) {
    root = profile->Begin(&env_->sim(), "query");
  }
  // Only install a context when profiling; otherwise leave any caller's
  // context (e.g. an Omni job trace) in place.
  std::optional<obs::ScopedTraceContext> trace_scope;
  if (root != nullptr) trace_scope.emplace(profile->tracer(), root);

  QueryResult result;
  SimTimer timer(env_->sim());
  Status exec_status = Status::OK();
  // Result-cache probe: key composition is uncharged (watermark reads), the
  // probe itself charges deterministic virtual time inside ResultCache::Get.
  cache::ResultCache& result_cache = env_->result_cache();
  PlanCacheKey cache_key;
  bool served_from_cache = false;
  if (options_.enable_result_cache && result_cache.enabled()) {
    cache_key = MakeResultCacheKey(principal, *plan, options_, env_->meta(),
                                   snapshot_txn_);
  }
  if (cache_key.cacheable) {
    if (auto cached = result_cache.Get(cache_key.key)) {
      obs::ScopedSpan stage("resultcache:hit", obs::Span::kStage);
      result.batch = *cached;
      stage.AddNum("rows", result.batch.num_rows());
      served_from_cache = true;
    }
  }
  if (!served_from_cache) {
    obs::ScopedSpan stage("execute", obs::Span::kStage);
    auto chunks = ExecuteNode(principal, plan, &result.stats);
    exec_status = chunks.status();
    if (chunks.ok()) {
      // The root contiguity point: a result is one batch.
      ThreadPool* concat_pool = ChunkPool(*chunks);
      auto batch = std::move(*chunks).Contiguous(concat_pool);
      exec_status = batch.status();
      if (batch.ok()) result.batch = std::move(*batch);
    }
  }
  result.stats.rows_returned = result.batch.num_rows();
  result.stats.total_micros = timer.ElapsedMicros();
  if (served_from_cache) {
    // The whole hit path (probe + replay) is serial virtual time, charged
    // identically at any worker count — byte-identical profiles across
    // 1/2/8 workers by construction.
    result.stats.wall_micros = result.stats.total_micros;
  } else if (exec_status.ok() && cache_key.cacheable) {
    // Admit only results of *successful* executions; a faulted query leaves
    // no entry behind. Insertion is uncharged simulated time.
    result_cache.Put(cache_key.key, cache_key.tables,
                     std::make_shared<const RecordBatch>(result.batch));
  }
  env_->sim().counters().Add("engine.queries", 1);

  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter(METRIC_ENGINE_QUERIES)->Increment();
  reg.GetHistogram(METRIC_ENGINE_QUERY_SIM_MICROS, {},
                   &obs::DefaultSimMicrosBounds())
      ->Observe(result.stats.total_micros);
  reg.GetCounter(METRIC_ENGINE_FILES_SCANNED)->Add(result.stats.files_scanned);
  if (pool_ != nullptr) {
    // Publish pool activity as registry deltas; the pool itself only keeps
    // raw counters because bl_common cannot depend on bl_obs.
    ThreadPoolStats pool_after = pool_->Stats();
    reg.GetCounter(METRIC_THREADPOOL_TASKS)
        ->Add(pool_after.tasks_submitted - pool_before.tasks_submitted);
    reg.GetCounter(METRIC_THREADPOOL_STEALS)
        ->Add(pool_after.tasks_stolen - pool_before.tasks_stolen);
    reg.GetCounter(METRIC_THREADPOOL_INLINE_RUNS)
        ->Add(pool_after.tasks_inline - pool_before.tasks_inline);
    reg.GetGauge(METRIC_THREADPOOL_QUEUE_DEPTH_PEAK)
        ->SetMax(pool_after.peak_queue_depth);
    if (root != nullptr) {
      // Scheduling details are nondeterministic, so they go in the wall-side
      // annotations ("sched" in JSON) excluded from deterministic exports.
      root->AddWallNum("pool_tasks",
                       pool_after.tasks_submitted - pool_before.tasks_submitted);
      root->AddWallNum("pool_steals",
                       pool_after.tasks_stolen - pool_before.tasks_stolen);
      root->AddWallNum("pool_inline_runs",
                       pool_after.tasks_inline - pool_before.tasks_inline);
    }
  }
  if (root != nullptr) {
    root->AddNum("rows_returned", result.stats.rows_returned);
    root->AddNum("files_scanned", result.stats.files_scanned);
    root->AddNum("files_pruned", result.stats.files_pruned);
    root->AddNum("read_streams", result.stats.read_streams);
    root->AddNum("total_sim_micros", result.stats.total_micros);
    root->AddNum("wall_sim_micros", result.stats.wall_micros);
    const BufferPool::Stats buf_after = BufferPool::Default().snapshot();
    root->AddNum("buf_bytes_allocated",
                 buf_after.bytes_allocated - buf_before.bytes_allocated);
    root->AddNum("buf_bytes_copied",
                 buf_after.bytes_copied - buf_before.bytes_copied);
    root->AddNum("buf_zero_copy_slices",
                 buf_after.zero_copy_slices - buf_before.zero_copy_slices);
    // Live-buffer count is point-in-time (depends on what other sessions and
    // caches hold), so it stays on the wall side of the profile.
    root->AddWallNum("buf_buffers_live", buf_after.buffers_live);
    if (!exec_status.ok()) root->SetAttr("error", exec_status.message());
    profile->End();
  }
  BL_RETURN_NOT_OK(exec_status);
  return result;
}

Result<ChunkedBatch> QueryEngine::ExecuteNode(const Principal& principal,
                                              const PlanPtr& plan,
                                              QueryStats* stats) {
  // Operator entry is a serial point (the clock view here is the merged
  // global clock), so this checkpoint fires at the same operator at any
  // worker count.
  BL_RETURN_NOT_OK(CheckCancel());
  obs::ScopedSpan span(StrCat("op:", PlanKindName(plan->kind)),
                       obs::Span::kOperator);
  auto out = ExecuteNodeInner(principal, plan, stats);
  if (out.ok()) {
    // Logical rows: deferred selections report their selected counts, so
    // spans and operator-row metrics equal those of a materialized batch.
    // Chunk counts depend only on the data, never on the stream count.
    const uint64_t rows = out->num_rows();
    span.AddNum("rows_out", rows);
    span.AddNum("chunks", out->chunks.size());
    obs::MetricsRegistry::Default()
        .GetCounter(METRIC_ENGINE_OPERATOR_ROWS,
                    {{"op", PlanKindName(plan->kind)}})
        ->Add(rows);
  }
  return out;
}

Result<ChunkedBatch> QueryEngine::ExecuteNodeInner(const Principal& principal,
                                                   const PlanPtr& plan,
                                                   QueryStats* stats) {
  switch (plan->kind) {
    case Plan::Kind::kScan:
      return ExecuteScan(principal, *plan, stats);
    case Plan::Kind::kFilter: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      return ExecuteFilter(std::move(in), *plan, stats);
    }
    case Plan::Kind::kProject: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      return ExecuteProject(std::move(in), *plan, stats);
    }
    case Plan::Kind::kHashJoin:
      return ExecuteJoin(principal, *plan, stats);
    case Plan::Kind::kAggregate: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      BL_ASSIGN_OR_RETURN(RecordBatch out, ExecuteAggregate(in, *plan, stats));
      return ChunkedBatch::Of(std::move(out));
    }
    case Plan::Kind::kOrderBy: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      ChargeCpu(in.num_rows(), stats);
      // A contiguity point; a single chunk keeps its selection, which
      // pre-orders the sort instead of being gathered first.
      ThreadPool* concat_pool = ChunkPool(in);
      BL_ASSIGN_OR_RETURN(SelectedBatch rows,
                          std::move(in).Materialize(concat_pool));
      if (rows.sel.has_value()) kernels::CountSelectionMaterialization();
      BL_ASSIGN_OR_RETURN(RecordBatch out,
                          ops::SortBatch(rows.batch, plan->sort_keys,
                                         rows.ids()));
      return ChunkedBatch::Of(std::move(out));
    }
    case Plan::Kind::kLimit: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      // Whole chunks up to the limit, then a truncated selection (free) or
      // a zero-copy slice of the last one.
      ChunkedBatch out;
      out.schema = in.schema;
      size_t left = plan->limit;
      for (SelectedBatch& c : in.chunks) {
        if (left == 0) break;
        const size_t n = c.num_rows();
        if (n > left) {
          if (c.sel.has_value()) {
            c.sel->Truncate(left);
          } else {
            c.batch = c.batch.Slice(0, left);
          }
        }
        left -= std::min(n, left);
        out.Append(std::move(c));
      }
      return out;
    }
    case Plan::Kind::kValues:
      return ChunkedBatch::Of(plan->values);
    case Plan::Kind::kMap: {
      BL_ASSIGN_OR_RETURN(ChunkedBatch in,
                          ExecuteNode(principal, plan->children[0], stats));
      if (!plan->map_fn) {
        return Status::InvalidArgument(
            StrCat("map operator `", plan->map_name, "` has no function"));
      }
      // Map functions are opaque row transforms: hand them contiguous rows.
      ThreadPool* concat_pool = ChunkPool(in);
      BL_ASSIGN_OR_RETURN(RecordBatch rows,
                          std::move(in).Contiguous(concat_pool));
      BL_ASSIGN_OR_RETURN(RecordBatch out, plan->map_fn(std::move(rows)));
      return ChunkedBatch::Of(std::move(out));
    }
  }
  return Status::Internal("unreachable plan kind");
}

Result<ChunkedBatch> QueryEngine::ExecuteFilter(ChunkedBatch in,
                                                const Plan& filter,
                                                QueryStats* stats) {
  const uint64_t rows = in.num_rows();
  // With no chunk the predicate still runs (over no rows), so a predicate
  // that cannot evaluate fails whether or not the input has rows.
  if (in.chunks.empty()) {
    in.chunks.push_back(
        SelectedBatch{RecordBatch::Empty(in.schema), std::nullopt});
  }
  // Evaluate the predicate over each chunk's *underlying* batch (mask
  // values at already-filtered-out rows are simply discarded by FilterBy)
  // and fold the result into the chunk's selection — no column is copied.
  BL_RETURN_NOT_OK(ForEachChunk(
      ChunkPool(in), in.chunks.size(), [&](size_t k) -> Status {
        SelectedBatch& c = in.chunks[k];
        BL_ASSIGN_OR_RETURN(
            kernels::BoolVec bv,
            kernels::EvaluatePredicate(*filter.filter, c.batch));
        std::vector<uint8_t> mask = kernels::BoolVecToMask(bv);
        c.sel = c.sel.has_value() ? c.sel->FilterBy(mask)
                                  : SelectionVector::FromMask(mask);
        return Status::OK();
      }));
  // CPU is charged on logical rows.
  ChargeCpu(rows, stats);
  ChunkedBatch out;
  out.schema = in.schema;
  for (SelectedBatch& c : in.chunks) out.Append(std::move(c));
  kernels::ObserveSelectivity(out.num_rows(), rows);
  return out;
}

Result<ChunkedBatch> QueryEngine::ExecuteProject(ChunkedBatch in,
                                                 const Plan& project,
                                                 QueryStats* stats) {
  const auto& exprs = project.project_exprs;
  if (project.project_names.size() != exprs.size()) {
    return Status::InvalidArgument("project names/exprs mismatch");
  }
  const uint64_t logical_rows = in.num_rows();
  std::set<std::string> refs;
  for (const auto& e : exprs) e->CollectColumns(&refs);
  if (in.chunks.empty()) {
    in.chunks.push_back(
        SelectedBatch{RecordBatch::Empty(in.schema), std::nullopt});
  }
  bool gathers = false;
  for (const SelectedBatch& c : in.chunks) gathers |= c.sel.has_value();
  std::vector<std::vector<Column>> cols(in.chunks.size());
  BL_RETURN_NOT_OK(ForEachChunk(
      ChunkPool(in), in.chunks.size(), [&](size_t k) -> Status {
        const SelectedBatch& c = in.chunks[k];
        RecordBatch input = c.batch;
        if (c.sel.has_value()) {
          // Fused filter->project: gather only the columns the projection
          // references, at the selected ids — every other column of the
          // chunk is dropped without a copy.
          std::vector<Field> in_fields;
          std::vector<Column> in_cols;
          const Schema& schema = *c.batch.schema();
          for (size_t i = 0; i < schema.num_fields(); ++i) {
            if (refs.count(schema.field(i).name) == 0) continue;
            in_fields.push_back(schema.field(i));
            in_cols.push_back(c.batch.column(i).Gather(c.sel->ids()));
          }
          // A pure-literal projection gathers the whole chunk instead: a
          // zero-column batch would lose the row count.
          input = in_cols.empty() ? c.batch.Gather(c.sel->ids())
                                  : RecordBatch(MakeSchema(std::move(in_fields)),
                                                std::move(in_cols));
        }
        for (const auto& e : exprs) {
          BL_ASSIGN_OR_RETURN(Column col, kernels::EvaluateColumn(*e, input));
          cols[k].push_back(std::move(col));
        }
        return Status::OK();
      }));
  if (gathers) kernels::CountSelectionMaterialization();
  std::vector<Field> fields;
  for (size_t i = 0; i < exprs.size(); ++i) {
    BL_ASSIGN_OR_RETURN(DataType t, exprs[i]->ResultType(*in.schema));
    fields.push_back({project.project_names[i], t, true});
  }
  ChargeCpu(logical_rows * exprs.size(), stats);
  ChunkedBatch out;
  out.schema = MakeSchema(std::move(fields));
  for (std::vector<Column>& c : cols) {
    out.Append(SelectedBatch{RecordBatch(out.schema, std::move(c)),
                             std::nullopt});
  }
  return out;
}

Result<ChunkedBatch> QueryEngine::ExecuteScan(const Principal& principal,
                                              const Plan& scan,
                                              QueryStats* stats) {
  ReadSessionOptions opts;
  opts.columns = scan.scan_columns;
  opts.predicate = scan.scan_predicate;
  opts.snapshot_txn = snapshot_txn_;
  opts.max_streams = options_.max_read_streams > 0 ? options_.max_read_streams
                                                   : options_.num_workers;
  opts.caller_location = options_.engine_location;
  opts.use_block_cache = options_.enable_block_cache;
  opts.readahead_depth = options_.readahead_depth;
  // Session creation includes all planning-time metadata work (Big Metadata
  // pruning when cached, object-store LIST + footer peeks when not) — it is
  // on the query's critical path.
  SimTimer plan_timer(env_->sim());
  BL_ASSIGN_OR_RETURN(ReadSession session,
                      read_api_->CreateReadSession(principal, scan.table_id,
                                                   opts));
  SimMicros plan_cost = plan_timer.ElapsedMicros();
  stats->wall_micros += plan_cost;
  stats->total_micros += plan_cost;
  stats->files_scanned += session.files_total - session.files_pruned;
  stats->files_pruned += session.files_pruned;
  stats->read_streams += session.streams.size();

  // Streams execute on the worker pool for real — one task per read stream,
  // the paper's unit of scan parallelism. Each task charges simulated costs
  // into its own shard; MergeShards folds them back serial-equivalently, so
  // the virtual clock and every counter are bit-identical to a one-worker
  // run. Each task opens its stream's response batches (local handles: a
  // refcount bump each) into a stream-indexed slot; they become the scan's
  // chunks in stream order, then response order, so results are
  // deterministic too — and nothing is concatenated.
  const size_t num_streams = session.streams.size();
  std::vector<std::vector<RecordBatch>> batches(num_streams);
  std::vector<SimMicros> stream_elapsed(num_streams, 0);
  // Pre-create one `stream:<i>` span per slot in slot order (see trace.h);
  // worker tasks activate their slot's span, so the tree shape and all
  // simulated durations are scheduling-independent.
  obs::TraceContext trace = obs::CurrentTraceContext();
  std::vector<obs::Span*> stream_spans(num_streams, nullptr);
  if (trace.span != nullptr) {
    for (size_t s = 0; s < num_streams; ++s) {
      stream_spans[s] =
          trace.span->NewChild(StrCat("stream:", s), obs::Span::kStream);
    }
  }
  // Every worker count takes the same sharded path (ParallelFor runs the
  // chunks inline when the pool has no threads, with identical chunking and
  // run-every-chunk error semantics), so charges, cache mutations and
  // cancellation checkpoints are bit-identical at 1, 2 or 8 workers by
  // construction rather than by keeping two branches in sync.
  std::vector<ChargeShard> shards = env_->sim().MakeShards(num_streams);
  std::vector<cache::CacheTxn> cache_txns(num_streams);
  Status read_status =
      pool()->ParallelFor(num_streams, [&](size_t s) -> Status {
        // Order matters: the span activation must end while the shard is
        // still installed so its end stamp reads the shard-local clock.
        ScopedChargeShard scope(&shards[s]);
        std::optional<obs::ScopedSpanActivation> span_scope;
        if (stream_spans[s] != nullptr) {
          span_scope.emplace(trace.tracer, stream_spans[s]);
        }
        cache::ScopedCacheTxn cache_scope(&cache_txns[s]);
        BL_ASSIGN_OR_RETURN(std::vector<BatchHandle> handles,
                            read_api_->ReadStreamHandles(session, s));
        uint64_t rows = 0;
        for (const BatchHandle& h : handles) {
          BL_ASSIGN_OR_RETURN(RecordBatch b, h.Open());
          rows += b.num_rows();
          batches[s].push_back(std::move(b));
        }
        obs::AddCurrentSpanNum("rows", rows);
        return Status::OK();
      });
  env_->sim().MergeShards(&shards);           // charge even partial failures
  env_->block_cache().FoldTxns(&cache_txns);  // fold cache ops in slot order
  BL_RETURN_NOT_OK(read_status);
  for (size_t s = 0; s < num_streams; ++s) {
    stats->total_micros += shards[s].advanced;
    // The prefetch window hides part of a stream's I/O behind its own
    // compute: subtract the Read API's analytic overlap from the wall
    // estimate (resource time above is untouched).
    SimMicros saved = StorageReadApi::StreamOverlapSaved(session, s);
    stream_elapsed[s] =
        shards[s].advanced > saved ? shards[s].advanced - saved : 0;
  }
  // Reported wall time: the max per-stream virtual elapsed within each wave
  // of `num_workers` streams.
  std::sort(stream_elapsed.rbegin(), stream_elapsed.rend());
  for (size_t i = 0; i < stream_elapsed.size();
       i += options_.num_workers) {
    stats->wall_micros += stream_elapsed[i];  // slowest stream of the wave
  }
  ChunkedBatch out;
  out.schema = !batches.empty() && !batches[0].empty()
                   ? batches[0][0].schema()
                   : session.output_schema;
  for (std::vector<RecordBatch>& stream : batches) {
    for (RecordBatch& b : stream) {
      out.Append(SelectedBatch{std::move(b), std::nullopt});
    }
  }
  return out;
}

Result<ChunkedBatch> QueryEngine::ExecuteJoin(const Principal& principal,
                                              const Plan& join,
                                              QueryStats* stats) {
  PlanPtr build_plan = join.children[0];
  PlanPtr probe_plan = join.children[1];
  std::vector<std::string> build_keys = join.left_keys;
  std::vector<std::string> probe_keys = join.right_keys;

  // Statistics-driven build-side selection: build on the smaller input.
  if (options_.use_table_stats &&
      EstimateRows(build_plan) > EstimateRows(probe_plan)) {
    std::swap(build_plan, probe_plan);
    std::swap(build_keys, probe_keys);
    ++stats->build_side_swaps;
    env_->sim().counters().Add("engine.build_side_swaps", 1);
    obs::MetricsRegistry::Default()
        .GetCounter(METRIC_ENGINE_BUILD_SIDE_SWAPS)
        ->Increment();
  }

  BL_ASSIGN_OR_RETURN(ChunkedBatch build_chunks,
                      ExecuteNode(principal, build_plan, stats));
  // The build side is a contiguity point: one hash table over one batch
  // (a single chunk keeps its deferred selection).
  ThreadPool* concat_pool = ChunkPool(build_chunks);
  BL_ASSIGN_OR_RETURN(SelectedBatch build,
                      std::move(build_chunks).Materialize(concat_pool));

  // Dynamic partition pruning: feed the build side's distinct key values
  // into a probe-side scan as an IN-list so Big Metadata can prune files.
  if (options_.use_table_stats && options_.dynamic_partition_pruning &&
      probe_plan->kind == Plan::Kind::kScan && build_keys.size() == 1) {
    std::vector<Value> in_list =
        ops::DistinctValues(build.batch, build_keys[0], options_.dpp_max_keys,
                            build.ids());
    if (!in_list.empty()) {
      ExprPtr dpp = Expr::InList(Expr::Col(probe_keys[0]),
                                 std::move(in_list));
      probe_plan = Plan::Scan(
          probe_plan->table_id, probe_plan->scan_columns,
          probe_plan->scan_predicate == nullptr
              ? dpp
              : Expr::And(probe_plan->scan_predicate, dpp));
      ++stats->dpp_scans;
      env_->sim().counters().Add("engine.dpp_scans", 1);
      obs::MetricsRegistry::Default()
          .GetCounter(METRIC_ENGINE_DPP_SCANS)
          ->Increment();
    }
  }

  BL_ASSIGN_OR_RETURN(ChunkedBatch probe,
                      ExecuteNode(principal, probe_plan, stats));
  // Logical (selected) row counts everywhere: spans and CPU charges are the
  // same whether or not the inputs carry deferred selections.
  const uint64_t probe_rows = probe.num_rows();
  obs::AddCurrentSpanNum("build_rows", build.num_rows());
  obs::AddCurrentSpanNum("probe_rows", probe_rows);
  uint64_t matches = 0;
  BL_ASSIGN_OR_RETURN(ChunkedBatch joined,
                      ops::HashJoin(pool(), build, probe, build_keys,
                                    probe_keys, &matches));
  // Building the hash table costs ~4x per row vs probing: picking
  // the smaller build side (stats-driven) matters.
  ChargeCpu(build.num_rows() * 4 + probe_rows + matches, stats);
  return joined;
}

Result<RecordBatch> QueryEngine::ExecuteAggregate(const ChunkedBatch& input,
                                                  const Plan& agg,
                                                  QueryStats* stats) {
  const uint64_t rows = input.num_rows();
  ChargeCpu(rows * (agg.aggregates.size() + agg.group_by.size() + 1), stats);
  obs::AddCurrentSpanNum("input_rows", rows);
  ops::AggregateStats agg_stats;
  BL_ASSIGN_OR_RETURN(
      RecordBatch out,
      ops::ParallelAggregate(pool(), input, agg.group_by, agg.aggregates,
                             &agg_stats));
  obs::AddCurrentSpanNum("groups", agg_stats.groups);
  obs::AddCurrentSpanNum("partials", agg_stats.chunks);
  return out;
}

}  // namespace biglake
