// Spark-lite: a third-party analytics engine consuming BigLake through the
// Storage Read API (Sec 3.2, 3.4).
//
// Models the Spark + Spark-BigQuery-Connector stack as a front-end over the
// engine's planner and executor:
//   * A DataFrame API (filter / select / join / aggregate / order by /
//     limit / collect). A filter or select directly over a connector scan
//     folds into it, the way DataSourceV2 pushes predicates and projections
//     into the connector.
//   * Collect lowers the DataFrame to an engine Plan and runs it on one
//     QueryEngine built from SparkOptions, so Spark-lite reads go through
//     the same Read API sessions, logical optimizer (filter and column
//     pushdown), table statistics (build-side selection), dynamic partition
//     pruning and kernels as BigQuery's own queries (Sec 3.4). Each query
//     pins one metadata snapshot.
//   * Two leaves the engine cannot run materialize first, as Plan::Values:
//       - A COUNT/SUM/MIN/MAX aggregate directly over a connector scan runs
//         as a Read API partial-aggregate session (DataSourceV2 aggregate
//         pushdown); only per-stream partials come back and are merged.
//       - A *direct* scan reads Parquet-lite straight from object storage
//         with bucket credentials: the ungoverned baseline that BigLake
//         price-performance is compared against. No fine-grained security,
//         no metadata cache: LIST + footer peeks every query.
//     Their simulated wall time and file counts add to the engine's stats.
//
// The engine is untrusted by design: everything it receives from the Read
// API is post-governance. Its only trusted path is the direct scan, which
// exists precisely to show what governance-by-engine would cost.

#ifndef BIGLAKE_EXTENGINE_SPARK_LITE_H_
#define BIGLAKE_EXTENGINE_SPARK_LITE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/read_api.h"
#include "engine/engine.h"
#include "engine/plan.h"

namespace biglake {

struct SparkOptions {
  /// Executor count: the engine's worker pool size and read-stream fan-out.
  uint32_t executors = 8;
  /// Use table statistics for build-side selection and dynamic partition
  /// pruning (Sec 3.4). Off = joins run as written, without DPP.
  bool use_session_stats = true;
};

/// The engine's query stats plus what only Spark-lite's own leaves count.
struct SparkQueryStats : QueryStats {
  uint64_t direct_list_calls = 0;
  uint64_t aggregates_pushed = 0;
};

struct SparkResult {
  RecordBatch batch;
  SparkQueryStats stats;
};

class SparkLiteEngine;

/// A lazy DataFrame. Methods build up a plan; Collect() executes it.
class DataFrame {
 public:
  DataFrame Filter(ExprPtr predicate) const;
  DataFrame Select(std::vector<std::string> columns) const;
  DataFrame Join(const DataFrame& right, std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys) const;
  DataFrame Aggregate(std::vector<std::string> group_by,
                      std::vector<AggSpec> aggregates) const;
  DataFrame OrderBy(std::vector<SortKey> keys) const;
  DataFrame Limit(uint64_t n) const;

  /// Executes as `principal` (the identity presented to the Read API).
  Result<SparkResult> Collect(const Principal& principal) const;

  /// Implementation detail, public only so the engine's .cc can see it.
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

 private:
  friend class SparkLiteEngine;
  DataFrame(SparkLiteEngine* engine, NodePtr node)
      : engine_(engine), node_(std::move(node)) {}
  /// A node applying `op` to `children`.
  DataFrame Over(PlanPtr op, std::vector<NodePtr> children) const;

  SparkLiteEngine* engine_ = nullptr;
  NodePtr node_;
};

class SparkLiteEngine {
 public:
  SparkLiteEngine(LakehouseEnv* env, StorageReadApi* read_api,
                  SparkOptions options = {});

  const SparkOptions& options() const { return options_; }

  /// Governed read through the BigLake connector.
  DataFrame ReadBigLake(std::string table_id);

  /// Ungoverned baseline: read Parquet-lite files directly from the bucket
  /// (requires the caller to hold bucket credentials out of band).
  DataFrame ReadParquetDirect(CloudLocation location, std::string bucket,
                              std::string prefix);

 private:
  friend class DataFrame;

  struct ScanSpec {
    bool direct = false;
    std::string table_id;                // connector scans
    CloudLocation location;              // direct scans
    std::string bucket;
    std::string prefix;
    std::vector<std::string> columns;    // pushdown projection
    ExprPtr predicate;                   // pushdown predicate
  };

  /// The engine plan for `node`; direct scans and pushed aggregates run
  /// here and become Values leaves.
  Result<PlanPtr> Lower(const Principal& principal,
                        const DataFrame::NodePtr& node, uint64_t snapshot_txn,
                        SparkQueryStats* stats);
  Result<RecordBatch> PushedAggregate(const Principal& principal,
                                      const DataFrame::Node& node,
                                      uint64_t snapshot_txn,
                                      SparkQueryStats* stats);
  Result<RecordBatch> DirectScan(const ScanSpec& scan,
                                 SparkQueryStats* stats);
  void ChargeCpu(uint64_t values, SparkQueryStats* stats);

  LakehouseEnv* env_;
  StorageReadApi* read_api_;
  SparkOptions options_;
  QueryEngine query_engine_;
};

/// Node of the DataFrame plan (header-visible so DataFrame methods can
/// build trees; treat as private to this module).
struct DataFrame::Node {
  /// The operator as an engine plan node whose children Collect lowers
  /// from `children`; null for a scan leaf, which `scan` describes.
  PlanPtr op;
  std::vector<NodePtr> children;
  SparkLiteEngine::ScanSpec scan;
};

}  // namespace biglake

#endif  // BIGLAKE_EXTENGINE_SPARK_LITE_H_
