// Logical optimizer: the one rewrite every plan goes through before it runs.
//
// QueryEngine::Execute calls OptimizePlan first, and everything after it —
// the result-cache key, build-side selection, dynamic partition pruning and
// execution — sees only the rewritten tree. SQL and plan-built queries
// therefore get identical treatment. Two rules run, in this order:
//
//  1. Push conjuncts down. Every Filter is split into its AND-conjuncts.
//     A conjunct sinks below a HashJoin into the side that produces all of
//     its columns (recursively through nested joins) and, at a Scan leaf, is
//     ANDed into `scan_predicate`, where Big Metadata file pruning, row-group
//     pruning and — on a probe-side scan — DPP can use it (Sec 3.3/3.4).
//     Conjuncts that reference both sides of a join, no column at all, or
//     sit above any other operator (Project, Aggregate, OrderBy, Limit, Map,
//     Values) stay where they are.
//  2. Prune columns. A required-column set flows top-down: Project and
//     Aggregate reset it to what they reference; Filter, OrderBy and join
//     keys add to it. Every Scan then requests exactly the required columns
//     (schema order, then required hive partition columns), so the Read API
//     decodes and ships only those (Sec 3.2). Columns used only by the scan
//     predicate are not requested: the Read API reads them server-side and
//     drops them. A scan needing no column (`COUNT(*)`) keeps its first
//     schema column, since an empty list means "all".
//
// Barriers: below a Map (an opaque transform) every column is required; a
// join whose sides share a column name prunes neither side (the `_r` suffix
// a probe column gets depends on the runtime build-side swap); a plan whose
// root needs every column (`SELECT *`) prunes nothing but still surfaces
// join keys, such as hive partition columns, that are not in the default
// scan output.
//
// The rewrite never changes which rows a query returns, only where filters
// run and which columns flow. Without ORDER BY, row *order* may differ from
// the un-rewritten plan: file pruning changes a scan's file set and with it
// the stream assignment.

#ifndef BIGLAKE_ENGINE_OPTIMIZER_H_
#define BIGLAKE_ENGINE_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "engine/plan.h"

namespace biglake {

/// Returns `plan` rewritten by the rules above. Pure: `plan` is not mutated
/// and unchanged subtrees may be shared with the result. Scans of tables
/// unknown to `catalog` are left as written.
PlanPtr OptimizePlan(const Catalog& catalog, const PlanPtr& plan);

}  // namespace biglake

#endif  // BIGLAKE_ENGINE_OPTIMIZER_H_
