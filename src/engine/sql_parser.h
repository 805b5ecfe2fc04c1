// A small SQL front-end for the Dremel-lite engine.
//
// The paper's user interface is GoogleSQL (Listings 1-3). This parser
// covers the analytic core those listings and the TPC-lite workloads need:
//
//   SELECT <exprs | aggregates> FROM dataset.table [AS alias]
//     [JOIN dataset.table [AS alias] ON a.x = b.y [AND ...]]*
//     [WHERE <expr>]
//     [GROUP BY col, ...]
//     [ORDER BY col [ASC|DESC], ...]
//     [LIMIT n]
//
// Expressions: AND/OR/NOT, comparisons (= != <> < <= > >=), arithmetic
// (+ - * / %), IS [NOT] NULL, IN (...), literals (integers, doubles,
// 'strings', TRUE/FALSE/NULL), and (qualified) column references.
// Aggregates: COUNT(*) / COUNT(x) / SUM / MIN / MAX / AVG.
//
// WHERE becomes a Filter above the FROM/JOIN tree; the engine's optimizer
// (engine/optimizer.h) pushes its conjuncts into the scans, where Big
// Metadata prunes files. Table aliases are accepted and stripped from column
// references (batches carry bare column names).

#ifndef BIGLAKE_ENGINE_SQL_PARSER_H_
#define BIGLAKE_ENGINE_SQL_PARSER_H_

#include <string>

#include "engine/plan.h"

namespace biglake {

/// Parses `sql` into an executable plan. Errors are InvalidArgument with a
/// message pointing at the offending token.
Result<PlanPtr> ParseSql(const std::string& sql);

}  // namespace biglake

#endif  // BIGLAKE_ENGINE_SQL_PARSER_H_
