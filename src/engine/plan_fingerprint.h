// Canonical plan fingerprinting and result-cache key composition.
//
// `PlanFingerprint` extends the FNV-1a scheme of cache::ProjectionFingerprint
// to whole Plan trees: every node kind, expression, literal, column list,
// aggregate spec, sort key and limit feeds the hash through tagged,
// length-prefixed serialization, so semantically distinct plans never
// collide by construction of the encoding (only by 64-bit hash accident).
// Semantically *equal* but syntactically different plans may legitimately
// hash apart — the cache then just misses.
//
// `MakeResultCacheKey` composes the full cache key:
//
//   principal | plan fingerprint | engine-knob fingerprint |
//   per-table commit generations (sorted)
//
// Components that shape the rows of the result are all included:
//   * principal — row-access policies and masking make results
//     principal-dependent; entries must never leak across principals.
//   * effective read-stream fan-out — stream partitioning determines row
//     order, so an engine with a different fan-out must not share entries.
//     num_workers itself is deliberately NOT keyed: with max_read_streams
//     pinned, engines at any worker count produce identical rows and share
//     the cache (that is the determinism contract the tests assert).
//   * every referenced table's Big Metadata generation — any commit moves
//     the key, making stale results unreachable by construction.
//
// Plans containing kMap are uncacheable (the transform is an opaque
// function); kValues leaves hash their literal batch contents. Tables that
// are unknown to Big Metadata or have never been committed (generation 0)
// also make a plan uncacheable: generation 0 cannot distinguish
// drop/recreate cycles.

#ifndef BIGLAKE_ENGINE_PLAN_FINGERPRINT_H_
#define BIGLAKE_ENGINE_PLAN_FINGERPRINT_H_

#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan.h"
#include "meta/bigmeta.h"
#include "security/security.h"

namespace biglake {

/// Canonical FNV-1a fingerprint of a Plan tree. Plans containing kMap have
/// no stable fingerprint; callers detect that via MakeResultCacheKey.
uint64_t PlanFingerprint(const Plan& plan);

/// Fingerprint of the EngineOptions knobs that shape a query's result rows
/// or their order (stats-driven planning, DPP, effective stream fan-out,
/// engine location). Excludes num_workers and pure cost knobs.
uint64_t EngineKnobFingerprint(const EngineOptions& options);

struct PlanCacheKey {
  /// False when the plan cannot be cached (kMap node, unknown table, or a
  /// never-committed table); `key` is empty in that case.
  bool cacheable = false;
  uint64_t plan_fp = 0;
  /// Sorted, deduplicated ids of every table the plan scans.
  std::vector<std::string> tables;
  /// The composed result-cache key (length-prefixed components).
  std::string key;
};

/// Composes the full result-cache key for `plan` executed by `principal`
/// under `options`, binding in each scanned table's commit generation from
/// `meta` as of `snapshot_txn` (kLatestTxn = latest). The engine passes its
/// pinned snapshot here so the key's generation vector is exactly the one every
/// scan of the query resolves against — a cached multi-table result can
/// never mix one table's new generation with another's old one.
PlanCacheKey MakeResultCacheKey(const Principal& principal, const Plan& plan,
                                const EngineOptions& options,
                                const BigMetadataStore& meta,
                                uint64_t snapshot_txn = kLatestTxn);

}  // namespace biglake

#endif  // BIGLAKE_ENGINE_PLAN_FINGERPRINT_H_
