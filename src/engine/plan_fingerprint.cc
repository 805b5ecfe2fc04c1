#include "engine/plan_fingerprint.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/strings.h"

namespace biglake {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Tags keeping adjacent fields from sliding into each other: every field of
// every node is hashed as (tag, length-prefixed payload), so two plans can
// only hash identically if every tagged field matches.
enum : uint8_t {
  kTagPlanKind = 1,
  kTagChildren,
  kTagTableId,
  kTagScanColumns,
  kTagScanPredicate,
  kTagFilter,
  kTagProject,
  kTagJoinKeys,
  kTagGroupBy,
  kTagAggregates,
  kTagSortKeys,
  kTagLimit,
  kTagValues,
  kTagExprNull,
  kTagExpr,
  kTagValueNull,
  kTagValueBool,
  kTagValueInt,
  kTagValueDouble,
  kTagValueString,
};

void HashByte(uint64_t* h, uint8_t b) {
  *h ^= b;
  *h *= kFnvPrime;
}

void HashU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) HashByte(h, static_cast<uint8_t>(v >> (i * 8)));
}

void HashStr(uint64_t* h, const std::string& s) {
  HashU64(h, s.size());
  for (unsigned char c : s) HashByte(h, c);
}

void HashStrList(uint64_t* h, uint8_t tag,
                 const std::vector<std::string>& list) {
  HashByte(h, tag);
  HashU64(h, list.size());
  for (const std::string& s : list) HashStr(h, s);
}

void HashValue(uint64_t* h, const Value& v) {
  if (v.is_null()) {
    HashByte(h, kTagValueNull);
  } else if (v.is_bool()) {
    HashByte(h, kTagValueBool);
    HashByte(h, v.bool_value() ? 1 : 0);
  } else if (v.is_int64()) {
    HashByte(h, kTagValueInt);
    HashU64(h, static_cast<uint64_t>(v.int64_value()));
  } else if (v.is_double()) {
    HashByte(h, kTagValueDouble);
    HashU64(h, std::bit_cast<uint64_t>(v.double_value()));
  } else {
    HashByte(h, kTagValueString);
    HashStr(h, v.string_value());
  }
}

void HashExpr(uint64_t* h, const ExprPtr& e) {
  if (e == nullptr) {
    HashByte(h, kTagExprNull);
    return;
  }
  HashByte(h, kTagExpr);
  HashU64(h, static_cast<uint64_t>(e->kind()));
  // Operator enums are hashed unconditionally: they are part of the node's
  // canonical shape (defaulted on kinds that ignore them).
  HashU64(h, static_cast<uint64_t>(e->cmp_op()));
  HashU64(h, static_cast<uint64_t>(e->arith_op()));
  HashU64(h, static_cast<uint64_t>(e->logical_op()));
  HashStr(h, e->column_name());
  HashValue(h, e->literal());
  HashU64(h, e->in_list().size());
  for (const Value& v : e->in_list()) HashValue(h, v);
  HashU64(h, e->children().size());
  for (const ExprPtr& c : e->children()) HashExpr(h, c);
}

void HashBatch(uint64_t* h, const RecordBatch& batch) {
  const Schema& schema = *batch.schema();
  HashU64(h, schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& f = schema.field(i);
    HashStr(h, f.name);
    HashByte(h, static_cast<uint8_t>(f.type));
    HashByte(h, f.nullable ? 1 : 0);
  }
  HashU64(h, batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      HashValue(h, batch.GetValue(r, c));
    }
  }
}

/// Hashes the node and collects scanned tables; false when uncacheable.
bool HashPlan(uint64_t* h, const Plan& plan,
              std::vector<std::string>* tables) {
  if (plan.kind == Plan::Kind::kMap) return false;  // opaque transform
  HashByte(h, kTagPlanKind);
  HashU64(h, static_cast<uint64_t>(plan.kind));
  switch (plan.kind) {
    case Plan::Kind::kScan:
      HashByte(h, kTagTableId);
      HashStr(h, plan.table_id);
      // Scan column order shapes the output schema: hash in order.
      HashStrList(h, kTagScanColumns, plan.scan_columns);
      HashByte(h, kTagScanPredicate);
      HashExpr(h, plan.scan_predicate);
      if (tables != nullptr) tables->push_back(plan.table_id);
      break;
    case Plan::Kind::kFilter:
      HashByte(h, kTagFilter);
      HashExpr(h, plan.filter);
      break;
    case Plan::Kind::kProject:
      HashByte(h, kTagProject);
      HashU64(h, plan.project_names.size());
      for (size_t i = 0; i < plan.project_names.size(); ++i) {
        HashStr(h, plan.project_names[i]);
        HashExpr(h, i < plan.project_exprs.size() ? plan.project_exprs[i]
                                                  : nullptr);
      }
      break;
    case Plan::Kind::kHashJoin:
      HashStrList(h, kTagJoinKeys, plan.left_keys);
      HashStrList(h, kTagJoinKeys, plan.right_keys);
      break;
    case Plan::Kind::kAggregate:
      HashStrList(h, kTagGroupBy, plan.group_by);
      HashByte(h, kTagAggregates);
      HashU64(h, plan.aggregates.size());
      for (const AggSpec& a : plan.aggregates) {
        HashU64(h, static_cast<uint64_t>(a.op));
        HashStr(h, a.input);
        HashStr(h, a.output);
      }
      break;
    case Plan::Kind::kOrderBy:
      HashByte(h, kTagSortKeys);
      HashU64(h, plan.sort_keys.size());
      for (const SortKey& k : plan.sort_keys) {
        HashStr(h, k.column);
        HashByte(h, k.descending ? 1 : 0);
      }
      break;
    case Plan::Kind::kLimit:
      HashByte(h, kTagLimit);
      HashU64(h, plan.limit);
      break;
    case Plan::Kind::kValues:
      HashByte(h, kTagValues);
      HashBatch(h, plan.values);
      break;
    case Plan::Kind::kMap:
      return false;
  }
  HashByte(h, kTagChildren);
  HashU64(h, plan.children.size());
  for (const PlanPtr& child : plan.children) {
    if (child == nullptr || !HashPlan(h, *child, tables)) return false;
  }
  return true;
}

}  // namespace

uint64_t PlanFingerprint(const Plan& plan) {
  uint64_t h = kFnvOffset;
  HashPlan(&h, plan, nullptr);
  return h;
}

uint64_t EngineKnobFingerprint(const EngineOptions& options) {
  uint64_t h = kFnvOffset;
  HashU64(&h, options.use_table_stats ? 1 : 0);
  HashU64(&h, options.dynamic_partition_pruning ? 1 : 0);
  HashU64(&h, options.dpp_max_keys);
  // The *effective* stream fan-out: with max_read_streams = 0 it falls back
  // to num_workers, which then shapes row order and must key the entry.
  const uint32_t streams = options.max_read_streams > 0
                               ? options.max_read_streams
                               : options.num_workers;
  HashU64(&h, streams);
  HashStr(&h, options.engine_location.ToString());
  return h;
}

PlanCacheKey MakeResultCacheKey(const Principal& principal, const Plan& plan,
                                const EngineOptions& options,
                                const BigMetadataStore& meta,
                                uint64_t snapshot_txn) {
  PlanCacheKey out;
  uint64_t h = kFnvOffset;
  if (!HashPlan(&h, plan, &out.tables)) {
    out.tables.clear();
    return out;
  }
  out.plan_fp = h;
  std::sort(out.tables.begin(), out.tables.end());
  out.tables.erase(std::unique(out.tables.begin(), out.tables.end()),
                   out.tables.end());
  // Length-prefixed components: adversarial principals/table ids cannot
  // splice into another key (same scheme as cache::ObjectKeyPrefix).
  std::string key = StrCat("p", principal.size(), ":", principal, "|f",
                           out.plan_fp, "|k", EngineKnobFingerprint(options));
  for (const std::string& t : out.tables) {
    auto gen = meta.TableGenerationAt(t, snapshot_txn);
    // Unknown table (e.g. an external lake never cached into Big Metadata)
    // or never-committed table: no generation to key on — bypass the cache.
    if (!gen.ok() || *gen == 0) return out;
    key = StrCat(key, "|t", t.size(), ":", t, "@", *gen);
  }
  out.cacheable = true;
  out.key = std::move(key);
  return out;
}

}  // namespace biglake
