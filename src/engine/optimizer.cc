#include "engine/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>

namespace biglake {

namespace {

using ColumnSet = std::set<std::string>;

bool Contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

ColumnSet Refs(const Expr& e) {
  ColumnSet out;
  e.CollectColumns(&out);
  return out;
}

PlanPtr WithChildren(const Plan& node, std::vector<PlanPtr> children) {
  auto copy = std::make_shared<Plan>(node);
  copy->children = std::move(children);
  return copy;
}

/// The columns `plan` can produce, or nullopt when they are not known
/// statically: a Map, a scan of an unknown table, or a join whose sides share
/// a name (the probe copy's `_r` suffix depends on the runtime swap). A scan
/// without explicit columns can also produce its hive partition columns: the
/// Read API serves them as virtual columns when they are requested.
std::optional<ColumnSet> Producible(const Catalog& catalog, const Plan& plan) {
  switch (plan.kind) {
    case Plan::Kind::kScan: {
      if (!plan.scan_columns.empty()) {
        return ColumnSet(plan.scan_columns.begin(), plan.scan_columns.end());
      }
      auto table = catalog.GetTable(plan.table_id);
      if (!table.ok()) return std::nullopt;
      ColumnSet out((*table)->partition_columns.begin(),
                    (*table)->partition_columns.end());
      for (const Field& f : (*table)->schema->fields()) out.insert(f.name);
      return out;
    }
    case Plan::Kind::kFilter:
    case Plan::Kind::kOrderBy:
    case Plan::Kind::kLimit:
      return Producible(catalog, *plan.children[0]);
    case Plan::Kind::kProject:
      return ColumnSet(plan.project_names.begin(), plan.project_names.end());
    case Plan::Kind::kAggregate: {
      ColumnSet out(plan.group_by.begin(), plan.group_by.end());
      for (const AggSpec& a : plan.aggregates) out.insert(a.output);
      return out;
    }
    case Plan::Kind::kHashJoin: {
      auto left = Producible(catalog, *plan.children[0]);
      auto right = Producible(catalog, *plan.children[1]);
      if (!left || !right) return std::nullopt;
      for (const std::string& c : *right) {
        if (!left->insert(c).second) return std::nullopt;
      }
      return left;
    }
    case Plan::Kind::kValues: {
      ColumnSet out;
      for (const Field& f : plan.values.schema()->fields()) out.insert(f.name);
      return out;
    }
    case Plan::Kind::kMap:
      return std::nullopt;
  }
  return std::nullopt;
}

bool Covers(const std::optional<ColumnSet>& side, const ColumnSet& refs) {
  if (!side || refs.empty()) return false;
  return std::includes(side->begin(), side->end(), refs.begin(), refs.end());
}

/// True when `side` is known and produces none of `refs`.
bool Disjoint(const std::optional<ColumnSet>& side, const ColumnSet& refs) {
  return side && std::none_of(refs.begin(), refs.end(),
                              [&](const std::string& r) {
                                return side->count(r) > 0;
                              });
}

// ---- Rule 1: push conjuncts down --------------------------------------------

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == Expr::Kind::kLogical &&
      e->logical_op() == LogicalOp::kAnd) {
    for (const ExprPtr& c : e->children()) SplitConjuncts(c, out);
    return;
  }
  out->push_back(e);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out == nullptr ? c : Expr::And(out, c);
  }
  return out;
}

PlanPtr FilterAbove(PlanPtr plan, const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return plan;
  return Plan::Filter(std::move(plan), AndAll(conjuncts));
}

/// Returns a plan equivalent to Filter(plan, AND(conjuncts)) with every
/// conjunct — and every Filter inside `plan` — sunk as far as it can go.
PlanPtr PushConjuncts(const Catalog& catalog, const PlanPtr& plan,
                      std::vector<ExprPtr> conjuncts) {
  switch (plan->kind) {
    case Plan::Kind::kFilter: {
      // The inner filter's conjuncts keep their place ahead of outer ones.
      std::vector<ExprPtr> all;
      SplitConjuncts(plan->filter, &all);
      all.insert(all.end(), conjuncts.begin(), conjuncts.end());
      return PushConjuncts(catalog, plan->children[0], std::move(all));
    }
    case Plan::Kind::kScan: {
      const std::optional<ColumnSet> cols = Producible(catalog, *plan);
      std::vector<ExprPtr> pushed;
      std::vector<ExprPtr> kept;
      if (plan->scan_predicate != nullptr) {
        pushed.push_back(plan->scan_predicate);
      }
      for (ExprPtr& c : conjuncts) {
        (Covers(cols, Refs(*c)) ? pushed : kept).push_back(std::move(c));
      }
      PlanPtr scan = plan;
      if (pushed.size() > (plan->scan_predicate != nullptr ? 1u : 0u)) {
        auto copy = std::make_shared<Plan>(*plan);
        copy->scan_predicate = AndAll(pushed);
        scan = std::move(copy);
      }
      return FilterAbove(std::move(scan), kept);
    }
    case Plan::Kind::kHashJoin: {
      const auto left = Producible(catalog, *plan->children[0]);
      const auto right = Producible(catalog, *plan->children[1]);
      std::vector<ExprPtr> to_left;
      std::vector<ExprPtr> to_right;
      std::vector<ExprPtr> kept;
      for (ExprPtr& c : conjuncts) {
        const ColumnSet refs = Refs(*c);
        // A name both sides produce is ambiguous: it stays above the join.
        if (Covers(left, refs) && Disjoint(right, refs)) {
          to_left.push_back(std::move(c));
        } else if (Covers(right, refs) && Disjoint(left, refs)) {
          to_right.push_back(std::move(c));
        } else {
          kept.push_back(std::move(c));
        }
      }
      PlanPtr join = WithChildren(
          *plan, {PushConjuncts(catalog, plan->children[0], std::move(to_left)),
                  PushConjuncts(catalog, plan->children[1],
                                std::move(to_right))});
      return FilterAbove(std::move(join), kept);
    }
    default: {
      // Conjuncts stay above every other operator; filters below it still
      // sink on their own.
      if (plan->children.empty()) return FilterAbove(plan, conjuncts);
      std::vector<PlanPtr> children;
      for (const PlanPtr& c : plan->children) {
        children.push_back(PushConjuncts(catalog, c, {}));
      }
      return FilterAbove(WithChildren(*plan, std::move(children)), conjuncts);
    }
  }
}

// ---- Rule 2: prune columns --------------------------------------------------

/// What a parent needs from a node. `all` = every column the node produces
/// by default (`cols` is then unused). `keys` are join keys that must
/// surface at a scan even when they are not in its default or explicit
/// column list (hive partition columns are not stored in the files).
struct Required {
  bool all = false;
  ColumnSet cols;
  ColumnSet keys;

  void Add(const ColumnSet& names) {
    if (!all) cols.insert(names.begin(), names.end());
  }
};

Required Only(ColumnSet cols) {
  Required req;
  req.cols = std::move(cols);
  return req;
}

Required Everything() {
  Required req;
  req.all = true;
  return req;
}

PlanPtr PruneScan(const Catalog& catalog, const PlanPtr& plan,
                  const Required& req) {
  auto table = catalog.GetTable(plan->table_id);
  if (!table.ok()) return plan;
  const Schema& schema = *(*table)->schema;
  const std::vector<std::string>& partition = (*table)->partition_columns;
  const bool explicit_cols = !plan->scan_columns.empty();
  std::vector<std::string> base = plan->scan_columns;
  if (!explicit_cols) {
    for (const Field& f : schema.fields()) base.push_back(f.name);
  }
  if (base.empty()) return plan;
  std::vector<std::string> cols;
  for (const std::string& c : base) {
    if (req.all || req.cols.count(c) > 0) cols.push_back(c);
  }
  if (!req.all && !explicit_cols) {
    for (const std::string& p : partition) {
      if (req.cols.count(p) > 0 && !Contains(cols, p)) cols.push_back(p);
    }
  }
  for (const std::string& k : req.keys) {
    if (Contains(cols, k)) continue;
    if (schema.FieldIndex(k) >= 0 || Contains(partition, k)) cols.push_back(k);
  }
  // An empty list means "all": keep one column so the row count survives.
  if (cols.empty()) cols.push_back(base.front());
  if (cols == base) return plan;
  auto copy = std::make_shared<Plan>(*plan);
  copy->scan_columns = std::move(cols);
  return copy;
}

PlanPtr PruneColumns(const Catalog& catalog, const PlanPtr& plan,
                     Required req) {
  auto one_child = [&](Required child_req) {
    return WithChildren(*plan, {PruneColumns(catalog, plan->children[0],
                                             std::move(child_req))});
  };
  switch (plan->kind) {
    case Plan::Kind::kScan:
      return PruneScan(catalog, plan, req);
    case Plan::Kind::kValues:
      return plan;
    case Plan::Kind::kFilter:
      req.Add(Refs(*plan->filter));
      return one_child(std::move(req));
    case Plan::Kind::kOrderBy:
      for (const SortKey& k : plan->sort_keys) req.Add({k.column});
      return one_child(std::move(req));
    case Plan::Kind::kLimit:
      return one_child(std::move(req));
    case Plan::Kind::kProject: {
      ColumnSet refs;
      for (const ExprPtr& e : plan->project_exprs) e->CollectColumns(&refs);
      return one_child(Only(std::move(refs)));
    }
    case Plan::Kind::kAggregate: {
      ColumnSet refs(plan->group_by.begin(), plan->group_by.end());
      for (const AggSpec& a : plan->aggregates) {
        if (!a.input.empty()) refs.insert(a.input);
      }
      return one_child(Only(std::move(refs)));
    }
    case Plan::Kind::kMap:
      return one_child(Everything());
    case Plan::Kind::kHashJoin: {
      const auto left = Producible(catalog, *plan->children[0]);
      const auto right = Producible(catalog, *plan->children[1]);
      // Producible() is nullopt for a join whose sides share a name, so
      // this one test covers opaque sides and name collisions alike.
      const bool barrier = req.all || !Producible(catalog, *plan).has_value();
      auto side_req = [&](const std::optional<ColumnSet>& side,
                          const std::vector<std::string>& join_keys) {
        Required out;
        out.all = barrier;
        for (const std::string& k : req.keys) {
          if (!side || side->count(k) > 0) out.keys.insert(k);
        }
        out.keys.insert(join_keys.begin(), join_keys.end());
        if (!barrier) {
          for (const std::string& c : req.cols) {
            if (side->count(c) > 0) out.cols.insert(c);
          }
          out.cols.insert(join_keys.begin(), join_keys.end());
        }
        return out;
      };
      return WithChildren(
          *plan,
          {PruneColumns(catalog, plan->children[0],
                        side_req(left, plan->left_keys)),
           PruneColumns(catalog, plan->children[1],
                        side_req(right, plan->right_keys))});
    }
  }
  return plan;
}

}  // namespace

PlanPtr OptimizePlan(const Catalog& catalog, const PlanPtr& plan) {
  if (plan == nullptr) return plan;
  PlanPtr pushed = PushConjuncts(catalog, plan, {});
  return PruneColumns(catalog, pushed, Everything());
}

}  // namespace biglake
