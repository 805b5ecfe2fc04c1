#include "engine/plan.h"

#include "common/strings.h"

namespace biglake {

namespace {
std::shared_ptr<Plan> New(Plan::Kind kind) {
  auto p = std::make_shared<Plan>();
  p->kind = kind;
  return p;
}
}  // namespace

PlanPtr Plan::Scan(std::string table_id, std::vector<std::string> columns,
                   ExprPtr predicate) {
  auto p = New(Kind::kScan);
  p->table_id = std::move(table_id);
  p->scan_columns = std::move(columns);
  p->scan_predicate = std::move(predicate);
  return p;
}

PlanPtr Plan::Filter(PlanPtr input, ExprPtr predicate) {
  auto p = New(Kind::kFilter);
  p->children = {std::move(input)};
  p->filter = std::move(predicate);
  return p;
}

PlanPtr Plan::Project(PlanPtr input, std::vector<std::string> names,
                      std::vector<ExprPtr> exprs) {
  auto p = New(Kind::kProject);
  p->children = {std::move(input)};
  p->project_names = std::move(names);
  p->project_exprs = std::move(exprs);
  return p;
}

PlanPtr Plan::HashJoin(PlanPtr left, PlanPtr right,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys) {
  auto p = New(Kind::kHashJoin);
  p->children = {std::move(left), std::move(right)};
  p->left_keys = std::move(left_keys);
  p->right_keys = std::move(right_keys);
  return p;
}

PlanPtr Plan::Aggregate(PlanPtr input, std::vector<std::string> group_by,
                        std::vector<AggSpec> aggregates) {
  auto p = New(Kind::kAggregate);
  p->children = {std::move(input)};
  p->group_by = std::move(group_by);
  p->aggregates = std::move(aggregates);
  return p;
}

PlanPtr Plan::OrderBy(PlanPtr input, std::vector<SortKey> keys) {
  auto p = New(Kind::kOrderBy);
  p->children = {std::move(input)};
  p->sort_keys = std::move(keys);
  return p;
}

PlanPtr Plan::Limit(PlanPtr input, uint64_t n) {
  auto p = New(Kind::kLimit);
  p->children = {std::move(input)};
  p->limit = n;
  return p;
}

PlanPtr Plan::Map(PlanPtr input, std::string name, MapFn fn) {
  auto p = New(Kind::kMap);
  p->children = {std::move(input)};
  p->map_name = std::move(name);
  p->map_fn = std::move(fn);
  return p;
}

PlanPtr Plan::Values(RecordBatch batch) {
  auto p = New(Kind::kValues);
  p->values = std::move(batch);
  return p;
}

std::string Plan::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad;
  switch (kind) {
    case Kind::kScan:
      out += StrCat("Scan(", table_id,
                    scan_columns.empty()
                        ? ""
                        : ", cols=[" + Join(scan_columns, ",") + "]",
                    scan_predicate ? ", pred=" + scan_predicate->ToString()
                                   : "",
                    ")");
      break;
    case Kind::kFilter:
      out += StrCat("Filter(", filter->ToString(), ")");
      break;
    case Kind::kProject:
      out += StrCat("Project(", Join(project_names, ", "), ")");
      break;
    case Kind::kHashJoin:
      out += StrCat("HashJoin(", Join(left_keys, ","), " = ",
                    Join(right_keys, ","), ")");
      break;
    case Kind::kAggregate:
      out += StrCat("Aggregate(group=", Join(group_by, ","), ")");
      break;
    case Kind::kOrderBy:
      out += "OrderBy";
      break;
    case Kind::kLimit:
      out += StrCat("Limit(", limit, ")");
      break;
    case Kind::kMap:
      out += StrCat("Map(", map_name, ")");
      break;
    case Kind::kValues:
      out += StrCat("Values(", values.num_rows(), " rows)");
      break;
  }
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1);
  return out;
}

}  // namespace biglake
