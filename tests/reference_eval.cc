#include "reference_eval.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "columnar/ipc.h"

namespace biglake {

namespace {

bool IsNullLiteral(const Expr& e) {
  return e.kind() == Expr::Kind::kLiteral && e.literal().is_null();
}

bool IsNumeric(DataType t) {
  return IsIntegerPhysical(t) || t == DataType::kDouble;
}

/// A plain column from boxed values (NULL -> validity 0, placeholder 0).
Column FromValues(DataType type, const std::vector<Value>& values) {
  ColumnBuilder b(type);
  for (const Value& v : values) {
    Status s = b.AppendValue(v);
    (void)s;  // every caller builds values of `type`
  }
  return b.Finish();
}

bool CmpResult(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// One lane of int64 arithmetic; nullopt = NULL.
std::optional<int64_t> IntArith(ArithOp op, int64_t a, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a), ub = static_cast<uint64_t>(b);
  switch (op) {
    case ArithOp::kAdd:
      return static_cast<int64_t>(ua + ub);
    case ArithOp::kSub:
      return static_cast<int64_t>(ua - ub);
    case ArithOp::kMul:
      return static_cast<int64_t>(ua * ub);
    case ArithOp::kMod:
      if (b == 0) return std::nullopt;
      if (b == -1) return 0;
      return a % b;
    case ArithOp::kDiv:
      break;  // always double
  }
  return std::nullopt;
}

/// One lane of double arithmetic; nullopt = NULL.
std::optional<double> DoubleArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      if (b == 0) return std::nullopt;
      return a / b;
    case ArithOp::kMod:
      break;  // rejected before the loop
  }
  return std::nullopt;
}

Result<Column> Arith(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  Column operands[2];
  for (size_t k = 0; k < 2; ++k) {
    const Expr& child = *e.children()[k];
    if (IsNullLiteral(child)) {
      operands[k] = Column::MakeNull(DataType::kInt64, n);
    } else {
      BL_ASSIGN_OR_RETURN(operands[k], ReferenceEvaluate(child, batch));
    }
  }
  const Column& l = operands[0];
  const Column& r = operands[1];
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::InvalidArgument("arithmetic requires numeric operands: " +
                                   e.ToString());
  }
  const bool any_double =
      l.type() == DataType::kDouble || r.type() == DataType::kDouble;
  if (e.arith_op() == ArithOp::kMod && any_double) {
    return Status::InvalidArgument("MOD requires integer operands");
  }
  const bool as_double = any_double || e.arith_op() == ArithOp::kDiv;
  std::vector<Value> out(n);
  for (size_t i = 0; i < n; ++i) {
    Value a = l.GetValue(i), b = r.GetValue(i);
    if (a.is_null() || b.is_null()) continue;
    if (as_double) {
      auto v = DoubleArith(e.arith_op(), a.AsDouble(), b.AsDouble());
      if (v.has_value()) out[i] = Value::Double(*v);
    } else {
      auto v = IntArith(e.arith_op(), a.int64_value(), b.int64_value());
      if (v.has_value()) out[i] = Value::Int64(*v);
    }
  }
  return FromValues(as_double ? DataType::kDouble : DataType::kInt64, out);
}

Result<Column> Logical(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  std::vector<Column> in;
  for (const ExprPtr& child : e.children()) {
    BL_ASSIGN_OR_RETURN(Column c, ReferencePredicate(*child, batch));
    in.push_back(std::move(c));
  }
  std::vector<Value> out(n);
  for (size_t i = 0; i < n; ++i) {
    Value a = in[0].GetValue(i);
    if (e.logical_op() == LogicalOp::kNot) {
      if (!a.is_null()) out[i] = Value::Bool(!a.bool_value());
      continue;
    }
    Value b = in[1].GetValue(i);
    // Kleene: the dominant value (FALSE for AND, TRUE for OR) wins over
    // NULL; otherwise any NULL makes the lane NULL.
    const bool dominant = e.logical_op() == LogicalOp::kOr;
    if ((!a.is_null() && a.bool_value() == dominant) ||
        (!b.is_null() && b.bool_value() == dominant)) {
      out[i] = Value::Bool(dominant);
    } else if (!a.is_null() && !b.is_null()) {
      out[i] = Value::Bool(!dominant);
    }
  }
  return FromValues(DataType::kBool, out);
}

}  // namespace

Result<Column> ReferenceEvaluate(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind()) {
    case Expr::Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(e.column_name()));
      return *col;
    }
    case Expr::Kind::kLiteral: {
      BL_ASSIGN_OR_RETURN(DataType t, e.ResultType(*batch.schema()));
      return FromValues(t, std::vector<Value>(n, e.literal()));
    }
    case Expr::Kind::kCompare: {
      BL_ASSIGN_OR_RETURN(Column l, ReferenceEvaluate(*e.children()[0], batch));
      BL_ASSIGN_OR_RETURN(Column r, ReferenceEvaluate(*e.children()[1], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        Value a = l.GetValue(i), b = r.GetValue(i);
        if (a.is_null() || b.is_null()) continue;
        out[i] = Value::Bool(CmpResult(e.cmp_op(), a.Compare(b)));
      }
      return FromValues(DataType::kBool, out);
    }
    case Expr::Kind::kLogical:
      return Logical(e, batch);
    case Expr::Kind::kArith:
      return Arith(e, batch);
    case Expr::Kind::kIsNull: {
      BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(*e.children()[0], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = Value::Bool(c.GetValue(i).is_null());
      }
      return FromValues(DataType::kBool, out);
    }
    case Expr::Kind::kInList: {
      BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(*e.children()[0], batch));
      std::vector<Value> out(n);
      for (size_t i = 0; i < n; ++i) {
        Value v = c.GetValue(i);
        if (v.is_null()) continue;
        bool found = false;
        for (const Value& item : e.in_list()) found |= v == item;
        out[i] = Value::Bool(found);
      }
      return FromValues(DataType::kBool, out);
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<Column> ReferencePredicate(const Expr& e, const RecordBatch& batch) {
  if (IsNullLiteral(e)) {
    return Column::MakeNull(DataType::kBool, batch.num_rows());
  }
  BL_ASSIGN_OR_RETURN(Column c, ReferenceEvaluate(e, batch));
  if (c.type() != DataType::kBool) {
    return Status::InvalidArgument("predicate does not evaluate to BOOL");
  }
  return c;
}

std::vector<uint8_t> ReferenceMask(const Column& bool_col) {
  std::vector<uint8_t> mask(bool_col.length(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    Value v = bool_col.GetValue(i);
    mask[i] = !v.is_null() && v.bool_value() ? 1 : 0;
  }
  return mask;
}

namespace {

std::string RowKey(const RecordBatch& batch, const std::vector<int>& cols,
                   size_t row) {
  std::string key;
  for (int c : cols) {
    EncodeColumnValue(&key, batch.column(static_cast<size_t>(c)), row);
  }
  return key;
}

/// With no GROUP BY and no rows, the one row SQL returns: COUNT 0, every
/// other aggregate NULL.
Result<RecordBatch> WithEmptyGlobalRow(RecordBatch batch,
                                       const std::vector<std::string>& group_by,
                                       const std::vector<AggSpec>& specs) {
  if (!group_by.empty() || batch.num_rows() > 0) return batch;
  BatchBuilder builder(batch.schema());
  std::vector<Value> row;
  for (const AggSpec& spec : specs) {
    row.push_back(spec.op == AggOp::kCount ? Value::Int64(0) : Value::Null());
  }
  BL_RETURN_NOT_OK(builder.AppendRow(row));
  return builder.Finish();
}

}  // namespace

Result<RecordBatch> ReferenceAggregate(
    const RecordBatch& input, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<uint32_t>* selection) {
  std::vector<int> group_cols;
  for (const auto& g : group_by) {
    int idx = input.schema()->FieldIndex(g);
    if (idx < 0) return Status::NotFound("no column `" + g + "`");
    group_cols.push_back(idx);
  }
  struct AggState {
    double sum = 0;
    uint64_t count = 0;
    Value min, max;
    bool seen = false;
  };
  std::vector<int> agg_cols;
  for (const auto& spec : aggregates) {
    if (spec.input.empty()) {
      agg_cols.push_back(-1);  // COUNT(*)
      continue;
    }
    int idx = input.schema()->FieldIndex(spec.input);
    if (idx < 0) return Status::NotFound("no input `" + spec.input + "`");
    agg_cols.push_back(idx);
  }

  const size_t n = selection != nullptr ? selection->size() : input.num_rows();
  std::map<std::string, std::pair<uint32_t, std::vector<AggState>>> groups;
  for (size_t j = 0; j < n; ++j) {
    const size_t r = selection != nullptr ? (*selection)[j] : j;
    auto [it, inserted] = groups.try_emplace(RowKey(input, group_cols, r));
    if (inserted) {
      it->second.first = static_cast<uint32_t>(r);
      it->second.second.resize(aggregates.size());
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      AggState& state = it->second.second[a];
      if (agg_cols[a] < 0) {
        ++state.count;
        continue;
      }
      Value v = input.GetValue(r, static_cast<size_t>(agg_cols[a]));
      if (v.is_null()) continue;
      ++state.count;
      if (v.is_int64() || v.is_double()) state.sum += v.AsDouble();
      if (!state.seen || v < state.min) state.min = v;
      if (!state.seen || state.max < v) state.max = v;
      state.seen = true;
    }
  }

  std::vector<Field> fields;
  for (int g : group_cols) {
    fields.push_back(input.schema()->field(static_cast<size_t>(g)));
  }
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    DataType t = DataType::kDouble;
    if (spec.op == AggOp::kCount) {
      t = DataType::kInt64;
    } else if (spec.op == AggOp::kMin || spec.op == AggOp::kMax) {
      int idx = agg_cols[a];
      t = idx < 0 ? DataType::kInt64
                  : input.schema()->field(static_cast<size_t>(idx)).type;
    }
    fields.push_back({spec.output, t, true});
  }
  BatchBuilder builder(MakeSchema(std::move(fields)));
  for (const auto& [key, group] : groups) {
    std::vector<Value> row;
    for (int g : group_cols) {
      row.push_back(input.GetValue(group.first, static_cast<size_t>(g)));
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const AggState& state = group.second[a];
      switch (aggregates[a].op) {
        case AggOp::kCount:
          row.push_back(Value::Int64(static_cast<int64_t>(state.count)));
          break;
        case AggOp::kSum:
          row.push_back(state.count == 0 ? Value::Null()
                                         : Value::Double(state.sum));
          break;
        case AggOp::kAvg:
          row.push_back(state.count == 0
                            ? Value::Null()
                            : Value::Double(state.sum /
                                            static_cast<double>(state.count)));
          break;
        case AggOp::kMin:
          row.push_back(state.seen ? state.min : Value::Null());
          break;
        case AggOp::kMax:
          row.push_back(state.seen ? state.max : Value::Null());
          break;
      }
    }
    BL_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

Result<RecordBatch> ReferenceMergePartials(const RecordBatch& partials,
                                           const std::vector<std::string>& group_by,
                                           const std::vector<AggSpec>& specs,
                                           bool final_step) {
  std::vector<int> group_cols;
  for (const auto& g : group_by) {
    int idx = partials.schema()->FieldIndex(g);
    if (idx < 0) return Status::NotFound("no group column `" + g + "`");
    group_cols.push_back(idx);
  }
  std::vector<int> spec_cols;
  for (const auto& spec : specs) {
    if (spec.op == AggOp::kAvg) {
      return Status::InvalidArgument("AVG partials cannot be merged");
    }
    int idx = partials.schema()->FieldIndex(spec.output);
    if (idx < 0) {
      return Status::NotFound("no partial column `" + spec.output + "`");
    }
    spec_cols.push_back(idx);
  }
  struct MergeState {
    int64_t count = 0;
    double sum = 0;
    Value min, max;
    bool seen = false;
    bool any = false;
  };
  std::map<std::string, std::pair<uint32_t, std::vector<MergeState>>> groups;
  for (size_t r = 0; r < partials.num_rows(); ++r) {
    auto [it, inserted] = groups.try_emplace(RowKey(partials, group_cols, r));
    if (inserted) {
      it->second.first = static_cast<uint32_t>(r);
      it->second.second.resize(specs.size());
    }
    for (size_t a = 0; a < specs.size(); ++a) {
      Value v = partials.GetValue(r, static_cast<size_t>(spec_cols[a]));
      if (v.is_null()) continue;
      MergeState& state = it->second.second[a];
      state.any = true;
      switch (specs[a].op) {
        case AggOp::kCount:
          state.count += v.int64_value();
          break;
        case AggOp::kSum:
          state.sum += v.AsDouble();
          break;
        case AggOp::kMin:
          if (!state.seen || v < state.min) state.min = v;
          state.seen = true;
          break;
        case AggOp::kMax:
          if (!state.seen || state.max < v) state.max = v;
          state.seen = true;
          break;
        case AggOp::kAvg:
          break;
      }
    }
  }
  BatchBuilder builder(partials.schema());
  for (const auto& [key, group] : groups) {
    std::vector<Value> row;
    for (int g : group_cols) {
      row.push_back(partials.GetValue(group.first, static_cast<size_t>(g)));
    }
    for (size_t a = 0; a < specs.size(); ++a) {
      const MergeState& state = group.second[a];
      switch (specs[a].op) {
        case AggOp::kCount:
          row.push_back(Value::Int64(state.count));
          break;
        case AggOp::kSum:
          row.push_back(state.any ? Value::Double(state.sum) : Value::Null());
          break;
        case AggOp::kMin:
          row.push_back(state.seen ? state.min : Value::Null());
          break;
        case AggOp::kMax:
          row.push_back(state.seen ? state.max : Value::Null());
          break;
        case AggOp::kAvg:
          break;
      }
    }
    BL_RETURN_NOT_OK(builder.AppendRow(row));
  }
  RecordBatch merged = builder.Finish();
  if (!final_step) return merged;
  return WithEmptyGlobalRow(std::move(merged), group_by, specs);
}

Result<RecordBatch> ReferenceChunkedAggregate(
    const RecordBatch& input, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<uint32_t>* selection) {
  const size_t grain = kAggregateChunkRows;
  const size_t n = selection != nullptr ? selection->size() : input.num_rows();
  if (n <= grain) {
    BL_ASSIGN_OR_RETURN(RecordBatch out,
                        ReferenceAggregate(input, group_by, aggregates,
                                           selection));
    return WithEmptyGlobalRow(std::move(out), group_by, aggregates);
  }

  // AVG splits into SUM + COUNT partials (AVG itself does not merge).
  std::vector<AggSpec> partial_specs;
  for (const AggSpec& spec : aggregates) {
    if (spec.op == AggOp::kAvg) {
      partial_specs.push_back(
          {AggOp::kSum, spec.input, "__avg_sum:" + spec.output});
      partial_specs.push_back(
          {AggOp::kCount, spec.input, "__avg_cnt:" + spec.output});
    } else {
      partial_specs.push_back(spec);
    }
  }
  std::vector<RecordBatch> partials;
  for (size_t begin = 0; begin < n; begin += grain) {
    const size_t count = std::min(grain, n - begin);
    if (selection != nullptr) {
      const std::vector<uint32_t> chunk(selection->begin() + begin,
                                        selection->begin() + begin + count);
      BL_ASSIGN_OR_RETURN(RecordBatch p,
                          ReferenceAggregate(input, group_by, partial_specs,
                                             &chunk));
      partials.push_back(std::move(p));
    } else {
      BL_ASSIGN_OR_RETURN(RecordBatch p,
                          ReferenceAggregate(input.Slice(begin, count),
                                             group_by, partial_specs));
      partials.push_back(std::move(p));
    }
  }
  BL_ASSIGN_OR_RETURN(RecordBatch all, RecordBatch::Concat(partials));
  BL_ASSIGN_OR_RETURN(
      RecordBatch merged,
      ReferenceMergePartials(all, group_by, partial_specs, false));

  // Recompose: group columns, then each spec (AVG = SUM / COUNT).
  std::vector<Field> fields;
  std::vector<int> group_cols;
  for (const auto& g : group_by) {
    group_cols.push_back(merged.schema()->FieldIndex(g));
    fields.push_back(merged.schema()->field(
        static_cast<size_t>(group_cols.back())));
  }
  for (const AggSpec& spec : aggregates) {
    if (spec.op == AggOp::kAvg) {
      fields.push_back({spec.output, DataType::kDouble, true});
    } else {
      fields.push_back(merged.schema()->field(static_cast<size_t>(
          merged.schema()->FieldIndex(spec.output))));
    }
  }
  BatchBuilder builder(MakeSchema(std::move(fields)));
  for (size_t r = 0; r < merged.num_rows(); ++r) {
    std::vector<Value> row;
    for (int g : group_cols) {
      row.push_back(merged.GetValue(r, static_cast<size_t>(g)));
    }
    for (const AggSpec& spec : aggregates) {
      if (spec.op != AggOp::kAvg) {
        row.push_back(merged.GetValue(
            r, static_cast<size_t>(merged.schema()->FieldIndex(spec.output))));
        continue;
      }
      Value sum = merged.GetValue(
          r, static_cast<size_t>(
                 merged.schema()->FieldIndex("__avg_sum:" + spec.output)));
      Value cnt = merged.GetValue(
          r, static_cast<size_t>(
                 merged.schema()->FieldIndex("__avg_cnt:" + spec.output)));
      row.push_back(sum.is_null() || cnt.int64_value() == 0
                        ? Value::Null()
                        : Value::Double(sum.AsDouble() /
                                        static_cast<double>(cnt.int64_value())));
    }
    BL_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

}  // namespace biglake
