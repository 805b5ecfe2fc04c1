#include "columnar/aggregate.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>

#include "columnar/ipc.h"
#include "columnar/key_column.h"
#include "common/strings.h"

namespace biglake {

namespace {

constexpr uint32_t kNone = UINT32_MAX;
/// Hash of a NULL key component (any constant: equality re-checks NULLs).
constexpr uint64_t kNullKeyHash = 0x9ae16a3b2f90404fULL;

/// Value::operator< between two non-NULL cells of the same class.
bool Less(const KeyColumn& a, uint32_t ra, const KeyColumn& b, uint32_t rb) {
  switch (a.cls) {
    case KeyClass::kInt: return a.i64[ra] < b.i64[rb];
    case KeyClass::kDouble: return a.f64[ra] < b.f64[rb];
    case KeyClass::kBool: return (a.b8[ra] != 0) < (b.b8[rb] != 0);
    case KeyClass::kString: return a.Str(ra) < b.Str(rb);
  }
  return false;
}

void AppendCell(ColumnBuilder* out, const KeyColumn& col, uint32_t r) {
  if (col.IsNull(r)) {
    out->AppendNull();
    return;
  }
  switch (col.cls) {
    case KeyClass::kInt: out->AppendInt64(col.i64[r]); return;
    case KeyClass::kDouble: out->AppendDouble(col.f64[r]); return;
    case KeyClass::kBool: out->AppendBool(col.b8[r] != 0); return;
    case KeyClass::kString: out->AppendString(col.Str(r)); return;
  }
}

/// Hash of a single string group key: a string of at most 16 bytes is
/// read as two words by overlapping 4-byte loads that together cover every
/// byte (wyhash's reads) and folded by one 64x64->128 multiply.
uint64_t StrKeyHash(std::string_view s) {
  const size_t n = s.size();
  if (n > 16) return KeyColumn::HashString(s);
  const auto* p = reinterpret_cast<const uint8_t*>(s.data());
  auto r4 = [](const uint8_t* q) {
    uint32_t v;
    std::memcpy(&v, q, sizeof(v));
    return static_cast<uint64_t>(v);
  };
  uint64_t a = 0, b = 0;
  if (n >= 4) {
    const size_t step = (n >> 3) << 2;
    a = (r4(p) << 32) | r4(p + step);
    b = (r4(p + n - 4) << 32) | r4(p + n - 4 - step);
  } else if (n > 0) {
    a = (uint64_t{p[0]} << 16) | (uint64_t{p[n >> 1]} << 8) | p[n - 1];
  }
  const unsigned __int128 m =
      static_cast<unsigned __int128>(a ^ 0xa0761d6478bd642fULL) *
      (b ^ 0xe7037ed1a0b428dbULL ^ n);
  return static_cast<uint64_t>(m) ^ static_cast<uint64_t>(m >> 64);
}

bool IsNumericClass(KeyClass c) {
  return c == KeyClass::kInt || c == KeyClass::kDouble;
}

}  // namespace

Result<SchemaPtr> AggregateOutputSchema(const Schema& input,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggSpec>& specs) {
  std::vector<Field> fields;
  for (const std::string& g : group_by) {
    int idx = input.FieldIndex(g);
    if (idx < 0) {
      return Status::NotFound(StrCat("no column `", g, "` in aggregate input"));
    }
    fields.push_back(input.field(static_cast<size_t>(idx)));
  }
  for (const AggSpec& spec : specs) {
    int idx = spec.input.empty() ? -1 : input.FieldIndex(spec.input);
    if (!spec.input.empty() && idx < 0) {
      return Status::NotFound(StrCat("no aggregate input `", spec.input, "`"));
    }
    DataType t = DataType::kDouble;
    if (spec.op == AggOp::kCount) {
      t = DataType::kInt64;
    } else if (spec.op == AggOp::kMin || spec.op == AggOp::kMax) {
      t = idx < 0 ? DataType::kInt64
                  : input.field(static_cast<size_t>(idx)).type;
    }
    fields.push_back({spec.output, t, true});
  }
  return MakeSchema(std::move(fields));
}

// ---------------------------------------------------------------------------
// State.
// ---------------------------------------------------------------------------

/// A row of one source: where a group's key, or a MIN/MAX value, lives.
struct HashAggregator::RowRef {
  uint32_t src = kNone;
  uint32_t row = 0;
};

/// One added batch with typed views of its group and input columns. Held
/// by pointer, so the views (which point into `batch`) never move.
struct HashAggregator::Source {
  RecordBatch batch;
  std::vector<KeyColumn> keys;    // group columns
  std::vector<KeyColumn> inputs;  // per spec; empty view without input
};

/// The value of a single string group key. Groups keep theirs, so a probe
/// compares values without reaching a group's source row.
struct HashAggregator::StrKey {
  std::string_view value;
  bool null = false;

  StrKey() = default;
  StrKey(const KeyColumn& col, uint32_t r) : null(col.IsNull(r)) {
    if (!null) value = col.Str(r);
  }
  bool operator==(const StrKey& o) const {
    return null == o.null && value == o.value;
  }
};

/// Groups with dense ids 0..G-1 (in first-seen order) and their typed
/// accumulators, one flat vector per spec and state. The global table and
/// each AddChunked chunk's partial table have this shape.
struct HashAggregator::GroupTable {
  std::vector<uint32_t> slots;   // open addressing: 0 = empty, else id + 1
  std::vector<uint64_t> hashes;  // per group
  std::vector<RowRef> reps;      // per group: a row holding its key
  std::vector<StrKey> str_keys;  // per group, with a single string key
  struct Acc {
    std::vector<int64_t> count;  // rows, non-NULL inputs or COUNT partials
    std::vector<double> sum;     // SUM/AVG
    std::vector<RowRef> best;    // MIN/MAX: the current extreme's row
  };
  std::vector<Acc> accs;  // per spec

  GroupTable(const std::vector<AggSpec>& specs) : slots(256, 0) {
    accs.resize(specs.size());
  }

  size_t size() const { return reps.size(); }

  uint32_t NewGroup(const std::vector<AggSpec>& specs, uint64_t h,
                    RowRef rep) {
    const auto id = static_cast<uint32_t>(reps.size());
    hashes.push_back(h);
    reps.push_back(rep);
    for (size_t a = 0; a < specs.size(); ++a) {
      Acc& acc = accs[a];
      acc.count.push_back(0);
      switch (specs[a].op) {
        case AggOp::kSum:
        case AggOp::kAvg: acc.sum.push_back(0.0); break;
        case AggOp::kMin:
        case AggOp::kMax: acc.best.push_back(RowRef{}); break;
        case AggOp::kCount: break;
      }
    }
    return id;
  }

  /// Slots group `id`; doubles the table past half full.
  void Slot(uint32_t id, size_t i) {
    slots[i] = id + 1;
    if (reps.size() * 2 <= slots.size()) return;
    slots.assign(slots.size() * 2, 0);
    const size_t mask = slots.size() - 1;
    for (uint32_t g = 0; g < reps.size(); ++g) {
      size_t j = hashes[g] & mask;
      while (slots[j] != 0) j = (j + 1) & mask;
      slots[j] = g + 1;
    }
  }
};

HashAggregator::HashAggregator() = default;
HashAggregator::HashAggregator(HashAggregator&&) noexcept = default;
HashAggregator& HashAggregator::operator=(HashAggregator&&) noexcept =
    default;
HashAggregator::~HashAggregator() = default;

Result<HashAggregator> HashAggregator::Make(const SchemaPtr& schema,
                                            std::vector<std::string> group_by,
                                            std::vector<AggSpec> specs,
                                            Input input) {
  HashAggregator agg;
  agg.input_ = input;
  agg.schema_ = schema;
  for (const std::string& g : group_by) {
    int idx = schema->FieldIndex(g);
    if (idx < 0) {
      return Status::NotFound(
          input == Input::kRows
              ? StrCat("no column `", g, "` in aggregate input")
              : StrCat("no group column `", g, "`"));
    }
    agg.group_cols_.push_back(idx);
  }
  if (input == Input::kRows) {
    BL_ASSIGN_OR_RETURN(agg.out_schema_,
                        AggregateOutputSchema(*schema, group_by, specs));
    for (const AggSpec& spec : specs) {
      agg.input_cols_.push_back(
          spec.input.empty() ? -1 : schema->FieldIndex(spec.input));
    }
  } else {
    // Partials keep their own schema: group columns, then the specs'
    // output columns.
    std::vector<Field> fields;
    for (int g : agg.group_cols_) {
      fields.push_back(schema->field(static_cast<size_t>(g)));
    }
    for (const AggSpec& spec : specs) {
      int idx = schema->FieldIndex(spec.output);
      if (idx < 0) {
        return Status::NotFound(
            StrCat("no partial column `", spec.output, "`"));
      }
      const Field& f = schema->field(static_cast<size_t>(idx));
      const KeyClass cls = ClassOf(f.type);
      if (spec.op == AggOp::kAvg) {
        return Status::InvalidArgument("AVG partials cannot be merged");
      }
      if ((spec.op == AggOp::kCount && cls != KeyClass::kInt) ||
          (spec.op == AggOp::kSum && !IsNumericClass(cls))) {
        return Status::InvalidArgument(
            StrCat("partial column `", spec.output, "` is not numeric"));
      }
      agg.input_cols_.push_back(idx);
      fields.push_back(f);
    }
    agg.out_schema_ = MakeSchema(std::move(fields));
  }
  agg.str_key_ =
      agg.group_cols_.size() == 1 &&
      ClassOf(schema->field(static_cast<size_t>(agg.group_cols_[0])).type) ==
          KeyClass::kString;
  agg.specs_ = std::move(specs);
  agg.groups_ = std::make_unique<GroupTable>(agg.specs_);
  return agg;
}

size_t HashAggregator::num_groups() const { return groups_->size(); }

Result<uint32_t> HashAggregator::AddSource(const RecordBatch& batch) {
  if (!batch.schema()->Equals(*schema_)) {
    return Status::InvalidArgument(
        StrCat("aggregate input schema ", batch.schema()->ToString(),
               " differs from ", schema_->ToString()));
  }
  auto s = std::make_unique<Source>();
  s->batch = batch;
  s->keys.reserve(group_cols_.size());
  for (int g : group_cols_) {
    // A single string key hashes its values with StrKeyHash.
    s->keys.emplace_back(s->batch.column(static_cast<size_t>(g)),
                         /*hash_dictionary=*/!str_key_);
  }
  s->inputs.reserve(input_cols_.size());
  for (int c : input_cols_) {
    if (c < 0) {
      s->inputs.emplace_back();
    } else {
      s->inputs.emplace_back(s->batch.column(static_cast<size_t>(c)),
                             /*hash_dictionary=*/false);
    }
  }
  sources_.push_back(std::move(s));
  return static_cast<uint32_t>(sources_.size() - 1);
}

// ---------------------------------------------------------------------------
// Grouping and accumulation.
// ---------------------------------------------------------------------------

bool HashAggregator::SameKey(RowRef a, RowRef b) const {
  const Source& sa = *sources_[a.src];
  const Source& sb = *sources_[b.src];
  for (size_t k = 0; k < sa.keys.size(); ++k) {
    const bool null_a = sa.keys[k].IsNull(a.row);
    if (null_a != sb.keys[k].IsNull(b.row)) return false;
    if (!null_a && !KeyEqual(sa.keys[k], a.row, sb.keys[k], b.row)) {
      return false;
    }
  }
  return true;
}

bool HashAggregator::Replaces(size_t a, RowRef cand, RowRef best) const {
  if (best.src == kNone) return true;
  const KeyColumn& c = sources_[cand.src]->inputs[a];
  const KeyColumn& b = sources_[best.src]->inputs[a];
  return specs_[a].op == AggOp::kMin ? Less(c, cand.row, b, best.row)
                                     : Less(b, best.row, c, cand.row);
}

uint32_t HashAggregator::FindOrInsert(GroupTable* t, uint64_t h, RowRef key,
                                      const StrKey* str) const {
  StrKey own;
  if (str_key_ && str == nullptr) {
    own = StrKey(sources_[key.src]->keys[0], key.row);
    str = &own;
  }
  const size_t mask = t->slots.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const uint32_t slot = t->slots[i];
    if (slot == 0) {
      const uint32_t id = t->NewGroup(specs_, h, key);
      if (str_key_) t->str_keys.push_back(*str);
      t->Slot(id, i);
      return id;
    }
    const uint32_t g = slot - 1;
    if (t->hashes[g] != h) continue;
    if (str_key_ ? t->str_keys[g] == *str : SameKey(key, t->reps[g])) {
      return g;
    }
  }
}

void HashAggregator::Update(GroupTable* t, uint32_t src, const uint32_t* rows,
                            size_t n) const {
  if (n == 0) return;
  const Source& s = *sources_[src];
  const size_t nkeys = s.keys.size();
  std::vector<uint32_t> gid(n);

  if (nkeys == 0) {
    // Global aggregate: one group (slotted, so folds find it).
    if (t->size() == 0) FindOrInsert(t, 0, RowRef{src, rows[0]});
    std::fill(gid.begin(), gid.end(), 0);
  } else if (str_key_) {
    // One string key: probes compare the groups' kept values. A dictionary
    // key probes once per code, then maps the code straight to its group
    // through a code -> group id table (the Arrow DictionaryArray idiom;
    // duplicate entries probe to the same group).
    const KeyColumn& kc = s.keys[0];
    std::vector<uint32_t> code_group;
    if (kc.dict != nullptr && kc.strings->size() <= n) {
      code_group.assign(kc.strings->size(), kNone);
    }
    for (size_t j = 0; j < n; ++j) {
      const uint32_t r = rows[j];
      uint32_t* code = nullptr;
      if (!code_group.empty() && !kc.IsNull(r)) {
        code = &code_group[kc.dict[r]];
        if (*code != kNone) {
          gid[j] = *code;
          continue;
        }
      }
      const StrKey key(kc, r);
      const uint64_t h = key.null ? kNullKeyHash : StrKeyHash(key.value);
      gid[j] = FindOrInsert(t, h, RowRef{src, r}, &key);
      if (code != nullptr) *code = gid[j];
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      const uint32_t r = rows[j];
      uint64_t h = 0;
      for (size_t k = 0; k < nkeys; ++k) {
        const KeyColumn& kc = s.keys[k];
        const uint64_t hk = kc.IsNull(r) ? kNullKeyHash : kc.Hash(r);
        h = k == 0 ? hk : Mix64(h) ^ hk;
      }
      gid[j] = FindOrInsert(t, h, RowRef{src, r});
    }
  }

  // One typed pass per spec over (row, group id) pairs, in row order.
  for (size_t a = 0; a < specs_.size(); ++a) {
    GroupTable::Acc& acc = t->accs[a];
    if (input_cols_[a] < 0) {
      if (nkeys == 0) {
        acc.count[0] += static_cast<int64_t>(n);
      } else {
        for (size_t j = 0; j < n; ++j) ++acc.count[gid[j]];
      }
      continue;
    }
    const KeyColumn& in = s.inputs[a];
    const uint8_t* valid = in.valid;
    switch (specs_[a].op) {
      case AggOp::kCount:
        if (input_ == Input::kPartials) {
          for (size_t j = 0; j < n; ++j) {
            const uint32_t r = rows[j];
            if (valid == nullptr || valid[r] != 0) {
              acc.count[gid[j]] += in.i64[r];
            }
          }
        } else if (valid == nullptr) {
          for (size_t j = 0; j < n; ++j) ++acc.count[gid[j]];
        } else {
          for (size_t j = 0; j < n; ++j) acc.count[gid[j]] += valid[rows[j]];
        }
        break;
      case AggOp::kSum:
      case AggOp::kAvg: {
        // A non-numeric input counts but adds nothing.
        auto sum = [&](auto value) {
          if (nkeys == 0) {
            // One group: accumulate in registers.
            int64_t count = acc.count[0];
            double total = acc.sum[0];
            for (size_t j = 0; j < n; ++j) {
              const uint32_t r = rows[j];
              if (valid != nullptr && valid[r] == 0) continue;
              ++count;
              total += value(r);
            }
            acc.count[0] = count;
            acc.sum[0] = total;
            return;
          }
          for (size_t j = 0; j < n; ++j) {
            const uint32_t r = rows[j];
            if (valid != nullptr && valid[r] == 0) continue;
            ++acc.count[gid[j]];
            acc.sum[gid[j]] += value(r);
          }
        };
        if (in.cls == KeyClass::kDouble) {
          sum([&](uint32_t r) { return in.f64[r]; });
        } else if (in.cls == KeyClass::kInt) {
          sum([&](uint32_t r) { return static_cast<double>(in.i64[r]); });
        } else {
          for (size_t j = 0; j < n; ++j) {
            if (valid == nullptr || valid[rows[j]] != 0) ++acc.count[gid[j]];
          }
        }
        break;
      }
      case AggOp::kMin:
      case AggOp::kMax: {
        for (size_t j = 0; j < n; ++j) {
          const uint32_t r = rows[j];
          if (valid != nullptr && valid[r] == 0) continue;
          RowRef& best = acc.best[gid[j]];
          if (Replaces(a, RowRef{src, r}, best)) best = RowRef{src, r};
        }
        break;
      }
    }
  }
}

void HashAggregator::Fold(GroupTable* into, GroupTable&& part) const {
  GroupTable& t = *into;
  if (t.size() == 0) {
    // 0.0 + p is p for every partial sum p (a sum that starts at +0.0 is
    // never -0.0), so adopting the first table equals folding it.
    t = std::move(part);
    return;
  }
  for (uint32_t pg = 0; pg < part.size(); ++pg) {
    const uint32_t g = FindOrInsert(&t, part.hashes[pg], part.reps[pg]);
    for (size_t a = 0; a < specs_.size(); ++a) {
      GroupTable::Acc& acc = t.accs[a];
      const GroupTable::Acc& pacc = part.accs[a];
      acc.count[g] += pacc.count[pg];
      switch (specs_[a].op) {
        case AggOp::kSum:
        case AggOp::kAvg:
          if (pacc.count[pg] > 0) acc.sum[g] += pacc.sum[pg];
          break;
        case AggOp::kMin:
        case AggOp::kMax:
          if (pacc.best[pg].src != kNone &&
              Replaces(a, pacc.best[pg], acc.best[g])) {
            acc.best[g] = pacc.best[pg];
          }
          break;
        case AggOp::kCount:
          break;
      }
    }
  }
}

Status HashAggregator::Add(const RecordBatch& batch,
                           const std::vector<uint32_t>* selection) {
  BL_ASSIGN_OR_RETURN(uint32_t src, AddSource(batch));
  const size_t n = selection != nullptr ? selection->size() : batch.num_rows();
  // Bounded pieces keep the group-id scratch small; the groups update in
  // place, so the row order (and every sum) is that of one pass.
  std::vector<uint32_t> ids;
  for (size_t begin = 0; begin < n; begin += kAggregateChunkRows) {
    const size_t count = std::min(kAggregateChunkRows, n - begin);
    const uint32_t* rows;
    if (selection != nullptr) {
      rows = selection->data() + begin;
    } else {
      ids.resize(count);
      std::iota(ids.begin(), ids.end(), static_cast<uint32_t>(begin));
      rows = ids.data();
    }
    Update(groups_.get(), src, rows, count);
  }
  return Status::OK();
}

Status HashAggregator::AddChunked(ThreadPool* pool,
                                  const std::vector<SelectedBatch>& chunks) {
  // One source per non-empty chunk, with the logical row each one starts at.
  struct Piece {
    uint32_t src;
    const std::vector<uint32_t>* sel;
    size_t begin;  // first logical row
  };
  std::vector<Piece> pieces;
  size_t n = 0;
  for (const SelectedBatch& chunk : chunks) {
    if (chunk.num_rows() == 0) continue;
    BL_ASSIGN_OR_RETURN(uint32_t src, AddSource(chunk.batch));
    pieces.push_back(Piece{src, chunk.ids(), n});
    n += chunk.num_rows();
  }
  const size_t cuts = (n + kAggregateChunkRows - 1) / kAggregateChunkRows;
  chunks_ += cuts;
  std::vector<GroupTable> parts(cuts, GroupTable(specs_));
  auto run = [&](size_t c) -> Status {
    const size_t begin = c * kAggregateChunkRows;
    const size_t end = std::min(n, begin + kAggregateChunkRows);
    // The last piece starting at or before `begin`, then onwards.
    size_t k = static_cast<size_t>(
        std::upper_bound(pieces.begin(), pieces.end(), begin,
                         [](size_t row, const Piece& p) {
                           return row < p.begin;
                         }) -
        pieces.begin() - 1);
    std::vector<uint32_t> ids;
    for (size_t row = begin; row < end; ++k) {
      const Piece& p = pieces[k];
      const size_t piece_end =
          k + 1 < pieces.size() ? pieces[k + 1].begin : n;
      const size_t lo = row - p.begin;
      const size_t count = std::min(end, piece_end) - row;
      if (p.sel != nullptr) {
        Update(&parts[c], p.src, p.sel->data() + lo, count);
      } else {
        ids.resize(count);
        std::iota(ids.begin(), ids.end(), static_cast<uint32_t>(lo));
        Update(&parts[c], p.src, ids.data(), count);
      }
      row += count;
    }
    return Status::OK();
  };
  // One cut runs on the caller: a pool hand-off would cost more.
  if (pool != nullptr && cuts > 1) {
    BL_RETURN_NOT_OK(pool->ParallelFor(cuts, run));
  } else {
    for (size_t c = 0; c < cuts; ++c) BL_RETURN_NOT_OK(run(c));
  }
  for (GroupTable& part : parts) Fold(groups_.get(), std::move(part));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

Result<RecordBatch> HashAggregator::Finish(bool final_step) {
  GroupTable& t = *groups_;
  if (final_step && group_cols_.empty() && t.size() == 0) {
    t.NewGroup(specs_, 0, RowRef{});
  }
  const size_t num_groups = t.size();

  // Groups in ascending order of their encoded keys (the bytes
  // EncodeColumnValue writes): O(G log G), one encoding per group.
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0u);
  if (!group_cols_.empty() && num_groups > 1) {
    std::string arena;
    std::vector<size_t> offsets(num_groups + 1, 0);
    for (uint32_t g = 0; g < num_groups; ++g) {
      const RowRef& rep = t.reps[g];
      for (int c : group_cols_) {
        EncodeColumnValue(&arena,
                          sources_[rep.src]->batch.column(
                              static_cast<size_t>(c)),
                          rep.row);
      }
      offsets[g + 1] = arena.size();
    }
    auto key = [&](uint32_t g) {
      return std::string_view(arena).substr(offsets[g],
                                            offsets[g + 1] - offsets[g]);
    };
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
  }

  // Plain columns built exactly as BatchBuilder would append the values.
  std::vector<Column> cols;
  cols.reserve(out_schema_->num_fields());
  for (size_t k = 0; k < group_cols_.size(); ++k) {
    ColumnBuilder b(out_schema_->field(k).type);
    for (uint32_t g : order) {
      const RowRef& rep = t.reps[g];
      AppendCell(&b, sources_[rep.src]->keys[k], rep.row);
    }
    cols.push_back(b.Finish());
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    const GroupTable::Acc& acc = t.accs[a];
    ColumnBuilder b(out_schema_->field(group_cols_.size() + a).type);
    for (uint32_t g : order) {
      switch (specs_[a].op) {
        case AggOp::kCount:
          b.AppendInt64(acc.count[g]);
          break;
        case AggOp::kSum:
          if (acc.count[g] == 0) {
            b.AppendNull();
          } else {
            b.AppendDouble(acc.sum[g]);
          }
          break;
        case AggOp::kAvg:
          if (acc.count[g] == 0) {
            b.AppendNull();
          } else {
            b.AppendDouble(acc.sum[g] / static_cast<double>(acc.count[g]));
          }
          break;
        case AggOp::kMin:
        case AggOp::kMax: {
          const RowRef& best = acc.best[g];
          if (best.src == kNone) {
            b.AppendNull();
          } else {
            AppendCell(&b, sources_[best.src]->inputs[a], best.row);
          }
          break;
        }
      }
    }
    cols.push_back(b.Finish());
  }
  return RecordBatch(out_schema_, std::move(cols));
}

Result<RecordBatch> MergePartialAggregates(
    const std::vector<RecordBatch>& partials,
    const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& specs) {
  if (partials.empty()) {
    return Status::InvalidArgument("no partial aggregates to merge");
  }
  // An empty partial adds nothing, so its schema does not have to match.
  const RecordBatch* first = &partials[0];
  for (const RecordBatch& p : partials) {
    if (p.num_rows() > 0) {
      first = &p;
      break;
    }
  }
  BL_ASSIGN_OR_RETURN(
      HashAggregator agg,
      HashAggregator::Make(first->schema(), group_by, specs,
                           HashAggregator::Input::kPartials));
  for (const RecordBatch& p : partials) {
    if (p.num_rows() > 0) BL_RETURN_NOT_OK(agg.Add(p));
  }
  return agg.Finish(/*final_step=*/true);
}

}  // namespace biglake
