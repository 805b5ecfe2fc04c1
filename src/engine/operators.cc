#include "engine/operators.h"

#include <algorithm>
#include <functional>
#include <set>

#include "columnar/key_column.h"
#include "common/coding.h"
#include "common/strings.h"

namespace biglake {
namespace ops {

namespace {

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    int idx = schema.FieldIndex(n);
    if (idx < 0) {
      return Status::NotFound(
          StrCat("no column `", n, "` in operator input"));
    }
    out.push_back(idx);
  }
  return out;
}

/// One side of a join, or one piece of a probe chunk: its key columns and
/// the logical -> original row map (`base + j` without a selection).
struct JoinSide {
  const std::vector<KeyColumn>* keys = nullptr;
  const uint32_t* sel = nullptr;
  uint32_t base = 0;
  size_t n = 0;

  uint32_t Orig(size_t j) const {
    return sel != nullptr ? sel[j] : base + static_cast<uint32_t>(j);
  }

  /// Combined key hashes of logical rows [begin, end) into `hash`, and
  /// `skip[j]` = 1 for rows with any NULL key (NULL never joins).
  void HashRows(size_t begin, size_t end, uint64_t* hash,
                uint8_t* skip) const {
    const size_t count = end - begin;
    std::fill_n(skip, count, 0);
    for (size_t k = 0; k < keys->size(); ++k) {
      const KeyColumn& kc = (*keys)[k];
      for (size_t j = 0; j < count; ++j) {
        const uint32_t r = Orig(begin + j);
        const uint64_t h = kc.Hash(r);
        hash[j] = k == 0 ? h : Mix64(hash[j]) ^ h;
        if (kc.valid != nullptr) skip[j] |= kc.valid[r] == 0;
      }
    }
  }
};

bool RowsEqual(const JoinSide& a, uint32_t ra, const JoinSide& b,
               uint32_t rb) {
  for (size_t k = 0; k < a.keys->size(); ++k) {
    if (!KeyEqual((*a.keys)[k], ra, (*b.keys)[k], rb)) return false;
  }
  return true;
}

/// Probe piece width. Fixed, so the piece boundaries (and with them the
/// output chunks) never depend on the worker count.
constexpr size_t kProbeChunkRows = 16 * 1024;
constexpr uint32_t kNoRow = UINT32_MAX;

/// Flat open-addressing table over the build side. Each distinct key owns
/// one slot holding its hash and the head/tail of its chain of logical
/// build rows; `next` links the chain in ascending row order.
class JoinTable {
 public:
  JoinTable(const JoinSide& build, bool exact_hash)
      : build_(build), exact_(exact_hash), next_(build.n, kNoRow) {
    size_t cap = 16;
    while (cap < build.n * 2) cap *= 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  /// Inserts logical build row `j`; rows must arrive in ascending order.
  void Insert(uint32_t j, uint64_t h) {
    const uint32_t r = build_.Orig(j);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.head == kNoRow) {
        s = Slot{h, j, j};
        return;
      }
      if (s.hash == h &&
          (exact_ || RowsEqual(build_, build_.Orig(s.head), build_, r))) {
        next_[s.tail] = j;
        s.tail = j;
        return;
      }
    }
  }

  /// Head of the chain matching probe row `r` of `probe`, or kNoRow.
  uint32_t Find(uint64_t h, const JoinSide& probe, uint32_t r) const {
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.head == kNoRow) return kNoRow;
      if (s.hash == h &&
          (exact_ || RowsEqual(build_, build_.Orig(s.head), probe, r))) {
        return s.head;
      }
    }
  }

  uint32_t Next(uint32_t j) const { return next_[j]; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNoRow;
    uint32_t tail = kNoRow;
  };
  const JoinSide& build_;
  const bool exact_;
  std::vector<uint32_t> next_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Runs fn(c) for chunks c in [0, n): on `pool` when given (ParallelFor
/// runs them inline at one worker), else serially on the caller.
Status RunChunks(ThreadPool* pool, size_t n,
                 const std::function<Status(size_t)>& fn) {
  if (pool != nullptr) return pool->ParallelFor(n, fn);
  for (size_t c = 0; c < n; ++c) BL_RETURN_NOT_OK(fn(c));
  return Status::OK();
}

/// Build fields, then probe fields; a probe name colliding with a build
/// name gets "_r" suffixes until it is unique.
SchemaPtr JoinSchema(const Schema& build, const Schema& probe) {
  std::vector<Field> fields;
  std::set<std::string> used;
  for (size_t c = 0; c < build.num_fields(); ++c) {
    fields.push_back(build.field(c));
    used.insert(fields.back().name);
  }
  for (size_t c = 0; c < probe.num_fields(); ++c) {
    Field f = probe.field(c);
    while (used.count(f.name) > 0) f.name += "_r";
    used.insert(f.name);
    fields.push_back(std::move(f));
  }
  return MakeSchema(std::move(fields));
}

/// One output chunk: the build rows and probe rows of its matches, gathered.
RecordBatch GatherMatches(const RecordBatch& build, const RecordBatch& probe,
                          const std::vector<uint32_t>& build_rows,
                          const std::vector<uint32_t>& probe_rows,
                          SchemaPtr schema) {
  std::vector<Column> cols;
  cols.reserve(build.num_columns() + probe.num_columns());
  for (size_t c = 0; c < build.num_columns(); ++c) {
    cols.push_back(build.column(c).Gather(build_rows));
  }
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    cols.push_back(probe.column(c).Gather(probe_rows));
  }
  return RecordBatch(std::move(schema), std::move(cols));
}

}  // namespace

Result<ChunkedBatch> HashJoin(ThreadPool* pool, const SelectedBatch& build,
                              const ChunkedBatch& probe,
                              const std::vector<std::string>& build_keys,
                              const std::vector<std::string>& probe_keys,
                              uint64_t* matches_out) {
  if (build_keys.size() != probe_keys.size() || build_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  const Schema& build_schema = *build.batch.schema();
  BL_ASSIGN_OR_RETURN(std::vector<int> build_cols,
                      ResolveColumns(build_schema, build_keys));
  BL_ASSIGN_OR_RETURN(std::vector<int> probe_cols,
                      ResolveColumns(*probe.schema, probe_keys));
  bool comparable = true;
  for (size_t k = 0; k < build_cols.size(); ++k) {
    comparable &=
        ClassOf(build_schema.field(static_cast<size_t>(build_cols[k])).type) ==
        ClassOf(probe.schema->field(static_cast<size_t>(probe_cols[k])).type);
  }
  ChunkedBatch out;
  out.schema = JoinSchema(build_schema, *probe.schema);
  if (matches_out != nullptr) *matches_out = 0;

  // All build indexing is in logical rows (positions within the selection,
  // or plain row ids without one).
  std::vector<KeyColumn> build_key_cols;
  for (int c : build_cols) {
    build_key_cols.emplace_back(build.batch.column(static_cast<size_t>(c)));
  }
  JoinSide b;
  b.keys = &build_key_cols;
  b.sel = build.sel ? build.sel->ids().data() : nullptr;
  b.n = build.num_rows();
  if (!comparable || b.n == 0 || probe.num_rows() == 0) return out;

  // A single fixed-width key hashes bijectively: equal hashes are equal
  // keys, so slots never compare rows.
  const bool exact =
      build_key_cols.size() == 1 && build_key_cols[0].cls != KeyClass::kString;
  JoinTable table(b, exact);
  {
    std::vector<uint64_t> hash(b.n);
    std::vector<uint8_t> skip(b.n);
    const size_t chunks = (b.n + kProbeChunkRows - 1) / kProbeChunkRows;
    BL_RETURN_NOT_OK(RunChunks(pool, chunks, [&](size_t c) -> Status {
      const size_t begin = c * kProbeChunkRows;
      const size_t end = std::min(b.n, begin + kProbeChunkRows);
      b.HashRows(begin, end, hash.data() + begin, skip.data() + begin);
      return Status::OK();
    }));
    for (size_t j = 0; j < b.n; ++j) {
      if (skip[j] == 0) table.Insert(static_cast<uint32_t>(j), hash[j]);
    }
  }

  // Key views per probe chunk, built once and shared by its pieces.
  std::vector<std::vector<KeyColumn>> probe_key_cols(probe.chunks.size());
  BL_RETURN_NOT_OK(
      ForEachChunk(pool, probe.chunks.size(), [&](size_t k) -> Status {
        for (int c : probe_cols) {
          probe_key_cols[k].emplace_back(
              probe.chunks[k].batch.column(static_cast<size_t>(c)));
        }
        return Status::OK();
      }));
  // Pieces of at most kProbeChunkRows logical rows, in probe order.
  struct Piece {
    size_t chunk;
    size_t begin, end;  // logical rows of the chunk
  };
  std::vector<Piece> pieces;
  for (size_t k = 0; k < probe.chunks.size(); ++k) {
    const size_t n = probe.chunks[k].num_rows();
    for (size_t begin = 0; begin < n; begin += kProbeChunkRows) {
      pieces.push_back(Piece{k, begin, std::min(n, begin + kProbeChunkRows)});
    }
  }
  std::vector<RecordBatch> outputs(pieces.size());
  BL_RETURN_NOT_OK(RunChunks(pool, pieces.size(), [&](size_t t) -> Status {
    const Piece& piece = pieces[t];
    const SelectedBatch& chunk = probe.chunks[piece.chunk];
    JoinSide p;
    p.keys = &probe_key_cols[piece.chunk];
    p.sel = chunk.sel ? chunk.sel->ids().data() + piece.begin : nullptr;
    p.base = static_cast<uint32_t>(piece.begin);
    p.n = piece.end - piece.begin;
    std::vector<uint64_t> hash(p.n);
    std::vector<uint8_t> skip(p.n);
    p.HashRows(0, p.n, hash.data(), skip.data());
    std::vector<uint32_t> build_rows, probe_rows;
    for (size_t j = 0; j < p.n; ++j) {
      if (skip[j] != 0) continue;
      const uint32_t r = p.Orig(j);
      for (uint32_t bj = table.Find(hash[j], p, r); bj != kNoRow;
           bj = table.Next(bj)) {
        build_rows.push_back(b.Orig(bj));
        probe_rows.push_back(r);
      }
    }
    if (!build_rows.empty()) {
      outputs[t] = GatherMatches(build.batch, chunk.batch, build_rows,
                                 probe_rows, out.schema);
    }
    return Status::OK();
  }));

  // Pieces cover ascending probe ranges: their outputs in piece order are
  // global probe-row order, each row's matches in build-row order.
  uint64_t matches = 0;
  for (RecordBatch& o : outputs) {
    matches += o.num_rows();
    out.Append(SelectedBatch{std::move(o), std::nullopt});
  }
  if (matches_out != nullptr) *matches_out = matches;
  return out;
}

Result<RecordBatch> HashJoin(ThreadPool* pool, const RecordBatch& build,
                             const RecordBatch& probe,
                             const std::vector<std::string>& build_keys,
                             const std::vector<std::string>& probe_keys,
                             uint64_t* matches_out,
                             const std::vector<uint32_t>* build_sel,
                             const std::vector<uint32_t>* probe_sel) {
  auto selected = [](const RecordBatch& batch,
                     const std::vector<uint32_t>* sel) {
    return SelectedBatch{batch, sel != nullptr
                                    ? std::optional(SelectionVector(*sel))
                                    : std::nullopt};
  };
  ChunkedBatch probe_chunks;
  probe_chunks.schema = probe.schema();
  probe_chunks.chunks.push_back(selected(probe, probe_sel));
  BL_ASSIGN_OR_RETURN(ChunkedBatch joined,
                      HashJoin(pool, selected(build, build_sel), probe_chunks,
                               build_keys, probe_keys, matches_out));
  if (joined.chunks.empty()) {
    // No match: every column gathered at no row, encodings kept.
    return GatherMatches(build, probe, {}, {}, joined.schema);
  }
  return std::move(joined).Contiguous(pool);
}

Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const ChunkedBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      AggregateStats* stats) {
  BL_ASSIGN_OR_RETURN(HashAggregator agg,
                      HashAggregator::Make(input.schema, group_by,
                                           aggregates));
  BL_RETURN_NOT_OK(agg.AddChunked(pool, input.chunks));
  if (stats != nullptr) {
    stats->groups = agg.num_groups();
    stats->chunks = agg.num_chunks();
  }
  return agg.Finish(/*final_step=*/true);
}

Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const RecordBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      const std::vector<uint32_t>* selection,
                                      AggregateStats* stats) {
  ChunkedBatch chunked = ChunkedBatch::Of(input);
  if (selection != nullptr) chunked.chunks[0].sel = SelectionVector(*selection);
  return ParallelAggregate(pool, chunked, group_by, aggregates, stats);
}

Result<RecordBatch> SortBatch(const RecordBatch& input,
                              const std::vector<SortKey>& keys,
                              const std::vector<uint32_t>* selection) {
  // Key columns decoded once (dictionary/RLE to plain), then compared
  // typed in Value::Compare order (NULL first) without boxing.
  std::vector<Column> key_cols;
  for (const auto& k : keys) {
    int idx = input.schema()->FieldIndex(k.column);
    if (idx < 0) {
      return Status::NotFound(StrCat("no sort column `", k.column, "`"));
    }
    key_cols.push_back(input.column(static_cast<size_t>(idx)).Decode());
  }
  // A selection pre-seeds the permutation with the surviving row ids (in
  // ascending order, matching a materialized filter); the stable sort then
  // permutes only those.
  std::vector<uint32_t> order;
  if (selection != nullptr) {
    order = *selection;
  } else {
    order.resize(input.num_rows());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < key_cols.size(); ++i) {
      int cmp = ComparePlainRows(key_cols[i], a, b);
      if (cmp != 0) return keys[i].descending ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  return input.Gather(order);
}

std::vector<Value> DistinctValues(const RecordBatch& batch,
                                  const std::string& column,
                                  uint64_t max_values,
                                  const std::vector<uint32_t>* selection) {
  int idx = batch.schema()->FieldIndex(column);
  if (idx < 0) return {};
  std::set<Value> distinct;
  const size_t n = selection != nullptr ? selection->size() : batch.num_rows();
  for (size_t j = 0; j < n; ++j) {
    size_t r = selection != nullptr ? (*selection)[j] : j;
    Value v = batch.GetValue(r, static_cast<size_t>(idx));
    if (!v.is_null()) distinct.insert(std::move(v));
    if (distinct.size() > max_values) return {};
  }
  return std::vector<Value>(distinct.begin(), distinct.end());
}

}  // namespace ops
}  // namespace biglake
