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

Result<std::vector<int>> ResolveColumns(const RecordBatch& batch,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    int idx = batch.schema()->FieldIndex(n);
    if (idx < 0) {
      return Status::NotFound(
          StrCat("no column `", n, "` in operator input"));
    }
    out.push_back(idx);
  }
  return out;
}

/// One side of a join: its key columns and the logical -> original row map
/// (identity without a selection).
struct JoinSide {
  std::vector<KeyColumn> keys;
  const std::vector<uint32_t>* sel = nullptr;
  size_t n = 0;

  uint32_t Orig(size_t j) const {
    return sel != nullptr ? (*sel)[j] : static_cast<uint32_t>(j);
  }

  /// Combined key hashes of logical rows [begin, end) into `hash`, and
  /// `skip[j]` = 1 for rows with any NULL key (NULL never joins).
  void HashRows(size_t begin, size_t end, uint64_t* hash,
                uint8_t* skip) const {
    const size_t count = end - begin;
    std::fill_n(skip, count, 0);
    for (size_t k = 0; k < keys.size(); ++k) {
      const KeyColumn& kc = keys[k];
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
  for (size_t k = 0; k < a.keys.size(); ++k) {
    if (!KeyEqual(a.keys[k], ra, b.keys[k], rb)) return false;
  }
  return true;
}

/// Probe chunk width. Fixed, so the chunk boundaries (and with them the
/// concatenated match order) never depend on the worker count.
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

/// Gathers matched rows and stitches the joined schema (probe columns
/// colliding with build names get a "_r" suffix). With a pool, each output
/// column is gathered by its own task; column contents do not depend on it.
Result<RecordBatch> AssembleJoinOutput(
    ThreadPool* pool, const RecordBatch& build, const RecordBatch& probe,
    const std::vector<uint32_t>& build_rows,
    const std::vector<uint32_t>& probe_rows) {
  const size_t nb = build.num_columns();
  std::vector<Column> cols(nb + probe.num_columns());
  auto gather = [&](size_t c) -> Status {
    cols[c] = c < nb ? build.column(c).Gather(build_rows)
                     : probe.column(c - nb).Gather(probe_rows);
    return Status::OK();
  };
  // Below one chunk of output a pool hand-off costs more than the gather.
  BL_RETURN_NOT_OK(RunChunks(
      build_rows.size() >= kProbeChunkRows ? pool : nullptr, cols.size(),
      gather));
  std::vector<Field> fields;
  std::set<std::string> used;
  for (size_t c = 0; c < nb; ++c) {
    fields.push_back(build.schema()->field(c));
    used.insert(fields.back().name);
  }
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    Field f = probe.schema()->field(c);
    while (used.count(f.name) > 0) f.name += "_r";
    used.insert(f.name);
    fields.push_back(std::move(f));
  }
  return RecordBatch(MakeSchema(std::move(fields)), std::move(cols));
}

}  // namespace

Result<RecordBatch> HashJoin(ThreadPool* pool, const RecordBatch& build,
                             const RecordBatch& probe,
                             const std::vector<std::string>& build_keys,
                             const std::vector<std::string>& probe_keys,
                             uint64_t* matches_out,
                             const std::vector<uint32_t>* build_sel,
                             const std::vector<uint32_t>* probe_sel) {
  if (build_keys.size() != probe_keys.size() || build_keys.empty()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  BL_ASSIGN_OR_RETURN(std::vector<int> build_cols,
                      ResolveColumns(build, build_keys));
  BL_ASSIGN_OR_RETURN(std::vector<int> probe_cols,
                      ResolveColumns(probe, probe_keys));

  // All indexing below is in logical rows (positions within the selection,
  // or plain row ids without one). Selections are strictly ascending, so
  // the output is row-identical to joining the gathered inputs.
  JoinSide b, p;
  b.sel = build_sel;
  b.n = build_sel != nullptr ? build_sel->size() : build.num_rows();
  p.sel = probe_sel;
  p.n = probe_sel != nullptr ? probe_sel->size() : probe.num_rows();
  b.keys.reserve(build_cols.size());
  p.keys.reserve(probe_cols.size());
  bool comparable = true;
  for (size_t k = 0; k < build_cols.size(); ++k) {
    b.keys.emplace_back(build.column(static_cast<size_t>(build_cols[k])));
    p.keys.emplace_back(probe.column(static_cast<size_t>(probe_cols[k])));
    comparable &= b.keys[k].cls == p.keys[k].cls;
  }

  std::vector<uint32_t> build_rows, probe_rows;
  if (comparable && b.n > 0 && p.n > 0) {
    // A single fixed-width key hashes bijectively: equal hashes are equal
    // keys, so slots never compare rows.
    const bool exact =
        b.keys.size() == 1 && b.keys[0].cls != KeyClass::kString;
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

    struct ChunkMatches {
      std::vector<uint32_t> build_rows;
      std::vector<uint32_t> probe_rows;
    };
    const size_t chunks = (p.n + kProbeChunkRows - 1) / kProbeChunkRows;
    std::vector<ChunkMatches> matches(chunks);
    BL_RETURN_NOT_OK(RunChunks(pool, chunks, [&](size_t c) -> Status {
      const size_t begin = c * kProbeChunkRows;
      const size_t end = std::min(p.n, begin + kProbeChunkRows);
      std::vector<uint64_t> hash(end - begin);
      std::vector<uint8_t> skip(end - begin);
      p.HashRows(begin, end, hash.data(), skip.data());
      ChunkMatches& out = matches[c];
      for (size_t j = begin; j < end; ++j) {
        if (skip[j - begin] != 0) continue;
        const uint32_t r = p.Orig(j);
        for (uint32_t bj = table.Find(hash[j - begin], p, r); bj != kNoRow;
             bj = table.Next(bj)) {
          out.build_rows.push_back(b.Orig(bj));
          out.probe_rows.push_back(r);
        }
      }
      return Status::OK();
    }));

    // Chunks cover ascending probe ranges: concatenating them in chunk
    // order is global probe-row order, with each row's matches in build-row
    // order — no merge or sort, whatever the worker count.
    size_t total = 0;
    for (const auto& m : matches) total += m.build_rows.size();
    build_rows.reserve(total);
    probe_rows.reserve(total);
    for (const auto& m : matches) {
      build_rows.insert(build_rows.end(), m.build_rows.begin(),
                        m.build_rows.end());
      probe_rows.insert(probe_rows.end(), m.probe_rows.begin(),
                        m.probe_rows.end());
    }
  }
  if (matches_out != nullptr) *matches_out = build_rows.size();
  return AssembleJoinOutput(pool, build, probe, build_rows, probe_rows);
}

Result<RecordBatch> ParallelAggregate(ThreadPool* pool,
                                      const RecordBatch& input,
                                      const std::vector<std::string>& group_by,
                                      const std::vector<AggSpec>& aggregates,
                                      const std::vector<uint32_t>* selection,
                                      AggregateStats* stats) {
  BL_ASSIGN_OR_RETURN(HashAggregator agg,
                      HashAggregator::Make(input.schema(), group_by,
                                           aggregates));
  BL_RETURN_NOT_OK(agg.AddChunked(pool, input, selection));
  if (stats != nullptr) {
    stats->groups = agg.num_groups();
    stats->chunks = agg.num_chunks();
  }
  return agg.Finish(/*final_step=*/true);
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
