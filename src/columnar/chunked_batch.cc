#include "columnar/chunked_batch.h"

#include "columnar/buffer.h"
#include "columnar/kernels.h"
#include "common/cancel.h"
#include "obs/trace.h"

namespace biglake {

ChunkedBatch ChunkedBatch::Of(RecordBatch batch) {
  ChunkedBatch out;
  out.schema = batch.schema();
  out.chunks.push_back(SelectedBatch{std::move(batch), std::nullopt});
  return out;
}

size_t ChunkedBatch::num_rows() const {
  size_t n = 0;
  for (const SelectedBatch& c : chunks) n += c.num_rows();
  return n;
}

void ChunkedBatch::Append(SelectedBatch chunk) {
  if (chunk.num_rows() > 0) chunks.push_back(std::move(chunk));
}

namespace {

/// Rows of consecutive chunks one concatenation task copies.
constexpr size_t kConcatGroupRows = 32 * 1024;

/// The one copy behind every contiguity point: column c of the output is
/// the concatenation (Column::ConcatRows) of column c of every chunk. The
/// copy runs on the pool in tasks of one column times a group of
/// consecutive chunks, so a wide string column splits like any other; the
/// output buffers are allocated here, on the caller's thread, so they come
/// from and go back to one allocator arena whichever worker fills them.
Result<RecordBatch> ConcatChunks(const ChunkedBatch& in, ThreadPool* pool) {
  if (in.chunks.empty()) return RecordBatch::Empty(in.schema);
  std::vector<const std::vector<uint32_t>*> rows;
  rows.reserve(in.chunks.size());
  bool any_selection = false;
  // Groups of consecutive chunks: [group_begin[g], group_begin[g + 1]).
  std::vector<size_t> group_begin = {0};
  size_t group_rows = 0;
  for (size_t k = 0; k < in.chunks.size(); ++k) {
    const SelectedBatch& c = in.chunks[k];
    if (!c.batch.schema()->Equals(*in.schema)) {
      return Status::InvalidArgument("Concat of mismatched batch schemas");
    }
    rows.push_back(c.ids());
    any_selection = any_selection || c.sel.has_value();
    group_rows += c.num_rows();
    if (group_rows >= kConcatGroupRows || k + 1 == in.chunks.size()) {
      group_begin.push_back(k + 1);
      group_rows = 0;
    }
  }
  if (any_selection) kernels::CountSelectionMaterialization();
  const size_t num_cols = in.schema->num_fields();
  const size_t num_groups = group_begin.size() - 1;
  std::vector<Column::ConcatJob> jobs;
  jobs.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    std::vector<Column> pieces;
    pieces.reserve(in.chunks.size());
    for (const SelectedBatch& chunk : in.chunks) {
      pieces.push_back(chunk.batch.column(c));
    }
    BL_ASSIGN_OR_RETURN(Column::ConcatJob job,
                        Column::ConcatJob::Make(std::move(pieces), rows));
    jobs.push_back(std::move(job));
  }
  auto each_range = [&](auto&& fn) {
    return ForEachChunk(pool, num_cols * num_groups, [&](size_t t) -> Status {
      const size_t g = t % num_groups;
      fn(jobs[t / num_groups], group_begin[g], group_begin[g + 1]);
      return Status::OK();
    });
  };
  BL_RETURN_NOT_OK(each_range([](Column::ConcatJob& job, size_t b, size_t e) {
    job.Measure(b, e);
  }));
  for (Column::ConcatJob& job : jobs) job.Allocate();
  BL_RETURN_NOT_OK(ForEachChunk(pool, num_cols, [&](size_t c) -> Status {
    jobs[c].Size();
    return Status::OK();
  }));
  BL_RETURN_NOT_OK(each_range([](Column::ConcatJob& job, size_t b, size_t e) {
    job.Fill(b, e);
  }));
  std::vector<Column> cols;
  cols.reserve(num_cols);
  for (Column::ConcatJob& job : jobs) cols.push_back(job.Finish());
  return RecordBatch(in.schema, std::move(cols));
}

/// The `materialize` span of one contiguity point. Its nums depend only on
/// the chunk list, never on how many streams or workers produced it.
class MaterializeSpan {
 public:
  explicit MaterializeSpan(const ChunkedBatch& in)
      : span_("materialize", obs::Span::kStage),
        before_(BufferPool::Default().snapshot().bytes_copied) {
    span_.AddNum("rows", in.num_rows());
    span_.AddNum("pieces", in.chunks.size());
  }
  ~MaterializeSpan() {
    span_.AddNum("bytes_copied",
                 BufferPool::Default().snapshot().bytes_copied - before_);
  }

 private:
  obs::ScopedSpan span_;
  const uint64_t before_;
};

}  // namespace

Result<SelectedBatch> ChunkedBatch::Materialize(ThreadPool* pool) && {
  MaterializeSpan span(*this);
  if (chunks.size() == 1) return std::move(chunks[0]);
  BL_ASSIGN_OR_RETURN(RecordBatch out, ConcatChunks(*this, pool));
  return SelectedBatch{std::move(out), std::nullopt};
}

Result<RecordBatch> ChunkedBatch::Contiguous(ThreadPool* pool) && {
  MaterializeSpan span(*this);
  if (chunks.size() == 1 && !chunks[0].sel.has_value()) {
    return std::move(chunks[0].batch);
  }
  return ConcatChunks(*this, pool);
}

Status ForEachChunk(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) BL_RETURN_NOT_OK(fn(i));
    return Status::OK();
  }
  // ParallelFor checks the launching thread's token at every chunk; with
  // none installed the region has no checkpoint.
  ScopedCancelToken no_checkpoint(nullptr);
  return pool->ParallelFor(n, fn);
}

}  // namespace biglake
