// Reference-counted immutable buffers: the zero-copy substrate under Column.
//
// A `Buffer<T>` is an offset/length *view* over shared immutable storage
// (the Plasma idea from Arrow, scaled down to this codebase): copying a
// Buffer, slicing it, or handing it from the block cache to an operator tree
// is a refcount bump, never a memcpy. Data is copied only at explicit
// materialization points — `ToVector()`, `Gather`, `Decode`, multi-piece
// `Concat` — and every one of those copies is counted.
//
// Accounting lives in `BufferPool`. Counts are plain commutative sums kept
// in atomics, and are additionally mirrored into the obs metrics registry
// (`biglake_buf_*`) through cached Counter handles (commutative relaxed
// adds, like every other counter in metrics.h). Because all engine parallelism is per-stream / per-partition
// with fixed task counts, the *set* of buffer operations a query performs is
// worker-count invariant, and so are these totals.
//
// Thread safety: Buffer is immutable after construction; concurrent readers
// of the same storage need no synchronization (shared_ptr refcounts are
// atomic). BufferPool counters are atomics.

#ifndef BIGLAKE_COLUMNAR_BUFFER_H_
#define BIGLAKE_COLUMNAR_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace biglake {

template <typename T>
class Buffer;

/// Accounting domain for buffer storage. `Default()` is the process-wide
/// pool every Buffer uses unless a `ScopedBufferPool` overrides the calling
/// thread; scoped pools exist so unit tests can observe alloc/copy counts in
/// isolation. Live-buffer accounting follows the storage, not the thread: a
/// buffer allocated under a scoped pool decrements that pool's live count
/// when the last view dies, even if the pool object itself is gone (the
/// counter block is refcounted alongside the storage).
class BufferPool {
 public:
  struct Stats {
    uint64_t bytes_allocated = 0;   // storage bytes wrapped into buffers
    uint64_t bytes_copied = 0;      // bytes physically copied (materialized)
    uint64_t buffers_live = 0;      // storage blocks currently referenced
    uint64_t zero_copy_slices = 0;  // views handed out without a copy
    uint64_t string_arenas = 0;         // varbinary arenas materialized
    uint64_t string_payload_bytes = 0;  // payload bytes placed into arenas
  };

  BufferPool();

  /// Process-wide pool; what the engine publishes deltas of into profiles.
  static BufferPool& Default();
  /// The calling thread's pool: the innermost ScopedBufferPool, else
  /// Default(). Worker threads of a pool do NOT inherit a scope installed on
  /// the launching thread — scoped pools are for single-threaded tests.
  static BufferPool& Current();

  Stats snapshot() const;

  // Accounting entry points (used by Buffer; callable directly by code that
  // materializes outside the Buffer API, e.g. legacy vector paths).
  void CountAlloc(uint64_t bytes);
  void CountCopy(uint64_t bytes);
  void CountSlice();
  /// One varbinary arena materialized holding `payload_bytes` of string
  /// payload (string_buffer.h). The arena's alloc/copy bytes are counted
  /// separately through the wrapped Buffers.
  void CountStringArena(uint64_t payload_bytes);

 private:
  template <typename T>
  friend class Buffer;
  friend class ScopedBufferPool;

  // Shared with every Storage block allocated from this pool so live-count
  // decrements stay safe after the pool dies.
  struct Counters {
    std::atomic<uint64_t> bytes_allocated{0};
    std::atomic<uint64_t> bytes_copied{0};
    std::atomic<uint64_t> buffers_live{0};
    std::atomic<uint64_t> zero_copy_slices{0};
    std::atomic<uint64_t> string_arenas{0};
    std::atomic<uint64_t> string_payload_bytes{0};
  };

  std::shared_ptr<Counters> counters_;
};

/// Installs `pool` as the calling thread's accounting sink for buffers
/// created in this scope (mirrors ScopedChargeShard / ScopedCacheTxn).
class ScopedBufferPool {
 public:
  explicit ScopedBufferPool(BufferPool* pool);
  ~ScopedBufferPool();
  ScopedBufferPool(const ScopedBufferPool&) = delete;
  ScopedBufferPool& operator=(const ScopedBufferPool&) = delete;

 private:
  BufferPool* prev_;
};

namespace buffer_internal {

// Heap footprint of a storage vector, matching Column::MemoryBytes().
template <typename T>
inline uint64_t ByteSize(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.size()) * sizeof(T);
}
// No std::string overload: string columns live in varbinary arenas
// (string_buffer.h), whose offsets/bytes arrays are plain fixed-width
// buffers. The old per-element walk (`s.size() + sizeof(std::string)`)
// ignored heap capacity and SSO and made accounting O(n); arena footprints
// are exact and O(1) by construction.
// Footprint of an element range (for views that cover part of the storage).
template <typename T>
inline uint64_t ByteSizeRange(const T* /*data*/, size_t n) {
  return static_cast<uint64_t>(n) * sizeof(T);
}

// Out-of-line obs mirroring (buffer.cc) so this header stays free of the
// metrics dependency. All pool traffic (Default and scoped) reaches the
// process-wide `biglake_buf_*` series; kind is Buffer<T>::MetricKind.
void MirrorToMetrics(int kind, uint64_t delta);
void OnStorageAllocated();
void OnStorageFreed();

}  // namespace buffer_internal

/// Immutable shared view over a refcounted element array. API mirrors a
/// `const std::vector<T>` (size/data/operator[]/iteration) so existing typed
/// accessors compile unchanged; copies are explicit via `ToVector()`.
template <typename T>
class Buffer {
 public:
  using value_type = T;
  using const_iterator = const T*;

  /// Empty view (no storage).
  Buffer() = default;

  /// Wraps freshly materialized storage (builder output, decoded block).
  /// Counts bytes-allocated against the calling thread's pool.
  static Buffer FromVector(std::vector<T> values) {
    return Wrap(std::move(values), /*copied=*/false);
  }

  /// Wraps storage that was produced by *copying* rows out of existing
  /// buffers (Gather / Decode / Concat). Counts bytes-allocated AND
  /// bytes-copied.
  static Buffer FromVectorCopied(std::vector<T> values) {
    return Wrap(std::move(values), /*copied=*/true);
  }

  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  const T* data() const {
    return storage_ ? storage_->values.data() + offset_ : nullptr;
  }
  const T& operator[](size_t i) const { return storage_->values[offset_ + i]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[length_ - 1]; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + length_; }

  /// O(1) sub-view sharing this buffer's storage; counted as a zero-copy
  /// slice. `offset` past the view clamps to empty; `count` clamps to the
  /// view's end.
  Buffer Slice(size_t offset, size_t count) const {
    Buffer out;
    if (offset > length_) offset = length_;
    if (count > length_ - offset) count = length_ - offset;
    out.storage_ = storage_;
    out.offset_ = offset_ + offset;
    out.length_ = count;
    if (storage_) Count(storage_->counters->zero_copy_slices, 1, kSliceMetric);
    return out;
  }

  /// Explicit deep copy of the viewed range, counted as bytes-copied.
  std::vector<T> ToVector() const {
    if (storage_) {
      Count(storage_->counters->bytes_copied,
            buffer_internal::ByteSizeRange(data(), length_), kCopyMetric);
    }
    return std::vector<T>(begin(), end());
  }

  /// True if both views are backed by the same storage block (aliasing test
  /// hook; also what makes "shared, not duplicated" assertable).
  bool SharesStorageWith(const Buffer& other) const {
    return storage_ && storage_ == other.storage_;
  }

  /// True if both are the very same view: one storage block, same window.
  bool SameViewAs(const Buffer& other) const {
    return storage_ == other.storage_ && offset_ == other.offset_ &&
           length_ == other.length_;
  }

  /// Storage refcount (test hook).
  long use_count() const { return storage_ ? storage_.use_count() : 0; }

  friend bool operator==(const Buffer& a, const std::vector<T>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator==(const std::vector<T>& a, const Buffer& b) {
    return b == a;
  }
  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  struct Storage {
    std::vector<T> values;
    std::shared_ptr<BufferPool::Counters> counters;
    ~Storage() {
      counters->buffers_live.fetch_sub(1, std::memory_order_relaxed);
      buffer_internal::OnStorageFreed();
    }
  };

  enum MetricKind { kAllocMetric, kCopyMetric, kSliceMetric };

  static Buffer Wrap(std::vector<T> values, bool copied) {
    Buffer out;
    uint64_t bytes = buffer_internal::ByteSize(values);
    auto storage = std::make_shared<Storage>();
    storage->values = std::move(values);
    storage->counters = BufferPool::Current().counters_;
    out.length_ = storage->values.size();
    Count(storage->counters->bytes_allocated, bytes, kAllocMetric);
    storage->counters->buffers_live.fetch_add(1, std::memory_order_relaxed);
    buffer_internal::OnStorageAllocated();
    if (copied) Count(storage->counters->bytes_copied, bytes, kCopyMetric);
    out.storage_ = std::move(storage);
    return out;
  }

  static void Count(std::atomic<uint64_t>& counter, uint64_t delta,
                    MetricKind kind) {
    counter.fetch_add(delta, std::memory_order_relaxed);
    buffer_internal::MirrorToMetrics(kind, delta);
  }

  std::shared_ptr<const Storage> storage_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

}  // namespace biglake

#endif  // BIGLAKE_COLUMNAR_BUFFER_H_
